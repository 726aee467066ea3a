"""Deterministic feature filters.

Two families: a linear projection x -> U^T x, and a small multilayer
perceptron with two logistic-sigmoid hidden layers and an affine output
layer (affine so outputs span all of R^d rather than a box).  Parameters
live in a single flat float64 vector so optimizers and checkpoints treat
both families uniformly.

Flat layout (fixed, so saved filters are portable): matrices are flattened
row-major; the MLP stores W1, b1, W2, b2, W3, b3 for layers
input -> hidden1 -> hidden2 -> output.  The linear filter stores the
input_dim x output_dim matrix U row-major.

``apply_filter`` can hand an MLP's hidden activations to the caller, and
``filter_param_grad`` takes them back, so minimax training pays one
backward pass and no forward pass for an accepted step's direction.  The
forward pass, the backward pass and the denoising-autoencoder epochs work
in the buffers their matrix products allocate, with the same operations
in the same order as the plain expressions: the results match those bit
for bit without the n-row temporaries each expression would allocate.
Pretraining returns the trained filter alone and computes no loss it
does not descend on: each epoch is one forward and one backward pass
over the corrupted rows.

The sigmoid is scipy's ``expit``, loaded on the first MLP forward pass
from its compiled module alone (``kernels.scipy_kernel``): no process
loads ``scipy.special``, and one that only uses linear filters loads no
scipy at all.  A numpy sigmoid would be faster but rounds differently,
and the MLP workloads' private accuracies move with those last bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE, POSITIVE_INT,
                     DataError, Setting, ShapeError, check_dim, check_features)
from .kernels import scipy_kernel
from .records import read_record, write_record

DEFAULT_HIDDEN = (20, 10)

_HIDDEN = Setting(int, 1, many=True)


class FilterKind(str, enum.Enum):
    LINEAR = "linear"
    TWO_LAYER_SIGMOID = "two_layer_sigmoid"


_KIND = Setting(str, choices=tuple(kind.value for kind in FilterKind))


def _mlp_layer_sizes(dims):
    """(rows, cols) of each weight matrix for consecutive layer widths."""
    return list(zip(dims[:-1], dims[1:]))


def _mlp_param_count(dims):
    return sum(m * n + n for m, n in _mlp_layer_sizes(dims))


@dataclass(frozen=True)
class FilterState:
    """Immutable filter parameters plus shape metadata."""

    kind: FilterKind
    params: np.ndarray
    input_dim: int
    output_dim: int
    hidden_dims: tuple = ()

    def __post_init__(self):
        kind = FilterKind(_KIND.check("kind", self.kind))
        params = np.array(self.params, dtype=np.float64).ravel()
        params.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "input_dim",
                           POSITIVE_INT.check("input_dim", self.input_dim))
        if not np.all(np.isfinite(params)):
            raise DataError("params must be finite")
        if kind is FilterKind.LINEAR:
            if self.hidden_dims:
                raise ShapeError("linear filters take no hidden layers")
            object.__setattr__(self, "hidden_dims", ())
            object.__setattr__(self, "output_dim", check_dim(
                "output_dim", self.output_dim, self.input_dim))
            expected = self.input_dim * self.output_dim
        else:
            object.__setattr__(self, "output_dim",
                               POSITIVE_INT.check("output_dim", self.output_dim))
            object.__setattr__(self, "hidden_dims",
                               _HIDDEN.check("hidden_dims", self.hidden_dims))
            if len(self.hidden_dims) != 2:
                raise ShapeError("two-layer sigmoid filters need exactly two "
                                 f"hidden sizes, got {self.hidden_dims}")
            expected = _mlp_param_count(self.layer_dims)
        if params.size != expected:
            raise ShapeError(f"expected {expected} parameters, got {params.size}")

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    def as_matrix(self) -> np.ndarray:
        """The projection matrix U (linear filters only)."""
        if self.kind is not FilterKind.LINEAR:
            raise ShapeError("as_matrix is defined for linear filters only")
        return self.params.reshape(self.input_dim, self.output_dim)

    def with_params(self, params) -> "FilterState":
        return FilterState(self.kind, params, self.input_dim, self.output_dim,
                           self.hidden_dims)


def _unpack_mlp(f: FilterState):
    """Return [(W1, b1), (W2, b2), (W3, b3)] views into the flat vector."""
    layers = []
    offset = 0
    for m, n in _mlp_layer_sizes(f.layer_dims):
        w = f.params[offset:offset + m * n].reshape(m, n)
        offset += m * n
        b = f.params[offset:offset + n]
        offset += n
        layers.append((w, b))
    return layers


def _pack_mlp(layers) -> np.ndarray:
    parts = []
    for w, b in layers:
        parts.append(np.asarray(w, dtype=np.float64).ravel())
        parts.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(parts)


def _affine(X, w, b, sigmoid):
    """``expit(X @ w + b)`` (or ``X @ w + b``) in the product's own buffer.

    Same operations in the same order as the allocating expression, so
    the same bits, without the two n-row temporaries it would allocate.
    """
    h = X @ w
    h += b
    if sigmoid:
        expit = scipy_kernel("scipy.special._special_ufuncs", "expit",
                             "scipy.special")
        expit(h, out=h)
    return h


def _mlp_forward(f: FilterState, X):
    """Outputs plus hidden activations (needed for backprop)."""
    (w1, b1), (w2, b2), (w3, b3) = _unpack_mlp(f)
    h1 = _affine(X, w1, b1, True)
    h2 = _affine(h1, w2, b2, True)
    return _affine(h2, w3, b3, False), h1, h2


def apply_filter(f: FilterState, X, hidden=None) -> np.ndarray:
    """Map raw features to filter outputs, one row per sample.

    Parameters
    ----------
    f : FilterState
    X : array, shape (n_samples, input_dim)
    hidden : list, optional
        For an MLP filter, the hidden activations (h1, h2) of this pass
        are appended to it, so that ``filter_param_grad`` at the same
        ``f`` and ``X`` can skip its forward pass.  A linear filter
        appends nothing.

    Returns
    -------
    array, shape (n_samples, output_dim)
    """
    X = check_features("X", X, rows=0, dim=f.input_dim, finite=False)
    if f.kind is FilterKind.LINEAR:
        return X @ f.as_matrix()
    out, h1, h2 = _mlp_forward(f, X)
    if hidden is not None:
        hidden.extend((h1, h2))
    return out


def _sigmoid_backward(delta, w, h, scratch):
    """``(delta @ w.T) * h * (1.0 - h)``, reusing ``scratch`` for 1 - h."""
    out = delta @ w.T
    out *= h
    one_minus = scratch[:h.size].reshape(h.shape)
    np.subtract(1.0, h, out=one_minus)
    out *= one_minus
    return out


def filter_param_grad(f: FilterState, X, upstream, hidden=None) -> np.ndarray:
    """Vector-Jacobian product of the filter with respect to its parameters.

    Returns the gradient of sum_i <upstream_i, g(x_i)> as a flat vector in
    the same layout as ``f.params``.  Chained with a head's feature
    gradient this yields the gradient of the head's risk in the filter
    parameters.  ``hidden`` is the (h1, h2) an MLP filter's
    ``apply_filter(f, X, hidden)`` collected; given, only the backward
    pass runs, and otherwise the forward pass is recomputed.  The result
    is the same either way.
    """
    X = check_features("X", X, rows=0, dim=f.input_dim, finite=False)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (X.shape[0], f.output_dim):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match outputs "
            f"({X.shape[0]}, {f.output_dim})"
        )
    if f.kind is FilterKind.LINEAR:
        return (X.T @ upstream).ravel()

    (w1, b1), (w2, b2), (w3, b3) = _unpack_mlp(f)
    if hidden:
        h1, h2 = hidden
        expected = [(X.shape[0], h) for h in f.hidden_dims]
        if [np.shape(h1), np.shape(h2)] != expected:
            raise ShapeError(f"hidden activations do not match {expected}")
    else:
        _, h1, h2 = _mlp_forward(f, X)
    scratch = np.empty(max(h1.size, h2.size))
    delta = upstream
    g_w3 = h2.T @ delta
    g_b3 = delta.sum(axis=0)
    delta = _sigmoid_backward(delta, w3, h2, scratch)
    g_w2 = h1.T @ delta
    g_b2 = delta.sum(axis=0)
    delta = _sigmoid_backward(delta, w2, h1, scratch)
    g_w1 = X.T @ delta
    g_b1 = delta.sum(axis=0)
    return _pack_mlp([(g_w1, g_b1), (g_w2, g_b2), (g_w3, g_b3)])


def init_filter(kind, input_dim, output_dim, hidden_dims=DEFAULT_HIDDEN,
                seed=None) -> FilterState:
    """Random initialization, uniform in +-1/sqrt(fan_in) per layer."""
    kind = FilterKind(_KIND.check("kind", kind))
    input_dim = POSITIVE_INT.check("input_dim", input_dim)
    output_dim = POSITIVE_INT.check("output_dim", output_dim)
    rng = np.random.default_rng(seed)
    if kind is FilterKind.LINEAR:
        bound = 1.0 / np.sqrt(input_dim)
        params = rng.uniform(-bound, bound, size=(input_dim, output_dim)).ravel()
        return FilterState(kind, params, input_dim, output_dim)
    dims = (input_dim, *_HIDDEN.check("hidden_dims", hidden_dims), output_dim)
    layers = []
    for m, n in _mlp_layer_sizes(dims):
        bound = 1.0 / np.sqrt(m)
        layers.append((rng.uniform(-bound, bound, size=(m, n)),
                       rng.uniform(-bound, bound, size=n)))
    return FilterState(kind, _pack_mlp(layers), input_dim, output_dim,
                       tuple(hidden_dims))


def linear_filter(matrix) -> FilterState:
    matrix = check_features("matrix", matrix)
    return FilterState(FilterKind.LINEAR, matrix.ravel(), matrix.shape[0],
                       matrix.shape[1])


def identity_filter(dim: int) -> FilterState:
    return linear_filter(np.eye(POSITIVE_INT.check("dim", dim)))


def _train_dae_layer(H, w, b, rng, noise_level, epochs, step, sigmoid_out):
    """One denoising-autoencoder layer trained by fixed-step gradient descent.

    Corrupts the input with isotropic Gaussian noise each epoch and
    minimizes the squared reconstruction of the clean input.  Returns the
    trained encoder (w, b).
    """
    n_samples = H.shape[0]
    n_hidden = w.shape[1]
    bound = 1.0 / np.sqrt(n_hidden)
    w_dec = rng.uniform(-bound, bound, size=(n_hidden, H.shape[1]))
    c = np.zeros(H.shape[1])
    # One C-ordered noise buffer for every epoch; each line below keeps
    # the operands and order of the allocating form, so the bits match.
    corrupted = np.empty(H.shape) if noise_level > 0 else H
    for _ in range(epochs):
        if noise_level > 0:
            rng.standard_normal(H.shape, out=corrupted)
            corrupted *= noise_level
            corrupted += H
        z = _affine(corrupted, w, b, sigmoid_out)
        d_r = _affine(z, w_dec, c, False)
        d_r -= H
        d_r *= 2.0 / n_samples
        g_wdec = z.T @ d_r
        g_c = d_r.sum(axis=0)
        if sigmoid_out:  # z is dead from here on, so it is the scratch
            d_pre = _sigmoid_backward(d_r, w_dec, z, z.reshape(-1))
        else:
            d_pre = d_r @ w_dec.T
        g_w = corrupted.T @ d_pre
        g_b = d_pre.sum(axis=0)
        w = w - step * g_w
        b = b - step * g_b
        w_dec = w_dec - step * g_wdec
        c = c - step * g_c
    return w, b


def pretrain_autoencoder(X, output_dim, hidden_dims=DEFAULT_HIDDEN,
                         noise_level=0.1, epochs=100, step=0.01, seed=None):
    """Greedy layerwise denoising-autoencoder initialization of an MLP filter.

    Each layer is trained as a denoising autoencoder on the previous
    layer's clean activations, then frozen.  With epochs=0 the seeded
    random initialization is returned unchanged.  Deterministic given the
    seed.
    """
    X = check_features("X", X)
    noise_level = NON_NEGATIVE.check("noise_level", noise_level)
    epochs = NON_NEGATIVE_INT.check("epochs", epochs)
    step = POSITIVE.check("step", step)
    rng = np.random.default_rng(seed)
    state = init_filter(FilterKind.TWO_LAYER_SIGMOID, X.shape[1], output_dim,
                        hidden_dims, seed=rng)
    layers = _unpack_mlp(state)
    trained = []
    h = X
    for idx, (w, b) in enumerate(layers):
        sigmoid_out = idx < len(layers) - 1
        w, b = _train_dae_layer(h, w.copy(), b.copy(), rng, noise_level,
                                epochs, step, sigmoid_out)
        trained.append((w, b))
        if sigmoid_out:
            h = _affine(h, w, b, True)
    return state.with_params(_pack_mlp(trained))


def save_filter(f: FilterState, path) -> None:
    header = {
        "record": "filter",
        "kind": f.kind.value,
        "input_dim": f.input_dim,
        "output_dim": f.output_dim,
        "hidden_dims": list(f.hidden_dims),
    }
    write_record(path, header, f.params)


def load_filter(path) -> FilterState:
    header, params = read_record(path)
    if header.get("record") != "filter":
        raise DataError(f"{path}: not a filter record")
    try:
        return FilterState(header["kind"], params, header["input_dim"],
                           header["output_dim"], tuple(header["hidden_dims"]))
    except KeyError as exc:
        raise DataError(f"{path}: filter record has no {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # DataError, ShapeError included
        raise DataError(f"{path}: malformed filter record ({exc})") from exc
