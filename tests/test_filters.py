import numpy as np
import pytest
from scipy.special import expit

from oracles import (central_diff, mlp_forward_reference,
                     mlp_param_grad_reference, rel_error,
                     train_dae_layer_reference)
from privfilter.errors import DataError, ShapeError
from privfilter.filters import (DAE_NOISE_LEVEL, DAE_STEP, FilterKind,
                                FilterState, apply_filter,
                                filter_param_grad, identity_filter,
                                init_filter, linear_filter, load_filter,
                                pretrain_autoencoder, save_filter,
                                _train_dae_layer, _unpack_mlp)

# (n, input_dim, hidden_dims, output_dim) for the bit-identity checks
_MLP_SHAPES = [(1, 3, (2, 2), 1), (9, 7, (5, 4), 3), (64, 12, (20, 10), 5),
               (3200, 20, (20, 10), 5), (257, 6, (3, 11), 6)]


def _layouts(X):
    """The same values C-ordered, Fortran-ordered and as a strided view."""
    padded = np.zeros((X.shape[0], 2 * X.shape[1]))
    padded[:, ::2] = X
    return {"C": X, "F": np.asfortranarray(X), "strided": padded[:, ::2]}


def _grad_objective(state, X, upstream):
    """Scalar objective whose parameter gradient filter_param_grad claims."""
    def fn(params):
        return float(np.sum(upstream * apply_filter(state.with_params(params), X)))
    return fn


def test_linear_apply_is_projection():
    rng = np.random.default_rng(0)
    U = rng.standard_normal((6, 3))
    X = rng.standard_normal((11, 6))
    out = apply_filter(linear_filter(U), X)
    np.testing.assert_allclose(out, X @ U, rtol=0, atol=0)


def test_identity_filter_passes_through():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(apply_filter(identity_filter(5), X), X)


def test_apply_is_deterministic_bitwise():
    rng = np.random.default_rng(2)
    state = init_filter(FilterKind.TWO_LAYER_SIGMOID, 7, 3, (5, 4), seed=3)
    X = rng.standard_normal((9, 7))
    first = apply_filter(state, X)
    second = apply_filter(state, X)
    np.testing.assert_array_equal(first, second)
    clone = FilterState(state.kind, state.params.copy(), 7, 3, (5, 4))
    np.testing.assert_array_equal(apply_filter(clone, X), first)


def test_linear_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(20):
        D = int(rng.integers(2, 13))
        d = int(rng.integers(1, min(D, 4) + 1))
        n = int(rng.integers(1, 9))
        state = init_filter(FilterKind.LINEAR, D, d, seed=rng)
        X = rng.standard_normal((n, D))
        upstream = rng.standard_normal((n, d))
        grad = filter_param_grad(state, X, upstream)
        fd = central_diff(_grad_objective(state, X, upstream), state.params)
        assert rel_error(grad, fd) <= 1e-5


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        D = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        hidden = (int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        n = int(rng.integers(1, 7))
        state = init_filter(FilterKind.TWO_LAYER_SIGMOID, D, d, hidden, seed=rng)
        X = rng.standard_normal((n, D))
        upstream = rng.standard_normal((n, d))
        grad = filter_param_grad(state, X, upstream)
        fd = central_diff(_grad_objective(state, X, upstream), state.params)
        assert rel_error(grad, fd) <= 1e-5


def test_mlp_forward_matches_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for n, D, hidden, d in _MLP_SHAPES:
        state = init_filter(FilterKind.TWO_LAYER_SIGMOID, D, d, hidden, seed=rng)
        for layout, X in _layouts(rng.standard_normal((n, D))).items():
            ref_out, ref_h1, ref_h2 = mlp_forward_reference(state, X)
            collected = []
            out = apply_filter(state, X, collected)
            np.testing.assert_array_equal(out, ref_out, err_msg=layout)
            assert len(collected) == 2
            np.testing.assert_array_equal(collected[0], ref_h1, err_msg=layout)
            np.testing.assert_array_equal(collected[1], ref_h2, err_msg=layout)
            np.testing.assert_array_equal(apply_filter(state, X), ref_out)


def test_mlp_vjp_matches_reference_bit_for_bit():
    rng = np.random.default_rng(13)
    for n, D, hidden, d in _MLP_SHAPES:
        state = init_filter(FilterKind.TWO_LAYER_SIGMOID, D, d, hidden, seed=rng)
        upstream = rng.standard_normal((n, d))
        for layout, X in _layouts(rng.standard_normal((n, D))).items():
            ref = mlp_param_grad_reference(state, X, upstream)
            collected = []
            apply_filter(state, X, collected)
            np.testing.assert_array_equal(
                filter_param_grad(state, X, upstream), ref, err_msg=layout)
            np.testing.assert_array_equal(
                filter_param_grad(state, X, upstream, collected), ref,
                err_msg=layout)
            for up_layout, up in _layouts(upstream).items():
                np.testing.assert_array_equal(
                    filter_param_grad(state, X, up, collected),
                    mlp_param_grad_reference(state, X, up),
                    err_msg=f"{layout}/{up_layout}")


def test_vjp_does_not_modify_the_given_activations():
    rng = np.random.default_rng(14)
    state = init_filter(FilterKind.TWO_LAYER_SIGMOID, 6, 2, (5, 4), seed=rng)
    X = rng.standard_normal((20, 6))
    collected = []
    apply_filter(state, X, collected)
    before = [h.copy() for h in collected]
    filter_param_grad(state, X, rng.standard_normal((20, 2)), collected)
    for h, kept in zip(collected, before):
        np.testing.assert_array_equal(h, kept)


def test_vjp_rejects_mismatched_activations():
    rng = np.random.default_rng(15)
    state = init_filter(FilterKind.TWO_LAYER_SIGMOID, 6, 2, (5, 4), seed=rng)
    X = rng.standard_normal((20, 6))
    upstream = rng.standard_normal((20, 2))
    collected = []
    apply_filter(state, X[:10], collected)
    with pytest.raises(ShapeError):
        filter_param_grad(state, X, upstream, collected)
    with pytest.raises(ShapeError):
        filter_param_grad(state, X, upstream, collected[::-1])


def test_linear_filter_collects_no_activations():
    rng = np.random.default_rng(16)
    state = init_filter(FilterKind.LINEAR, 6, 2, seed=rng)
    X = rng.standard_normal((8, 6))
    upstream = rng.standard_normal((8, 2))
    collected = []
    np.testing.assert_array_equal(apply_filter(state, X, collected), X @ state.as_matrix())
    assert collected == []
    np.testing.assert_array_equal(filter_param_grad(state, X, upstream, collected),
                                  (X.T @ upstream).ravel())


@pytest.mark.parametrize("sigmoid_out", [True, False])
@pytest.mark.parametrize("track_losses", [False, True])
def test_dae_layer_matches_reference_bit_for_bit(sigmoid_out, track_losses):
    rng = np.random.default_rng(17)
    for n, D, hidden in [(1, 3, 2), (40, 8, 5), (3200, 20, 20), (333, 10, 10)]:
        H = rng.standard_normal((n, D))
        w0 = rng.uniform(-0.5, 0.5, size=(D, hidden))
        b0 = rng.uniform(-0.5, 0.5, size=hidden)
        for layout, view in _layouts(H).items():
            ours_rng = np.random.default_rng(n)
            ref_rng = np.random.default_rng(n)
            w, b = _train_dae_layer(view, w0.copy(), b0.copy(), ours_rng, 6,
                                    sigmoid_out)
            # the reference's clean-input losses draw no random numbers,
            # so tracking them leaves its parameters as they are
            ref_w, ref_b, ref_losses = train_dae_layer_reference(
                view, w0.copy(), b0.copy(), ref_rng, DAE_NOISE_LEVEL, 6,
                DAE_STEP, sigmoid_out, track_losses)
            np.testing.assert_array_equal(w, ref_w, err_msg=layout)
            np.testing.assert_array_equal(b, ref_b, err_msg=layout)
            if track_losses:
                assert ref_losses.shape == (7,)
            else:
                assert ref_losses is None
            # both consumed the same random stream
            assert ours_rng.random() == ref_rng.random()


def test_pretrain_matches_reference_layers_bit_for_bit():
    rng = np.random.default_rng(18)
    X = np.asfortranarray(rng.standard_normal((150, 9)))
    state = pretrain_autoencoder(X, 3, (6, 4), epochs=5, seed=21)
    ref_rng = np.random.default_rng(21)
    init = init_filter(FilterKind.TWO_LAYER_SIGMOID, 9, 3, (6, 4), seed=ref_rng)
    h = X
    for idx, ((w, b), (got_w, got_b)) in enumerate(zip(_unpack_mlp(init),
                                                        _unpack_mlp(state))):
        sigmoid_out = idx < 2
        w, b, _ = train_dae_layer_reference(h, w.copy(), b.copy(), ref_rng,
                                            DAE_NOISE_LEVEL, 5, DAE_STEP,
                                            sigmoid_out, False)
        np.testing.assert_array_equal(got_w, w)
        np.testing.assert_array_equal(got_b, b)
        if sigmoid_out:
            h = expit(h @ w + b)


def test_init_respects_fan_in_bounds():
    state = init_filter(FilterKind.LINEAR, 16, 4, seed=0)
    assert np.abs(state.params).max() <= 1.0 / 4.0
    mlp = init_filter(FilterKind.TWO_LAYER_SIGMOID, 9, 2, (5, 4), seed=0)
    for (w, b), fan_in in zip(_unpack_mlp(mlp), (9, 5, 4)):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.abs(w).max() <= bound
        assert np.abs(b).max() <= bound


def test_init_is_seeded():
    a = init_filter(FilterKind.TWO_LAYER_SIGMOID, 6, 2, (4, 3), seed=42)
    b = init_filter(FilterKind.TWO_LAYER_SIGMOID, 6, 2, (4, 3), seed=42)
    np.testing.assert_array_equal(a.params, b.params)
    c = init_filter(FilterKind.TWO_LAYER_SIGMOID, 6, 2, (4, 3), seed=43)
    assert not np.array_equal(a.params, c.params)


def test_state_validation():
    with pytest.raises(ShapeError):
        FilterState(FilterKind.LINEAR, np.zeros(5), 3, 2)  # wrong count
    with pytest.raises(DataError, match="params"):
        FilterState(FilterKind.LINEAR, np.full(6, np.nan), 3, 2)
    with pytest.raises(ShapeError):
        FilterState(FilterKind.LINEAR, np.zeros(12), 3, 4)  # d > D
    with pytest.raises(ShapeError):
        FilterState(FilterKind.TWO_LAYER_SIGMOID, np.zeros(10), 3, 2, (4,))
    with pytest.raises(ShapeError):
        init_filter(FilterKind.TWO_LAYER_SIGMOID, 3, 2, (4, 3), seed=0).as_matrix()


def test_params_are_read_only():
    state = linear_filter(np.eye(3))
    with pytest.raises(ValueError):
        state.params[0] = 5.0


def test_apply_rejects_wrong_width():
    state = linear_filter(np.eye(3))
    with pytest.raises(ShapeError):
        apply_filter(state, np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        filter_param_grad(state, np.zeros((4, 3)), np.zeros((4, 2)))


def test_pretrain_zero_epochs_returns_seeded_init():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 8))
    state = pretrain_autoencoder(X, 3, (6, 4), epochs=0, seed=17)
    reference = init_filter(FilterKind.TWO_LAYER_SIGMOID, 8, 3, (6, 4), seed=17)
    np.testing.assert_array_equal(state.params, reference.params)


def test_pretrain_reduces_layer_losses():
    # pretrain_autoencoder's layers are the reference layers bit for bit
    # (test_pretrain_matches_reference_layers_bit_for_bit), so the
    # reference's clean-input losses are the pretraining's
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 10)) @ np.diag(np.linspace(0.2, 2.0, 10))
    state = pretrain_autoencoder(X, 3, (7, 5), epochs=40, seed=1)
    assert state.layer_dims == (10, 7, 5, 3)
    ref_rng = np.random.default_rng(1)
    init = init_filter(FilterKind.TWO_LAYER_SIGMOID, 10, 3, (7, 5), seed=ref_rng)
    h = X
    for idx, ((w, b), (got_w, _)) in enumerate(zip(_unpack_mlp(init),
                                                   _unpack_mlp(state))):
        w, b, losses = train_dae_layer_reference(h, w.copy(), b.copy(), ref_rng,
                                                 DAE_NOISE_LEVEL, 40, DAE_STEP,
                                                 idx < 2, True)
        np.testing.assert_array_equal(got_w, w)
        assert losses.shape == (41,)
        assert losses[-1] <= losses[0]
        if idx < 2:
            h = expit(h @ w + b)


def test_pretrain_is_deterministic():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((25, 6))
    a = pretrain_autoencoder(X, 2, (5, 4), epochs=5, seed=9)
    b = pretrain_autoencoder(X, 2, (5, 4), epochs=5, seed=9)
    np.testing.assert_array_equal(a.params, b.params)


def test_pretrain_input_validation():
    with pytest.raises(DataError):
        pretrain_autoencoder(np.zeros((4, 3)), 2, (3, 2), epochs=-1)
    with pytest.raises(ShapeError, match="X"):
        pretrain_autoencoder(np.zeros(3), 2, (3, 2))


def test_save_load_round_trip(tmp_path):
    for state in (init_filter(FilterKind.LINEAR, 6, 2, seed=0),
                  init_filter(FilterKind.TWO_LAYER_SIGMOID, 6, 2, (4, 3), seed=0)):
        path = tmp_path / f"{state.kind.value}.filter"
        save_filter(state, path)
        loaded = load_filter(path)
        assert loaded.kind == state.kind
        assert loaded.layer_dims == state.layer_dims
        np.testing.assert_array_equal(loaded.params, state.params)


def test_load_rejects_wrong_record(tmp_path):
    from privfilter.records import write_record
    path = tmp_path / "other.rec"
    write_record(path, {"record": "something_else"}, np.zeros(3))
    with pytest.raises(DataError):
        load_filter(path)


@pytest.mark.parametrize("key, value", [
    ("kind", None), ("input_dim", None), ("output_dim", None),
    ("hidden_dims", None), ("hidden_dims", 5), ("input_dim", [6]),
    ("input_dim", "three"), ("kind", "cubic")])
def test_load_rejects_a_missing_or_mistyped_shape_key(tmp_path, key, value):
    # value None drops the key from the header; any other value replaces it
    from privfilter.records import write_record
    state = init_filter(FilterKind.LINEAR, 6, 2, seed=0)
    header = {"record": "filter", "kind": state.kind.value, "input_dim": 6,
              "output_dim": 2, "hidden_dims": []}
    if value is None:
        del header[key]
    else:
        header[key] = value
    path = tmp_path / "bad.filter"
    write_record(path, header, state.params)
    expected = f"has no '{key}'" if value is None else "malformed"
    with pytest.raises(DataError, match=f"bad.filter.*{expected}"):
        load_filter(path)
