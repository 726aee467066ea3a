import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from oracles import dense_diameters
from privfilter import dp_mech
from privfilter.data import gen_synthetic
from privfilter.dp_mech import (BoundKind, NoiseConfig, bound,
                                bound_scale_from_norms, compute_diameters,
                                log_density, sample_noise)
from privfilter.errors import DataError, NumericError, ShapeError
from privfilter.filters import apply_filter, linear_filter
from privfilter.harness import ExperimentConfig, release_features


def test_clip_known_values():
    v = np.array([3.0, 4.0])  # norm 5
    np.testing.assert_allclose(bound(BoundKind.CLIP, 1.0, v), v / 5.0)
    short = np.array([0.3, 0.0])
    np.testing.assert_allclose(bound(BoundKind.CLIP, 1.0, short), short)
    # scale 2: linear region is ||h|| <= 2 and the map divides by the scale
    np.testing.assert_allclose(bound(BoundKind.CLIP, 2.0, np.array([1.0, 0.0])),
                               [0.5, 0.0])
    np.testing.assert_allclose(bound(BoundKind.CLIP, 2.0, v), v / 5.0)


def test_squash_and_normalize_known_values():
    v = np.array([2.0, 0.0])
    np.testing.assert_allclose(bound(BoundKind.SQUASH, 1.0, v),
                               [math.tanh(2.0), 0.0])
    np.testing.assert_allclose(bound(BoundKind.NORMALIZE, 1.0, v), [1.0, 0.0])


def test_bound_outputs_stay_in_unit_ball():
    rng = np.random.default_rng(0)
    for _ in range(40):
        dim = int(rng.integers(1, 8))
        scale = float(10.0 ** rng.uniform(-2, 2))
        h = rng.standard_normal((20, dim)) * 10.0 ** rng.uniform(-12, 12)
        for kind in BoundKind:
            out = bound(kind, scale, h)
            assert out.shape == h.shape
            assert np.all(np.isfinite(out))
            # the unit-ball contract is exact, not approximate
            assert np.linalg.norm(out, axis=1).max() <= 1.0
            # bounding preserves direction
            dots = (out * h).sum(axis=1)
            assert np.all(dots >= -1e-300)


def test_bound_zero_vectors():
    zeros = np.zeros((3, 4))
    np.testing.assert_array_equal(bound(BoundKind.CLIP, 1.0, zeros), zeros)
    np.testing.assert_array_equal(bound(BoundKind.SQUASH, 1.0, zeros), zeros)
    with pytest.warns(RuntimeWarning):
        out = bound(BoundKind.NORMALIZE, 1.0, zeros)
    np.testing.assert_array_equal(out, zeros)


def test_bound_validation():
    with pytest.raises(DataError):
        bound(BoundKind.CLIP, 0.0, np.ones(3))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError):
            bound(BoundKind.CLIP, bad, np.ones(3))
    with pytest.raises(ValueError):
        bound("fold", 1.0, np.ones(3))


@pytest.mark.parametrize("kind", list(BoundKind))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_bound_rejects_rows_with_non_finite_norms(kind, bad):
    # the last value is finite, but the row's norm overflows
    rows = np.ones((3, 2))
    rows[1] = (bad, bad)
    with pytest.raises(NumericError, match="not finite"):
        bound(kind, 1.0, rows)
    with pytest.raises(NumericError, match="not finite"):
        bound(kind, 1.0, rows[1])
    with pytest.raises(NumericError, match="not finite"):
        bound_scale_from_norms(np.linalg.norm(rows, axis=1))


def test_bound_scale_from_norms():
    norms = np.arange(1, 101, dtype=float)
    assert bound_scale_from_norms(norms) == pytest.approx(1.0 / np.percentile(norms, 95))
    assert bound_scale_from_norms(np.zeros(5)) == 1.0
    with pytest.raises(DataError):
        bound_scale_from_norms(np.array([]))


def test_noise_config_validation():
    with pytest.raises(DataError):
        NoiseConfig(epsilon=0.0)
    with pytest.raises(DataError):
        NoiseConfig.from_epsilon_inverse(-1.0)
    assert not NoiseConfig.from_epsilon_inverse(0.0).noisy
    cfg = NoiseConfig.from_epsilon_inverse(0.1)
    assert cfg.epsilon == pytest.approx(10.0)
    assert cfg.rate == pytest.approx(5.0)


def test_no_noise_sentinel_is_exact_and_consumes_no_randomness():
    cfg = NoiseConfig(epsilon=None)
    rng = np.random.default_rng(42)
    before = rng.bit_generator.state
    draws = sample_noise(cfg, 7, rng=rng, size=50)
    assert draws.shape == (50, 7)
    assert not draws.any()
    assert rng.bit_generator.state == before
    with pytest.raises(DataError):
        log_density(np.zeros(3), cfg)
    with pytest.raises(DataError):
        _ = cfg.rate


def test_one_dimensional_noise_is_laplace():
    cfg = NoiseConfig(epsilon=2.0)  # rate 1
    rng = np.random.default_rng(1)
    draws = sample_noise(cfg, 1, rng=rng, size=100_000)[:, 0]
    stat = stats.kstest(draws, stats.laplace(scale=1.0).cdf).pvalue
    assert stat > 0.01
    # density agrees with the scalar Laplace formula
    xs = np.linspace(-4, 4, 9)[:, None]
    np.testing.assert_allclose(log_density(xs, cfg),
                               stats.laplace(scale=1.0).logpdf(xs[:, 0]), atol=1e-12)


def test_noise_radius_is_gamma_distributed():
    rng = np.random.default_rng(2)
    for dim in (2, 5, 20):
        cfg = NoiseConfig(epsilon=0.5)  # rate 0.25
        draws = sample_noise(cfg, dim, rng=rng, size=100_000)
        radii = np.linalg.norm(draws, axis=1)
        p = stats.kstest(radii, stats.gamma(a=dim, scale=4.0).cdf).pvalue
        assert p > 0.01


def test_noise_directions_are_uniform():
    rng = np.random.default_rng(3)
    cfg = NoiseConfig(epsilon=1.0)
    draws = sample_noise(cfg, 3, rng=rng, size=50_000)
    unit = draws / np.linalg.norm(draws, axis=1, keepdims=True)
    # each coordinate of a uniform direction on S^2 is uniform on [-1, 1]
    for axis in range(3):
        p = stats.kstest(unit[:, axis], stats.uniform(loc=-1, scale=2).cdf).pvalue
        assert p > 0.01


def test_noise_scales_unit_directions_by_gamma_radii_bit_for_bit():
    cfg = NoiseConfig(epsilon=0.8)
    rng = np.random.default_rng(17)
    check = copy.deepcopy(rng)
    draws = sample_noise(cfg, 6, rng=rng, size=50)
    directions = check.standard_normal((50, 6))
    directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    radii = check.gamma(shape=6, scale=1.0 / cfg.rate, size=50)
    assert draws.tobytes() == (directions * radii[:, None]).tobytes()
    single = sample_noise(cfg, 6, rng=np.random.default_rng(17))
    row = sample_noise(cfg, 6, rng=np.random.default_rng(17), size=1)
    assert single.shape == (6,) and single.tobytes() == row[0].tobytes()


def test_log_density_integrates_to_one():
    for dim in (1, 2, 3):
        cfg = NoiseConfig(epsilon=1.5)
        rate = cfg.rate
        # radial integral: surface area x integral of r^{d-1} p(r)
        log_surface = (math.log(2.0) + 0.5 * dim * math.log(math.pi)
                       - gammaln(0.5 * dim))
        density_at = lambda r: math.exp(
            log_density(np.concatenate([[r], np.zeros(dim - 1)]), cfg))
        total, err = integrate.quad(
            lambda r: math.exp(log_surface) * r ** (dim - 1) * density_at(r),
            0, np.inf)
        assert total == pytest.approx(1.0, abs=max(1e-8, 10 * err))


def test_log_density_matches_the_scipy_log_gamma_normalizer():
    # math.lgamma stands in for scipy.special.gammaln, so the release layer
    # loads no scipy.special; the two agree to rounding for every dimension
    rng = np.random.default_rng(2)
    for dim in range(1, 200):
        cfg = NoiseConfig(epsilon=0.7)
        xi = rng.standard_normal((3, dim))
        log_norm = (math.log(2.0) + 0.5 * dim * math.log(math.pi)
                    - gammaln(0.5 * dim) + gammaln(dim)
                    - dim * math.log(cfg.rate))
        expected = -cfg.rate * np.linalg.norm(xi, axis=1) - log_norm
        np.testing.assert_allclose(log_density(xi, cfg), expected,
                                   rtol=1e-14, atol=1e-12)


def test_privacy_ratio_bound_holds_exactly():
    # for bounded inputs u, v and any output point w:
    # |log p(w - b(u)) - log p(w - b(v))| <= rate * ||b(u) - b(v)|| <= epsilon
    rng = np.random.default_rng(4)
    for epsilon in (0.1, 1.0, 10.0):
        cfg = NoiseConfig(epsilon=epsilon)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            u = bound(BoundKind.CLIP, 1.0, rng.standard_normal(dim) * 5)
            v = bound(BoundKind.CLIP, 1.0, rng.standard_normal(dim) * 5)
            w = rng.standard_normal(dim) * 3
            gap = abs(log_density(w - u, cfg) - log_density(w - v, cfg))
            assert gap <= epsilon + 1e-12


def test_seeded_sampling_is_reproducible():
    cfg = NoiseConfig(epsilon=1.0)
    a = sample_noise(cfg, 4, rng=7, size=10)
    b = sample_noise(cfg, 4, rng=7, size=10)
    assert np.array_equal(a, b)
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    assert np.array_equal(sample_noise(cfg, 4, rng=rng1, size=10),
                          sample_noise(cfg, 4, rng=rng2, size=10))


def test_release_pre_shape_and_no_noise_path():
    rng = np.random.default_rng(5)
    filt = linear_filter(rng.standard_normal((6, 2)))
    g_train = apply_filter(filt, rng.standard_normal((10, 6)))
    g_test = apply_filter(filt, rng.standard_normal((4, 6)))
    cfg = ExperimentConfig(chain="pre", bound_kind="clip", bound_scale=0.5)
    silent_train, silent_test = release_features(g_train, g_test, cfg, 0.0,
                                                 np.random.default_rng(0))
    assert np.array_equal(silent_train, bound(BoundKind.CLIP, 0.5, g_train))
    assert np.array_equal(silent_test, bound(BoundKind.CLIP, 0.5, g_test))
    assert np.linalg.norm(silent_train, axis=1).max() <= 1.0
    assert np.linalg.norm(silent_test, axis=1).max() <= 1.0
    # without a configured scale it is fit on the training rows only
    scale = bound_scale_from_norms(np.linalg.norm(g_train, axis=1))
    _, auto_test = release_features(g_train, g_test,
                                    ExperimentConfig(chain="pre"), 0.0, None)
    assert np.array_equal(auto_test, bound(BoundKind.CLIP, scale, g_test))
    # the training rows draw their noise first, the test rows second
    noisy_train, noisy_test = release_features(g_train, g_test, cfg, 1.0,
                                               np.random.default_rng(3))
    noise = NoiseConfig(epsilon=1.0)
    check = np.random.default_rng(3)
    first = sample_noise(noise, 2, rng=check, size=10)
    second = sample_noise(noise, 2, rng=check, size=4)
    assert np.array_equal(noisy_train, silent_train + first)
    assert np.array_equal(noisy_test, silent_test + second)
    # chain "none" releases the rows as they are
    plain = release_features(g_train, g_test, ExperimentConfig(), 1.0, None)
    assert plain[0] is g_train and plain[1] is g_test


def test_release_post_filters_after_perturbing():
    rng = np.random.default_rng(6)
    U = rng.standard_normal((4, 2))
    filt = linear_filter(U)
    X_train = rng.standard_normal((8, 4))
    X_test = rng.standard_normal((3, 4))
    cfg = ExperimentConfig(chain="post", bound_kind="squash", bound_scale=0.7)
    noise_rng = np.random.default_rng(11)
    check = copy.deepcopy(noise_rng)
    released = release_features(X_train, X_test, cfg, 0.5, noise_rng)
    noise = NoiseConfig(epsilon=2.0)
    for rows, out in zip((X_train, X_test), released):
        expected = bound(BoundKind.SQUASH, 0.7, rows) + sample_noise(
            noise, 4, rng=check, size=rows.shape[0])
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_allclose(apply_filter(filt, out), expected @ U)


@pytest.mark.parametrize("chain", ["pre", "post"])
@pytest.mark.parametrize("einv", [0.0, 0.5])
def test_release_matches_the_out_of_place_sum(chain, einv):
    # the release adds its noise in place into the bounded rows; the bits
    # are those of bound(...) + sample_noise(...) from the same stream
    rng = np.random.default_rng(21)
    train_rows = 3.0 * rng.standard_normal((40, 7))
    test_rows = 3.0 * rng.standard_normal((9, 7))
    train_copy, test_copy = train_rows.copy(), test_rows.copy()
    cfg = ExperimentConfig(chain=chain, epsilon_inverses=(einv,))
    noise_rng = np.random.default_rng(4)
    check = copy.deepcopy(noise_rng)
    released = release_features(train_rows, test_rows, cfg, einv, noise_rng)
    scale = bound_scale_from_norms(np.linalg.norm(train_rows, axis=1))
    noise = NoiseConfig.from_epsilon_inverse(einv)
    for rows, out in zip((train_rows, test_rows), released):
        expected = bound(cfg.bound_kind, scale, rows) + sample_noise(
            noise, 7, rng=check, size=rows.shape[0])
        assert out.tobytes() == expected.tobytes()
    # the inputs are left as they were
    assert train_rows.tobytes() == train_copy.tobytes()
    assert test_rows.tobytes() == test_copy.tobytes()


def test_diameters_by_enumeration():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [5.0, 0.0]])
    y = np.array([1, 1, 2, 2])
    z = np.array([1, 2, 1, 2])
    report = compute_diameters(X, y, z)
    # cross-subject pairs share z but differ in y: (0,2) dist 3, (1,3) dist 4
    assert report.cross_subject == pytest.approx(4.0)
    assert report.cross_pair == (1, 3)
    # within-subject pairs share y but differ in z: (0,1) dist 1, (2,3) sqrt 34
    assert report.within_subject == pytest.approx(math.sqrt(34.0))
    assert report.within_pair == (2, 3)
    assert report.cross_attained and report.within_attained


def test_diameters_with_no_qualifying_pairs():
    X = np.eye(3)
    report = compute_diameters(X, np.array([1, 2, 3]), np.array([1, 2, 3]))
    assert report.cross_subject == 0.0 and not report.cross_attained
    assert report.within_subject == 0.0 and not report.within_attained
    with pytest.raises(ShapeError):
        compute_diameters(X, np.array([1, 2]), np.array([1, 2, 3]))
    with pytest.raises(ShapeError):  # rows without features
        compute_diameters(np.empty((3, 0)), np.array([1, 2, 3]), np.ones(3))


def test_brute_force_diameter_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(4, 25))
        X = rng.standard_normal((n, 3))
        y = rng.integers(1, 4, size=n)
        z = rng.integers(1, 3, size=n)
        report = compute_diameters(X, y, z)
        cross = 0.0
        within = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                dist = float(np.linalg.norm(X[i] - X[j]))
                if y[i] != y[j] and z[i] == z[j]:
                    cross = max(cross, dist)
                if y[i] == y[j] and z[i] != z[j]:
                    within = max(within, dist)
        assert report.cross_subject == pytest.approx(cross, abs=1e-9)
        assert report.within_subject == pytest.approx(within, abs=1e-9)


def _grid_case(rng, n, dim):
    """Features on a coarse dyadic grid: every distance is computed exactly
    in any summation order, and many pairs tie at the maximum."""
    X = rng.integers(-2, 3, size=(n, dim)) / 4.0
    y = 7 * rng.integers(1, int(rng.integers(1, 5)) + 1, size=n)
    z = rng.integers(1, int(rng.integers(1, 4)) + 1, size=n) - 3
    return X, y, z


@pytest.mark.parametrize("block", [1 << 20, 9, 2])
def test_diameters_match_dense_reference_on_exact_grids(monkeypatch, block):
    # block 1 << 20 scans each group (under 90 rows) in one block, as the
    # default does; 9 and 2 force two-row blocks, so every group spans many
    # blocks
    monkeypatch.setattr(dp_mech, "_SCAN_BLOCK", block)
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 90))
        X, y, z = _grid_case(rng, n, int(rng.integers(1, 40)))
        assert compute_diameters(X, y, z) == dense_diameters(X, y, z)


def test_diameters_tie_break_is_smallest_pair_in_row_major_order():
    # every cross pair (same z, different y) is at distance 1
    X = np.array([[0.0], [1.0], [0.0], [1.0], [0.0]])
    y = np.array([5, 3, 5, 3, 9])
    z = np.array([2, 2, 2, 2, 8])
    report = compute_diameters(X, y, z)
    assert report.cross_pair == (0, 1) and report.cross_subject == 1.0
    assert report.within_pair is None and not report.within_attained
    assert report == dense_diameters(X, y, z)


def test_diameters_singletons_and_missing_pairs_match_reference(monkeypatch):
    monkeypatch.setattr(dp_mech, "_SCAN_BLOCK", 2)
    rng = np.random.default_rng(22)
    X = rng.integers(-3, 4, size=(12, 3)).astype(float)
    cases = [
        (np.arange(12), np.arange(12)),            # every group a singleton
        (np.ones(12, int), np.ones(12, int)),      # one group, no differing label
        (np.arange(12) % 5 * 10, np.arange(12) // 5 + 100),
        (np.array([4] * 11 + [1]), np.array([6] * 11 + [2])),
    ]
    for y, z in cases:
        assert compute_diameters(X, y, z) == dense_diameters(X, y, z)
    single = compute_diameters(X[:1], [1], [1])
    assert single == dense_diameters(X[:1], [1], [1])
    assert not single.cross_attained and not single.within_attained


def test_diameters_match_dense_reference_on_random_floats(monkeypatch):
    """Same pairs; values agree to the rounding of one dot product.

    BLAS rounds an entry of a matrix product differently depending on where
    it falls in the kernel's tiling (the dense reference's own X @ X.T and
    X @ X.T.copy() disagree in the last bit), so a blockwise scan matches the
    dense one bit for bit only where the arithmetic is exact (see the grid
    test above).
    """
    rng = np.random.default_rng(23)
    eps = np.finfo(np.float64).eps
    for block in (dp_mech._SCAN_BLOCK, 64):
        monkeypatch.setattr(dp_mech, "_SCAN_BLOCK", block)
        for _ in range(30):
            n = int(rng.integers(2, 200))
            dim = int(rng.integers(1, 60))
            X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
            y = rng.integers(1, 4, size=n)
            z = rng.integers(1, 3, size=n)
            got = compute_diameters(X, y, z)
            want = dense_diameters(X, y, z)
            assert got.cross_pair == want.cross_pair
            assert got.within_pair == want.within_pair
            assert got.cross_attained == want.cross_attained
            assert got.within_attained == want.within_attained
            sq_norms = (X * X).sum(axis=1)
            for value, ref, pair in ((got.cross_subject, want.cross_subject, got.cross_pair),
                                     (got.within_subject, want.within_subject, got.within_pair)):
                if pair is None:
                    assert value == ref == 0.0
                    continue
                limit = 4 * dim * eps * (sq_norms[pair[0]] + sq_norms[pair[1]])
                assert abs(value * value - ref * ref) <= limit


@pytest.mark.parametrize("block", [dp_mech._SCAN_BLOCK, 9, 2])
def test_pruned_scan_keeps_the_tie_break_on_hypercube_vertices(monkeypatch, block):
    # every vertex of {0, 1/2}^dim has an antipode at the largest distance,
    # and rows are shuffled so the farthest-first order is not index order
    monkeypatch.setattr(dp_mech, "_SCAN_BLOCK", block)
    rng = np.random.default_rng(24)
    for dim in (1, 2, 3, 5):
        corners = (np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1
        X = np.repeat(corners / 2.0, 2, axis=0)
        X = X[rng.permutation(len(X))]
        y = rng.integers(1, 3, size=len(X))
        z = rng.integers(1, 3, size=len(X))
        report = compute_diameters(X, y, z)
        assert report == dense_diameters(X, y, z)


@pytest.mark.parametrize("block", [dp_mech._SCAN_BLOCK, 9, 2])
def test_pruned_scan_matches_dense_reference_on_clustered_data(monkeypatch, block):
    # tight dyadic clusters around far-apart integer centres, plus a few
    # outliers: distances are exact, and most rows are pruned
    monkeypatch.setattr(dp_mech, "_SCAN_BLOCK", block)
    rng = np.random.default_rng(25)
    for _ in range(25):
        n, dim = int(rng.integers(2, 150)), int(rng.integers(1, 12))
        centres = rng.integers(-16, 17, size=(int(rng.integers(1, 5)), dim))
        X = centres[rng.integers(0, len(centres), size=n)] * 4.0
        X += rng.integers(-2, 3, size=(n, dim)) / 8.0
        outliers = rng.random(n) < 0.03
        X[outliers] *= 3.0
        y = rng.integers(1, int(rng.integers(2, 5)) + 1, size=n)
        z = rng.integers(1, int(rng.integers(1, 4)) + 1, size=n)
        assert compute_diameters(X, y, z) == dense_diameters(X, y, z)


@pytest.mark.parametrize("block", [dp_mech._SCAN_BLOCK, 9, 2])
def test_pruned_scan_matches_dense_reference_on_one_group(monkeypatch, block):
    # one z group (cross pairs only) and one y group (within pairs only)
    monkeypatch.setattr(dp_mech, "_SCAN_BLOCK", block)
    rng = np.random.default_rng(26)
    for _ in range(20):
        n, dim = int(rng.integers(2, 120)), int(rng.integers(1, 30))
        X = rng.integers(-4, 5, size=(n, dim)) / 4.0
        labels = rng.integers(1, int(rng.integers(1, 4)) + 1, size=n)
        one = np.full(n, 5)
        for y, z in ((labels, one), (one, labels)):
            assert compute_diameters(X, y, z) == dense_diameters(X, y, z)


def test_pruned_scan_ties_at_zero_distance_across_groups():
    # every row at one point: the z = 1 group, scanned first, finds (4, 5)
    # at distance 0, and the z = 2 group's (0, 1) ties it and wins
    X = np.zeros((6, 2))
    y = np.array([1, 2, 1, 1, 1, 2])
    z = np.array([2, 2, 3, 3, 1, 1])
    report = compute_diameters(X, y, z)
    assert report.cross_pair == (0, 1) and report.cross_subject == 0.0
    assert report == dense_diameters(X, y, z)


def test_pruned_scan_margin_covers_rounding_far_from_the_origin():
    # one feature 1e6 from the origin: the computed squared distances are
    # rounding noise (~1e-4) far above the true ones (~1e-6), and with one
    # feature every kernel rounds each entry alike, so the result is exact
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.integers(10, 80))
        X = 1e6 + rng.uniform(-1e-3, 1e-3, size=(n, 1))
        y = rng.integers(1, 3, size=n)
        z = rng.integers(1, 3, size=n)
        assert compute_diameters(X, y, z) == dense_diameters(X, y, z)


def test_diameters_reject_non_finite_features():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [5.0, 0.0]])
    y = np.array([1, 1, 2, 2])
    z = np.array([1, 2, 1, 2])
    for bad in (np.nan, np.inf, -np.inf):
        X_bad = X.copy()
        X_bad[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            compute_diameters(X_bad, y, z)


def test_diameter_scan_memory_is_bounded():
    data = gen_synthetic(dim=50, n_subjects=20, n_target_classes=4,
                         per_subject=200, seed=0)
    tracemalloc.start()
    try:
        report = compute_diameters(data.X, data.y, data.z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cross_attained and report.within_attained
    # the dense N x N scan peaks at about 300 MB on this input, and the
    # unpruned scan in blocks of 2**20 entries at about 24 MB
    assert peak < 8 * 2**20
