"""End-to-end acceptance checks.

One test per criterion, in order; each prints a single [PASS]/[FAIL] line
with the measured numbers before asserting.  The heavyweight experiment
runs live in module fixtures so the monotone-descent check can sweep the
iteration records of every training run this module performs.
"""

import time

import numpy as np
import pytest
from scipy import stats

from oracles import (central_diff, compute_moments, least_squares_minimax,
                     rel_error, trace_objectives)
from privfilter.data import Dataset, gen_synthetic
from privfilter.dp_mech import BoundKind, NoiseConfig, bound, log_density, sample_noise
from privfilter.filters import (FilterKind, apply_filter, filter_param_grad,
                                init_filter)
from privfilter.harness import ExperimentConfig, run_experiment
from privfilter.heads import (ReconstructionHead, SoftmaxHead, one_hot,
                              reconstruction_risk, softmax_risk)
from privfilter.minimax_opt import (classification_tradeoff,
                                    evaluate_objective, joint_objective,
                                    least_squares_tradeoff, train_minimax)

# (TrainReport, inner_tol) for every training run below; criterion 3
# checks monotone descent across all of them.
_TRAINING_RUNS = []


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# ---------------------------------------------------------------- fixtures

def _synthetic_separation_data():
    return gen_synthetic(dim=20, n_subjects=8, n_target_classes=2,
                         per_subject=40, angle_deg=90.0, noise=0.5, seed=0)


def _separation_tradeoff():
    return classification_tradeoff(10.0, 1e-6, max_iter=150)


@pytest.fixture(scope="module")
def c2_results():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    rels = []
    margins = []
    for i in range(10):
        d = (1, 2, 3)[i % 3]
        rho = (0.5, 1.0, 10.0)[(i // 3) % 3]
        n, dim, k_priv, k_tgt = 80, 10, 3, 2
        X = rng.standard_normal((n, dim))
        y = 1 + np.argmax(X @ rng.standard_normal((dim, k_priv))
                          + 0.5 * rng.standard_normal((n, k_priv)), axis=1)
        z = 1 + np.argmax(X @ rng.standard_normal((dim, k_tgt))
                          + 0.5 * rng.standard_normal((n, k_tgt)), axis=1)
        y[:k_priv] = np.arange(1, k_priv + 1)
        z[:k_tgt] = np.arange(1, k_tgt + 1)
        data = Dataset(X, y, y.astype(np.int64), z)
        m = compute_moments(X, one_hot(y, k_priv), one_hot(z, k_tgt), ridge=0.0)
        _, phi_min = least_squares_minimax(m, rho, d)

        cfg = least_squares_tradeoff(rho, 0.0, max_iter=500,
                                     convergence_tol=1e-9)
        report = train_minimax(init_filter(FilterKind.LINEAR, dim, d,
                                           seed=100 + i), data, cfg)
        _TRAINING_RUNS.append((report, cfg.inner_tol))
        # with bias-free least-squares heads on one-hot labels the trained
        # objective sits a constant (rho - 1) above the trace objective
        phi_attained = report.final_objective - (rho - 1.0)
        rels.append(abs(phi_attained - phi_min) / abs(phi_min))

        # 10^4 random orthonormal U, drawn as one stack: the same stream
        # and the same Q as one random_orthonormal call per U
        projections, _ = np.linalg.qr(rng.standard_normal((10_000, dim, d)))
        worst = float(trace_objectives(m, rho, projections).min())
        margins.append(worst - phi_min)
    return {"rels": rels, "margins": margins,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def c4_env():
    data = _synthetic_separation_data()
    cfg = ExperimentConfig(filters=("raw", "pca", "minimax-linear"),
                           dims=(5,), epsilon_inverses=(0.0,), chain="none",
                           trials=10, master_seed=0,
                           tradeoff=_separation_tradeoff(), lds_init=True)
    log = []
    start = time.perf_counter()
    report = run_experiment(cfg, data, training_log=log)
    elapsed = time.perf_counter() - start
    for run in log:
        _TRAINING_RUNS.append((run, cfg.tradeoff.inner_tol))
    return {"data": data, "cfg": cfg, "report": report, "elapsed": elapsed}


@pytest.fixture(scope="module")
def c7_env():
    data = _synthetic_separation_data()
    cfg = ExperimentConfig(filters=("minimax-linear", "pca"), dims=(5,),
                           epsilon_inverses=(0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0),
                           chain="pre", bound_kind="clip", trials=10,
                           master_seed=0, tradeoff=_separation_tradeoff(),
                           lds_init=True)
    log = []
    start = time.perf_counter()
    report = run_experiment(cfg, data, training_log=log)
    elapsed = time.perf_counter() - start
    for run in log:
        _TRAINING_RUNS.append((run, cfg.tradeoff.inner_tol))
    return {"cfg": cfg, "report": report, "elapsed": elapsed}


@pytest.fixture(scope="module")
def c8_results():
    base = gen_synthetic(dim=8, n_subjects=4, n_target_classes=2,
                         per_subject=20, noise=0.8, seed=3)
    data = Dataset(base.X, base.y, base.subject_ids, z=base.y)
    gaps = []
    for rho in (0.5, 2.0):
        cfg = classification_tradeoff(rho, 1e-4, max_iter=6, inner_tol=1e-9,
                                      inner_max_iter=2000)
        state = init_filter(FilterKind.LINEAR, 8, 3, seed=4)
        objective, privacy_value, _, _ = joint_objective(state, data, cfg)
        gaps.append((rho, abs(objective - (1 - rho) * privacy_value),
                     cfg.inner_tol))
        report = train_minimax(state, data, cfg)
        _TRAINING_RUNS.append((report, cfg.inner_tol))
        for record in report.records:
            gaps.append((rho,
                         abs(record.objective
                             - (1 - rho) * record.privacy_value),
                         cfg.inner_tol))
    return gaps


@pytest.fixture(scope="module")
def c9_results():
    cfg = least_squares_tradeoff(2.0, 0.0, max_iter=12)
    gaps = {250: [], 4000: []}
    for n, per_subject in ((250, 50), (4000, 800)):
        for seed in range(10):
            train = gen_synthetic(dim=10, n_subjects=5, n_target_classes=2,
                                  per_subject=per_subject, noise=1.0,
                                  seed=seed)
            test = gen_synthetic(dim=10, n_subjects=5, n_target_classes=2,
                                 per_subject=per_subject, noise=1.0,
                                 seed=1000 + seed)
            report = train_minimax(init_filter(FilterKind.LINEAR, 10, 3,
                                               seed=seed), train, cfg)
            _TRAINING_RUNS.append((report, cfg.inner_tol))
            state = report.final_state
            train_obj, _, _, fitted = joint_objective(state, train, cfg)
            test_obj, _, _ = evaluate_objective(state, fitted, test, cfg)
            gaps[n].append(abs(test_obj - train_obj))
    return {n: float(np.mean(vals)) for n, vals in gaps.items()}


# ------------------------------------------------------------------ tests

def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(1)
    start = time.perf_counter()

    worst_softmax = 0.0
    for _ in range(20):
        n, d, k = int(rng.integers(15, 40)), int(rng.integers(2, 13)), int(rng.integers(2, 6))
        G = rng.standard_normal((n, d))
        labels = rng.integers(1, k + 1, size=n)
        labels[:k] = np.arange(1, k + 1)
        head = SoftmaxHead(0.4 * rng.standard_normal((k, d)),
                           reg_lambda=float(rng.choice([0.0, 0.01])))
        _, grad_head, grad_features = softmax_risk(head, G, labels)
        fd_head = central_diff(
            lambda p: softmax_risk(SoftmaxHead(p.reshape(k, d),
                                               head.reg_lambda), G, labels)[0],
            head.weights.ravel())
        fd_feat = central_diff(
            lambda p: softmax_risk(head, p.reshape(n, d), labels)[0],
            G.ravel())
        worst_softmax = max(worst_softmax,
                            rel_error(grad_head.ravel(), fd_head),
                            rel_error(grad_features.ravel(), fd_feat))

    worst_recon = 0.0
    for _ in range(20):
        n, d, t = int(rng.integers(10, 30)), int(rng.integers(2, 13)), int(rng.integers(1, 5))
        G = rng.standard_normal((n, d))
        T = rng.standard_normal((n, t))
        head = ReconstructionHead(rng.standard_normal((d, t)),
                                  rng.standard_normal(t),
                                  reg_lambda=float(rng.choice([0.0, 0.05])))
        _, (grad_w, grad_b), grad_features = reconstruction_risk(head, G, T)
        packed = np.concatenate([head.weights.ravel(), head.bias])

        def risk_of(p):
            h = ReconstructionHead(p[:d * t].reshape(d, t), p[d * t:],
                                   head.reg_lambda)
            return reconstruction_risk(h, G, T)[0]

        fd = central_diff(risk_of, packed)
        fd_feat = central_diff(
            lambda p: reconstruction_risk(head, p.reshape(n, d), T)[0],
            G.ravel())
        worst_recon = max(worst_recon,
                          rel_error(np.concatenate([grad_w.ravel(), grad_b]), fd),
                          rel_error(grad_features.ravel(), fd_feat))

    worst_filter = {}
    for kind, args in ((FilterKind.LINEAR, ()),
                       (FilterKind.TWO_LAYER_SIGMOID, ((6, 5),))):
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(8, 25))
            big_d = int(rng.integers(3, 13))
            small_d = int(rng.integers(1, 5))
            state = init_filter(kind, big_d, small_d, *args, seed=rng)
            X = rng.standard_normal((n, big_d))
            upstream = rng.standard_normal((n, small_d))
            grad = filter_param_grad(state, X, upstream)
            fd = central_diff(
                lambda p: float((upstream
                                 * apply_filter(state.with_params(p), X)).sum()),
                state.params)
            worst = max(worst, rel_error(grad, fd))
        worst_filter[kind.value] = worst

    elapsed = time.perf_counter() - start
    worst_all = max(worst_softmax, worst_recon, *worst_filter.values())
    ok = worst_all <= 1e-5 and elapsed < 10.0
    assert _report(1, ok,
                   f"max rel err softmax {worst_softmax:.2e}, "
                   f"reconstruction {worst_recon:.2e}, "
                   f"linear {worst_filter['linear']:.2e}, "
                   f"mlp {worst_filter['two_layer_sigmoid']:.2e} "
                   f"(limit 1e-5); {elapsed:.1f}s (limit 10s)")


def test_criterion_2_eigen_oracle(c2_results):
    worst_rel = max(c2_results["rels"])
    worst_margin = min(c2_results["margins"])
    elapsed = c2_results["elapsed"]
    ok = worst_rel <= 0.01 and worst_margin >= -1e-9 and elapsed < 60.0
    assert _report(2, ok,
                   f"worst relative gap to the eigen optimum {worst_rel:.2e} "
                   f"(limit 1e-2); closest of 10x10^4 random orthonormal "
                   f"projections sits {worst_margin:+.3f} above the optimum; "
                   f"{elapsed:.1f}s (limit 60s)")


def test_criterion_3_monotone_descent(c2_results, c4_env, c7_env, c8_results,
                                      c9_results):
    total_steps = 0
    worst_rise = -np.inf
    violations = 0
    for report, inner_tol in _TRAINING_RUNS:
        slack = 10.0 * inner_tol
        for prev, cur in zip(report.records, report.records[1:]):
            total_steps += 1
            rise = cur.objective - prev.objective
            worst_rise = max(worst_rise, rise)
            if rise > slack:
                violations += 1
    ok = violations == 0 and total_steps > 0
    assert _report(3, ok,
                   f"{len(_TRAINING_RUNS)} training runs, {total_steps} "
                   f"steps, worst objective rise {worst_rise:.2e} "
                   f"(slack 10*inner_tol), {violations} violations")


def test_criterion_4_synthetic_separation(c4_env):
    report = c4_env["report"]
    errors = sum(1 for r in report.records if r["error"] is not None)
    raw_priv = report.mean_metric("raw", "private_accuracy")
    raw_tgt = report.mean_metric("raw", "target_accuracy")
    mm_priv = report.mean_metric("minimax-linear", "private_accuracy")
    mm_tgt = report.mean_metric("minimax-linear", "target_accuracy")
    pca_priv = report.mean_metric("pca", "private_accuracy")
    elapsed = c4_env["elapsed"]
    chance = 1.0 / 8.0
    ok = (errors == 0 and raw_priv >= 0.8 and raw_tgt >= 0.9
          and mm_priv <= chance + 0.05 and mm_tgt >= 0.85
          and pca_priv >= chance + 0.20 and elapsed < 300.0)
    assert _report(4, ok,
                   f"raw priv {raw_priv:.3f} (>=0.8) tgt {raw_tgt:.3f} "
                   f"(>=0.9); minimax priv {mm_priv:.3f} (<=0.175) "
                   f"tgt {mm_tgt:.3f} (>=0.85); pca priv {pca_priv:.3f} "
                   f"(>=0.325); {errors} errors; {elapsed:.0f}s (limit 300s)")


def test_criterion_5_dp_ratio_and_bounding():
    rng = np.random.default_rng(5)
    sensitivity = 2.0
    worst_fraction = 0.0
    triples = 0
    for epsilon in (0.1, 1.0, 10.0):
        cfg = NoiseConfig(epsilon=epsilon)
        for dim in (1, 2, 3, 5, 8, 20):
            n = 1700
            triples += n
            c1 = 2.0 * rng.standard_normal((n, dim))
            direction = rng.standard_normal((n, dim))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radius = rng.uniform(0.0, sensitivity * (1.0 - 1e-4), size=n)
            c2 = c1 + direction * radius[:, None]
            t = 3.0 * rng.standard_normal((n, dim))
            gaps = log_density(t - c1, cfg) - log_density(t - c2, cfg)
            worst_fraction = max(worst_fraction, float(gaps.max()) / epsilon)

    bound_ok = True
    for kind in BoundKind:
        for magnitude in 10.0 ** np.linspace(-12, 12, 25):
            h = rng.standard_normal((8, 4))
            h *= magnitude / np.linalg.norm(h, axis=1, keepdims=True)
            out = bound(kind, 1.0, h)
            bound_ok &= bool(np.linalg.norm(out, axis=1).max() <= 1.0)

    ok = worst_fraction <= 1.0 and bound_ok
    assert _report(5, ok,
                   f"worst density log-ratio over {triples} triples x 3 "
                   f"epsilons = {worst_fraction:.6f} of epsilon (limit 1, "
                   f"exact); unit-ball bound over norms 1e-12..1e12 "
                   f"{'holds' if bound_ok else 'violated'}")


def test_criterion_6_noise_sampler():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    epsilon, sensitivity = 0.8, 2.0
    cfg = NoiseConfig(epsilon=epsilon)
    p_values = {}
    for dim in (1, 2, 5, 20):
        draws = sample_noise(cfg, dim, rng=rng, size=100_000)
        radii = np.linalg.norm(draws, axis=1)
        p_values[dim] = stats.kstest(
            radii, stats.gamma(a=dim, scale=sensitivity / epsilon).cdf).pvalue
    silent = sample_noise(NoiseConfig(epsilon=None), 5, rng=rng, size=1000)
    zeros_ok = not silent.any()
    elapsed = time.perf_counter() - start
    ok = all(p > 0.01 for p in p_values.values()) and zeros_ok and elapsed < 30.0
    detail = ", ".join(f"d={d}: p={p:.3f}" for d, p in p_values.items())
    assert _report(6, ok,
                   f"radius KS vs Gamma(d, S/eps): {detail} (limit 0.01); "
                   f"no-noise draws all zero: {zeros_ok}; "
                   f"{elapsed:.1f}s (limit 30s)")


def test_criterion_7_noisy_sweep_shape(c7_env):
    report = c7_env["report"]
    cfg = c7_env["cfg"]
    errors = sum(1 for r in report.records if r["error"] is not None)
    chance = 1.0 / 8.0
    mm_priv = [report.mean_metric("minimax-linear", "private_accuracy",
                                  epsilon_inverse=e)
               for e in cfg.epsilon_inverses]
    pca_priv = [report.mean_metric("pca", "private_accuracy",
                                   epsilon_inverse=e)
                for e in cfg.epsilon_inverses]
    pca_tgt = [report.mean_metric("pca", "target_accuracy",
                                  epsilon_inverse=e)
               for e in cfg.epsilon_inverses]
    elapsed = c7_env["elapsed"]

    minimax_flat = max(mm_priv) <= chance + 0.05
    pca_exposed = pca_priv[0] >= chance + 0.20
    pca_decays = all(b <= a + 0.02 for a, b in zip(pca_priv, pca_priv[1:]))
    pca_reaches_chance = pca_priv[-1] <= chance + 0.05
    target_collapses = pca_tgt[0] >= 0.9 and pca_tgt[-1] <= 0.6
    ok = (errors == 0 and minimax_flat and pca_exposed and pca_decays
          and pca_reaches_chance and target_collapses and elapsed < 900.0)
    assert _report(7, ok,
                   f"minimax priv max {max(mm_priv):.3f} (<=0.175 at every "
                   f"eps_inv); pca priv {pca_priv[0]:.3f}->{pca_priv[-1]:.3f} "
                   f"(starts >=0.325, decays to <=0.175) with target "
                   f"{pca_tgt[0]:.3f}->{pca_tgt[-1]:.3f} collapsing; "
                   f"{errors} errors; {elapsed:.0f}s (limit 900s)")


def test_criterion_8_pathological_identity(c8_results):
    worst = max(gap / tol for _, gap, tol in c8_results)
    ok = all(gap <= 2.0 * tol for _, gap, tol in c8_results)
    assert _report(8, ok,
                   f"z=y identity |Phi - (1-rho) Phi_priv| over "
                   f"{len(c8_results)} checkpoints (rho in {{0.5, 2}}): "
                   f"worst {worst:.2e} x inner_tol (limit 2)")


def test_criterion_9_generalization_gap(c9_results):
    small, large = c9_results[250], c9_results[4000]
    ok = large < small
    assert _report(9, ok,
                   f"mean train/test objective gap {large:.4f} at N=4000 vs "
                   f"{small:.4f} at N=250 over 10 seeds (must shrink)")


def test_criterion_10_determinism(c4_env):
    rerun = run_experiment(c4_env["cfg"], c4_env["data"])
    ok = rerun.scientific_payload() == c4_env["report"].scientific_payload()
    assert _report(10, ok,
                   f"criterion-4 rerun with master seed "
                   f"{c4_env['cfg'].master_seed} reproduced all "
                   f"{len(rerun.records)} records "
                   f"{'bit-for-bit' if ok else 'WITH DIFFERENCES'}")
