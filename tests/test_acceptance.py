"""End-to-end acceptance checks.

Each test covers one release gate and prints a single verdict line
(run with ``pytest -s`` to see them on success).  The gates rely on
closed-form oracles, distributional properties, and seeded statistical
checks; every random draw is seeded, so verdicts are reproducible.
"""

import json
import time
import warnings

import numpy as np

from tramsurv.basis import LogTimeScaler
from tramsurv.cli import main, write_dataset_csv
from tramsurv.errors import DegenerateIntervalWarning
from tramsurv.core import (
    FittedModel,
    ModelSpec,
    Observation,
    Parameterization,
    SurvivalDataset,
)
from tramsurv.feature import ExtractorSpec, identity_params, init_params, split_params
from tramsurv.fit import EnsembleModel, ModelState, TrainConfig, fit, fit_ensemble, nll_batch
from tramsurv.metrics import crps, evaluate
from tramsurv.numerics import softplus, softplus_inv
from tramsurv.sample import SynthConfig, generate_semisynthetic, max_observed_time
from tramsurv.target import TargetFamily
from tramsurv.transform import conditional_distribution, head_size, init_head


def _verdict(index, name, ok, detail):
    print(f"acceptance {index}/9 {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared builders


def _linear_shift_model(family, a, b, w, scaler=None):
    """Hand-assembled shift model with identity features and slope b."""
    w = np.asarray(w, dtype=float)
    spec = ModelSpec(
        family=family, parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=w.size, output_dim=w.size),
    )
    return FittedModel(
        spec=spec, scaler=scaler if scaler is not None else LogTimeScaler(0.0, 1.0),
        head_params=np.concatenate([[a, softplus_inv(b)], w]),
        extractor_params=identity_params(spec.extractor),
        train_nll=0.0, validation_nll=0.0,
    )


def _spec_for(parameterization, family, order=3, p=2):
    if parameterization == Parameterization.BASELINE:
        extractor = None
    else:
        d = order + 1 if parameterization == Parameterization.BERNSTEIN_FLEXIBLE else 2
        extractor = ExtractorSpec(input_dim=p, hidden_dims=(4,), output_dim=d)
    return ModelSpec(
        family=family, parameterization=parameterization, bernstein_order=order,
        extractor=extractor,
    )


def _random_batch(rng, p):
    """Small batch covering all four censoring kinds."""
    obs = []
    for kind in range(8):
        x = rng.normal(size=p)
        t = float(rng.uniform(0.3, 4.0))
        if kind % 4 == 0:
            obs.append(Observation.exact(t, x))
        elif kind % 4 == 1:
            obs.append(Observation.right_censored(t, x))
        elif kind % 4 == 2:
            obs.append(Observation.left_censored(t, x))
        else:
            obs.append(Observation.interval(t, t * float(rng.uniform(1.3, 2.0)), x))
    return obs


def _exponential_dataset(rng, n, w_true=(0.5, -0.3), x_range=1.0):
    """Event times exponential with rate exp(x @ w); censoring times are
    drawn independently of the events so the likelihood stays unbiased."""
    w_true = np.asarray(w_true)
    obs = []
    for _ in range(n):
        x = rng.uniform(-x_range, x_range, size=w_true.size)
        rate = float(np.exp(x @ w_true))
        t = max(float(rng.exponential(1.0 / rate)), 1e-4)
        c = max(float(rng.exponential(1.0 / 0.18)), 1e-4)
        if c < t:
            obs.append(Observation.right_censored(c, x))
        else:
            obs.append(Observation.exact(t, x))
    return SurvivalDataset.from_observations(obs)


def _mean_nll(model, dataset):
    state = ModelState(model.spec, model.scaler, model.head_params, model.extractor_params)
    return nll_batch(state, dataset)[0] / dataset.n


# ---------------------------------------------------------------------------
# 1. Gradient correctness


def _gradient_max_rel_err(spec, rng, draws):
    """Worst relative disagreement between the analytic gradient and central
    differences.  An occasional draw puts an interval so deep in a tail
    that its mass clamps; the clamp zeroes both the analytic gradient and
    the difference quotient, so such draws stay comparable and the warning
    is suppressed as noise."""
    scaler = LogTimeScaler(np.log(0.2), np.log(5.0))
    p = spec.extractor.input_dim if spec.extractor is not None else 1
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateIntervalWarning)
        for _ in range(draws):
            head = init_head(spec) + 0.4 * rng.normal(size=head_size(spec))
            ext = (
                init_params(spec.extractor, int(rng.integers(1 << 32)))
                + 0.3 * rng.normal(size=spec.extractor.param_count)
                if spec.extractor is not None
                else np.zeros(0)
            )
            state = ModelState(spec, scaler, head, ext)
            batch = SurvivalDataset.from_observations(_random_batch(rng, p))
            _, grad = nll_batch(state, batch)
            theta = np.concatenate([head, ext])
            n_head = head.size

            def nll_at(vec):
                st = ModelState(spec, scaler, vec[:n_head], vec[n_head:])
                return nll_batch(st, batch)[0]

            for i in range(theta.size):
                step = 1e-6 * (1.0 + abs(theta[i]))
                hi = theta.copy()
                hi[i] += step
                lo = theta.copy()
                lo[i] -= step
                fd = (nll_at(hi) - nll_at(lo)) / (2 * step)
                denom = max(1.0, abs(fd), abs(grad[i]))
                worst = max(worst, abs(grad[i] - fd) / denom)
    return worst


def test_gradients_match_finite_differences():
    """Analytic likelihood gradients agree with central differences for
    every parameterization and target family, censored kinds included."""
    start = time.perf_counter()
    worst = 0.0
    for i, parameterization in enumerate(Parameterization):
        for j, family in enumerate(TargetFamily):
            rng = np.random.default_rng(100 + 10 * i + j)
            spec = _spec_for(parameterization, family)
            worst = max(worst, _gradient_max_rel_err(spec, rng, draws=20))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 120.0
    _verdict(1, "gradient-check", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Closed-form distribution equivalence


def test_shift_models_match_closed_form_cdfs():
    a, b = 0.3, 1.7
    w = np.array([0.5, -0.4])
    x = np.array([0.8, 1.1])
    shift = a + float(x @ w)
    scale = np.exp(-shift / b)
    t = np.geomspace(0.01, 40.0, 1000)

    mev = conditional_distribution(_linear_shift_model(TargetFamily.MEV, a, b, w), x)
    err_weibull = float(np.max(np.abs(mev.cdf(t) - (1.0 - np.exp(-((t / scale) ** b))))))
    logi = conditional_distribution(_linear_shift_model(TargetFamily.LOGISTIC, a, b, w), x)
    err_loglogistic = float(np.max(np.abs(logi.cdf(t) - 1.0 / (1.0 + (t / scale) ** (-b)))))
    ok = err_weibull <= 1e-10 and err_loglogistic <= 1e-10
    _verdict(
        2, "closed-form-cdf", ok,
        f"weibull {err_weibull:.1e}, log-logistic {err_loglogistic:.1e}",
    )


# ---------------------------------------------------------------------------
# 3. Coefficient recovery


def test_recovers_generating_coefficients():
    """Fits on n=2000 exponential draws land within 0.1 of the generator."""
    w_true = np.array([0.5, -0.3])
    spec = ModelSpec(
        family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=2, output_dim=1),
    )
    worst = 0.0
    slowest = 0.0
    for seed in range(10):
        ds = _exponential_dataset(np.random.default_rng(1000 + seed), 2000, w_true, x_range=2.0)
        cfg = TrainConfig(
            epochs=200, batch_size=256, lr_head=0.05, lr_extractor=0.05,
            early_stopping_patience=30, validation_fraction=0.3, seed=seed,
        )
        t0 = time.perf_counter()
        model = fit(ds, spec, cfg)
        slowest = max(slowest, time.perf_counter() - t0)
        w_head = model.head_params[2:]
        weights, bias = split_params(spec.extractor, model.extractor_params)[0]
        a_eff = float(model.head_params[0] + bias @ w_head)
        b_eff = float(softplus(model.head_params[1]))
        w_eff = weights @ w_head
        dev = max(abs(a_eff), abs(b_eff - 1.0), float(np.max(np.abs(w_eff - w_true))))
        worst = max(worst, dev)
    ok = worst <= 0.1 and slowest < 60.0
    _verdict(3, "coefficient-recovery", ok, f"max |error| {worst:.3f}, slowest fit {slowest:.1f}s")


# ---------------------------------------------------------------------------
# 4. Held-out likelihood ordering by flexibility


def _curved_teacher(order=6, w=(1.8, -1.2)):
    """Shift model whose trend curves in log-time, so a straight-line trend
    underfits and a covariate-free model misses the shifts entirely."""
    w = np.asarray(w, dtype=float)
    theta = -4.0 + 8.0 * (np.arange(order + 1) / order) ** 1.8
    raw = np.concatenate([[theta[0]], softplus_inv(np.diff(theta))])
    spec = ModelSpec(
        family=TargetFamily.LOGISTIC, parameterization=Parameterization.BERNSTEIN_SHIFT,
        bernstein_order=order,
        extractor=ExtractorSpec(input_dim=w.size, output_dim=w.size),
    )
    return FittedModel(
        spec=spec, scaler=LogTimeScaler(np.log(0.05), np.log(20.0)),
        head_params=np.concatenate([raw, w]),
        extractor_params=identity_params(spec.extractor),
        train_nll=0.0, validation_nll=0.0,
    )


def test_heldout_nll_improves_with_flexibility():
    """On replicated data drawn from a curved shift model, held-out NLL
    orders covariate-free >= straight-line shift >= curved shift, each gap
    winning a one-sided sign test at level 0.05 (9 or more of 10 seeds)."""
    teacher = _curved_teacher()
    specs = [
        ModelSpec(family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
                  bernstein_order=6),
        ModelSpec(family=TargetFamily.LOGISTIC, parameterization=Parameterization.LINEAR_SHIFT,
                  extractor=ExtractorSpec(input_dim=2, output_dim=2)),
        ModelSpec(family=TargetFamily.LOGISTIC, parameterization=Parameterization.BERNSTEIN_SHIFT,
                  bernstein_order=6, extractor=ExtractorSpec(input_dim=2, output_dim=2)),
    ]
    wins = np.zeros(2, dtype=int)
    means = np.zeros(3)
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        x = rng.normal(size=(150, 2))
        times = rng.uniform(0.5, 15.0, size=150)
        base_obs = [Observation.exact(float(t), xi) for t, xi in zip(times, x)]
        base_obs[0] = Observation.exact(15.0, x[0])
        base = SurvivalDataset.from_observations(base_obs)
        synth = generate_semisynthetic(
            teacher, base, SynthConfig(replication=10, seed=seed, censor_at_max=True)
        )
        perm = rng.permutation(synth.n)
        train = SurvivalDataset.from_observations(
            [synth.observations[i] for i in perm[:1050]], feature_names=synth.feature_names
        )
        held_out = SurvivalDataset.from_observations([synth.observations[i] for i in perm[1050:]])
        nlls = []
        for spec in specs:
            cfg = TrainConfig(
                epochs=80, batch_size=128, early_stopping_patience=15,
                lr_extractor=0.01, lr_head=0.1, seed=seed,
            )
            nlls.append(_mean_nll(fit(train, spec, cfg), held_out))
        means += np.asarray(nlls) / 10.0
        wins[0] += nlls[0] >= nlls[1]
        wins[1] += nlls[1] >= nlls[2]
    ok = wins[0] >= 9 and wins[1] >= 9
    _verdict(
        4, "flexibility-ordering", ok,
        f"wins {wins[0]}/10 and {wins[1]}/10, mean NLL "
        f"{means[0]:.3f} >= {means[1]:.3f} >= {means[2]:.3f}",
    )


# ---------------------------------------------------------------------------
# 5. Covariate-free concordance


def test_covariate_free_c_index_is_exactly_half():
    rng = np.random.default_rng(515)
    obs = []
    for i in range(30):
        t = float(rng.uniform(0.2, 5.0))
        x = rng.normal(size=1)
        obs.append(Observation.exact(t, x) if i % 3 else Observation.right_censored(t, x))
    ds = SurvivalDataset.from_observations(obs)
    spec = ModelSpec(
        family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
        bernstein_order=4,
    )
    model = fit(ds, spec, TrainConfig(epochs=20))
    report = evaluate(model, ds)
    ok = report.c_index == 0.5 and report.n_comparable_pairs >= 2
    _verdict(5, "uninformative-c-index", ok,
             f"c-index {report.c_index} on {report.n_comparable_pairs} pairs")


# ---------------------------------------------------------------------------
# 6. Scoring rule oracles


class _ExponentialCdf:
    def cdf(self, t):
        return -np.expm1(-np.asarray(t, dtype=float))

    def survivor(self, t):
        return np.exp(-np.asarray(t, dtype=float))


class _StepCdf:
    def __init__(self, t0):
        self.t0 = t0

    def cdf(self, t):
        return (np.asarray(t, dtype=float) >= self.t0).astype(float)

    def survivor(self, t):
        return (np.asarray(t, dtype=float) < self.t0).astype(float)


def test_crps_matches_exponential_closed_form():
    dist = _ExponentialCdf()
    # integral of (1 - e^{-u})^2 on (0, 1); the observed-event case adds
    # the upper-tail integral of e^{-2u}, which is e^{-2}/2
    want_censored = 1.0 - 2.0 * (1.0 - np.exp(-1.0)) + (1.0 - np.exp(-2.0)) / 2.0
    want_event = 2.0 / np.e - 0.5
    got_event = crps(dist, 1.0, True, 50.0)
    got_censored = crps(dist, 1.0, False, 50.0)
    point_mass = crps(_StepCdf(1.3), 1.3, True, 50.0)
    err = max(abs(got_event - want_event), abs(got_censored - want_censored))
    ok = err <= 1e-6 and point_mass == 0.0
    _verdict(6, "crps-oracle", ok, f"quadrature err {err:.1e}, point mass {point_mass}")


# ---------------------------------------------------------------------------
# 7. Sampling fidelity


def test_sampling_tracks_model_distribution():
    model = _linear_shift_model(TargetFamily.MEV, 0.0, 1.0, (0.4,))
    dist = conditional_distribution(model, np.array([0.7]))
    rng = np.random.default_rng(717)
    u = np.maximum(rng.random(10000), 2.0**-53)
    draws = np.sort(np.asarray(dist.quantile(u), dtype=float))
    probs = dist.cdf(draws)
    ranks = np.arange(1, draws.size + 1) / draws.size
    ks = float(max(np.max(np.abs(ranks - probs)), np.max(np.abs(ranks - 1.0 / draws.size - probs))))

    base_obs = [
        Observation.exact(float(t), [float(v)])
        for t, v in zip(rng.uniform(0.2, 3.0, size=120), rng.normal(size=120))
    ]
    base = SurvivalDataset.from_observations(base_obs)
    cap = max_observed_time(base)
    capped = generate_semisynthetic(model, base, SynthConfig(replication=7, seed=5))
    free = generate_semisynthetic(
        model, base, SynthConfig(replication=7, seed=5, censor_at_max=False)
    )
    size_ok = capped.n == 7 * base.n and free.n == 7 * base.n
    n_over = 0
    policy_ok = True
    for got, raw in zip(capped.observations, free.observations):
        if raw.time_lower > cap:
            n_over += 1
            policy_ok &= (not got.event) and got.time_lower == cap
        else:
            policy_ok &= got.event and got.time_lower == raw.time_lower
    ok = ks < 0.02 and size_ok and policy_ok and n_over > 0
    _verdict(7, "sampling-fidelity", ok,
             f"KS {ks:.4f}, size {capped.n}, {n_over} draws censored at the cap")


# ---------------------------------------------------------------------------
# 8. Ensemble mixture validity and member selection


def test_ensemble_mixture_valid_and_selection_exact():
    rng = np.random.default_rng(808)
    parameterizations = list(Parameterization)
    families = list(TargetFamily)
    grid_ok = True
    for _ in range(50):
        spec = _spec_for(
            parameterizations[int(rng.integers(len(parameterizations)))],
            families[int(rng.integers(len(families)))],
            order=int(rng.integers(2, 6)),
        )
        members = []
        for _ in range(int(rng.integers(2, 6))):
            head = init_head(spec) + 0.5 * rng.normal(size=head_size(spec))
            ext = (
                init_params(spec.extractor, int(rng.integers(1 << 32)))
                + 0.4 * rng.normal(size=spec.extractor.param_count)
                if spec.extractor is not None
                else np.zeros(0)
            )
            members.append(FittedModel(
                spec=spec, scaler=LogTimeScaler(np.log(0.2), np.log(5.0)),
                head_params=head, extractor_params=ext,
                train_nll=0.0, validation_nll=0.0,
            ))
        ens = EnsembleModel(members=members, member_validation_nlls=np.zeros(len(members)))
        mixture = ens.conditional_distribution(rng.normal(size=2))
        t = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 998), [np.inf]])
        f = mixture.cdf(t)
        grid_ok &= bool(
            np.all(np.isfinite(f))
            and f[0] == 0.0
            and f[-1] == 1.0
            and np.all(np.diff(f) >= 0.0)
            and np.all((f >= 0.0) & (f <= 1.0))
        )

    ds = _exponential_dataset(np.random.default_rng(811), 100)
    spec = ModelSpec(
        family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=2, output_dim=1),
    )
    selection_ok = True
    for seed in (0, 1, 2):
        ens = fit_ensemble(
            ds, spec, TrainConfig(epochs=10, seed=seed), n_members=6, top_m=3
        )
        pool = np.asarray(ens.pool_validation_nlls)
        expect = np.argsort(pool, kind="stable")[:3]
        selection_ok &= list(ens.selected_indices) == list(expect)
        selection_ok &= np.array_equal(np.asarray(ens.member_validation_nlls), pool[expect])
        selection_ok &= len(ens.members) == 3
    ok = grid_ok and selection_ok
    _verdict(8, "ensemble-validity", ok,
             f"50 mixtures valid: {grid_ok}, selection exact: {selection_ok}")


# ---------------------------------------------------------------------------
# 9. Bitwise reproducibility of the command line


def test_identical_runs_produce_identical_files(tmp_path):
    rng = np.random.default_rng(909)
    obs = []
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=2)
        t = max(float(rng.exponential(np.exp(0.3 * x[0]))), 1e-3)
        if rng.random() < 0.2:
            obs.append(Observation.right_censored(t, x))
        else:
            obs.append(Observation.exact(t, x))
    data = tmp_path / "train.csv"
    dataset = SurvivalDataset.from_observations(obs, feature_names=["age", "dose"])
    write_dataset_csv(dataset, str(data))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "minimum_extreme_value", "parameterization": "linear_shift",
        "epochs": 8, "seed": 3,
    }))

    fits, evals, samples = [], [], []
    for tag in ("a", "b"):
        fit_dir = tmp_path / f"fit_{tag}"
        assert main(["fit", "--data", str(data), "--spec", str(spec), "--out", str(fit_dir)]) == 0
        fits.append(fit_dir)
    model = fits[0] / "model.json"
    for tag in ("a", "b"):
        ev_dir = tmp_path / f"ev_{tag}"
        assert main(["evaluate", "--data", str(data), "--model", str(model),
                     "--out", str(ev_dir)]) == 0
        evals.append(ev_dir)
        sm_dir = tmp_path / f"sm_{tag}"
        assert main(["sample", "--data", str(data), "--model", str(model),
                     "--out", str(sm_dir), "--replication", "3", "--seed", "11"]) == 0
        samples.append(sm_dir)

    mismatched = []
    for pair, names in (
        (fits, ("model.json", "training_log.csv", "manifest.json")),
        (evals, ("report.json", "scores.csv", "cdf_grid.csv", "manifest.json")),
        (samples, ("synthetic.csv", "manifest.json")),
    ):
        for name in names:
            if (pair[0] / name).read_bytes() != (pair[1] / name).read_bytes():
                mismatched.append(name)
    ok = not mismatched
    _verdict(9, "bitwise-reruns", ok,
             "9 files identical" if ok else f"differs: {', '.join(mismatched)}")
