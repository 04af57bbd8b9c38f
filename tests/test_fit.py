from collections import Counter
import concurrent.futures
from dataclasses import fields
import json
import logging
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tramsurv.basis import LogTimeScaler, fit_scaler
from tramsurv.core import (
    CensoringKind,
    ModelSpec,
    Observation,
    Parameterization,
    SurvivalDataset,
    serialize_model,
)
from tramsurv.errors import (
    AllCensored,
    BadConfig,
    DegenerateIntervalWarning,
    DimensionMismatch,
    EmptyDataset,
    NonFiniteLoss,
    NonPositiveTime,
)
from tramsurv.feature import ExtractorSpec, identity_params, init_params
from tramsurv.fit import (
    EnsembleModel,
    ModelState,
    TrainConfig,
    _row_means,
    _nll_core,
    _Member,
    _Plan,
    _Views,
    _bootstrap_indices,
    _bootstrap_member,
    _run_sgd,
    _workers,
    fit,
    fit_ensemble,
    nll_batch,
)
from tramsurv.metrics import log_score
from tramsurv.numerics import softplus, softplus_inv
from tramsurv.target import TargetFamily
from tramsurv.transform import conditional_distribution, head_size, init_head


def _linear_shift_model(family, a=0.0, b=1.0, w=(0.0,)):
    """Training state of a linear-shift model with an identity extractor."""
    w = np.asarray(w, dtype=float)
    spec = ModelSpec(
        family=family, parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=w.size, output_dim=w.size),
    )
    return ModelState(
        spec, LogTimeScaler(0.0, 1.0), np.concatenate([[a, softplus_inv(b)], w]),
        identity_params(spec.extractor),
    )


def _stack_core(spec, scaler, head, ext, plan, want_grad=True):
    """``_nll_core`` of a stack of heads (M, P_h) and extractors (M, P_e), bound as a
    training loop binds them: the terms and, with ``want_grad``, the gradients."""
    params = np.concatenate([head, ext], axis=1)
    grad = _Views.of(spec, np.empty(params.shape)) if want_grad else None
    terms = _nll_core(spec, scaler, _Views.of(spec, params), plan, grad)
    return terms, None if grad is None else grad.flat


def _core(state, plan, want_grad):
    """``_nll_core`` of one model on one (unstacked) plan: its terms and gradient."""
    terms, grad = _stack_core(state.spec, state.scaler, state.head_params[None],
                              state.extractor_params[None], plan.shared(), want_grad)
    return terms[0], None if grad is None else grad[0]


def _one_row(obs):
    """A one-row dataset: the batch form of one observation."""
    return SurvivalDataset.from_observations([obs])


class TestNllObservation:
    def test_logistic_exact_reference(self):
        # h = 0 and dh/dt = 1 at t = 1: -log f_Z(0) - log 1 = log 4
        state = _linear_shift_model(TargetFamily.LOGISTIC)
        obs = Observation.exact(1.0, [0.0])
        np.testing.assert_allclose(nll_batch(state, _one_row(obs))[0], np.log(4.0), rtol=1e-12)

    def test_logistic_right_censored_reference(self):
        state = _linear_shift_model(TargetFamily.LOGISTIC)
        obs = Observation.right_censored(1.0, [0.0])
        np.testing.assert_allclose(nll_batch(state, _one_row(obs))[0], np.log(2.0), rtol=1e-12)

    def test_mev_right_censored_reference(self):
        state = _linear_shift_model(TargetFamily.MEV)
        obs = Observation.right_censored(1.0, [0.0])
        np.testing.assert_allclose(nll_batch(state, _one_row(obs))[0], 1.0, rtol=1e-12)

    def test_logistic_interval_reference(self):
        """Interval with h(t_l) = -1 and h(t_u) = 1 has mass sigma(1) - sigma(-1)."""
        state = _linear_shift_model(TargetFamily.LOGISTIC)
        obs = Observation.interval(float(np.exp(-1.0)), float(np.e), [0.0])
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        expected = -np.log(sig(1.0) - sig(-1.0))
        nll = nll_batch(state, _one_row(obs))[0]
        np.testing.assert_allclose(nll, expected, rtol=1e-12)
        np.testing.assert_allclose(nll, 0.7719368329053048, rtol=1e-12)

    def test_left_censored_uses_cdf(self):
        state = _linear_shift_model(TargetFamily.MEV)
        obs = Observation.left_censored(1.0, [0.0])
        np.testing.assert_allclose(
            nll_batch(state, _one_row(obs))[0], -np.log(1.0 - np.exp(-1.0)), rtol=1e-12
        )

    def test_degenerate_interval_warns_and_clamps(self):
        state = _linear_shift_model(TargetFamily.LOGISTIC, a=0.0, b=30.0)
        t = 40.0  # far above the range: both endpoints deep in the upper tail
        obs = Observation.interval(t, t * (1.0 + 1e-15), [0.0])
        with pytest.warns(DegenerateIntervalWarning):
            val = nll_batch(state, _one_row(obs))[0]
        assert np.isfinite(val)
        assert val <= -np.log(1e-12) + 1e-9


class TestNllBatch:
    def test_singleton_equals_observation(self):
        """A one-row dataset's total is the observation's term in a larger batch."""
        state = _linear_shift_model(TargetFamily.LOGISTIC)
        obs = Observation.exact(1.3, [0.4])
        total, _ = nll_batch(state, _one_row(obs))
        batch = SurvivalDataset.from_observations([obs, Observation.right_censored(0.7, [-0.2])])
        plan = _Plan.of_dataset(batch, state.spec, state.scaler)
        np.testing.assert_allclose(total, _core(state, plan, False)[0][0], rtol=1e-14)

    def test_rejects_non_positive_time(self):
        state = _linear_shift_model(TargetFamily.LOGISTIC)
        for time in (0.0, -1.0):
            batch = [Observation.exact(1.0, [0.0]), Observation.right_censored(time, [0.0])]
            with pytest.raises(NonPositiveTime) as info:
                nll_batch(state, SurvivalDataset.from_observations(batch))
            assert info.value.code == "E_NON_POSITIVE_TIME"

    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_rejects_head_of_wrong_length(self, parameterization):
        """A head one entry longer or shorter than its spec lays out is not read at all."""
        spec = _spec_for(parameterization, TargetFamily.LOGISTIC)
        batch = SurvivalDataset.from_observations(_random_batch(np.random.default_rng(5), 2))
        ext = init_params(spec.extractor, 3) if spec.extractor is not None else np.zeros(0)
        head = init_head(spec)
        for bad in (np.append(head, 0.0), head[:-1]):
            if bad.size == head.size:
                continue  # bernstein_flexible has no head to shorten
            state = ModelState(spec, LogTimeScaler(np.log(0.3), np.log(8.0)), bad, ext)
            with pytest.raises(DimensionMismatch) as info:
                nll_batch(state, batch)
            assert info.value.code == "E_DIMENSION_MISMATCH"

    def test_duplicated_batch_doubles(self):
        state = _linear_shift_model(TargetFamily.MEV, a=0.1, b=1.2, w=(0.3,))
        batch = [
            Observation.exact(0.8, [0.5]),
            Observation.right_censored(1.5, [-0.2]),
            Observation.left_censored(0.6, [0.1]),
            Observation.interval(0.5, 1.1, [0.9]),
        ]
        total1, grad1 = nll_batch(state, SurvivalDataset.from_observations(batch))
        total2, grad2 = nll_batch(state, SurvivalDataset.from_observations(batch + batch))
        np.testing.assert_allclose(total2, 2.0 * total1, rtol=1e-14)
        np.testing.assert_allclose(grad2, 2.0 * grad1, rtol=1e-13, atol=1e-15)

    def test_order_invariant(self):
        rng = np.random.default_rng(211)
        state = _linear_shift_model(TargetFamily.LOGISTIC, a=-0.2, b=0.9, w=(0.4,))
        batch = [
            Observation.exact(float(t), [float(x)])
            for t, x in zip(rng.uniform(0.3, 3.0, 12), rng.normal(size=12))
        ]
        total, _ = nll_batch(state, SurvivalDataset.from_observations(batch))
        perm = [batch[i] for i in rng.permutation(12)]
        total_p, _ = nll_batch(state, SurvivalDataset.from_observations(perm))
        np.testing.assert_allclose(total_p, total, rtol=1e-12)

    def test_additive_over_disjoint_batches(self):
        state = _linear_shift_model(TargetFamily.MEV, a=0.2, b=1.1, w=(-0.3,))
        part_a = [Observation.exact(0.7, [0.2]), Observation.right_censored(2.0, [1.0])]
        part_b = [Observation.left_censored(0.9, [-0.5])]
        total_a, grad_a = nll_batch(state, SurvivalDataset.from_observations(part_a))
        total_b, grad_b = nll_batch(state, SurvivalDataset.from_observations(part_b))
        total, grad = nll_batch(state, SurvivalDataset.from_observations(part_a + part_b))
        np.testing.assert_allclose(total, total_a + total_b, rtol=1e-12)
        np.testing.assert_allclose(grad, grad_a + grad_b, rtol=1e-12, atol=1e-15)


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


def _gradient_max_rel_err(spec, rng, draws=3):
    """Max relative FD error of the full-model gradient over random draws."""
    scaler = LogTimeScaler(np.log(0.2), np.log(5.0))
    p = spec.extractor.input_dim if spec.extractor is not None else 1
    worst = 0.0
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


def _spec_for(parameterization, family, order=3, p=2, activation="tanh"):
    if parameterization == Parameterization.BASELINE:
        extractor = None
    else:
        d = order + 1 if parameterization == Parameterization.BERNSTEIN_FLEXIBLE else 2
        extractor = ExtractorSpec(input_dim=p, hidden_dims=(4,), output_dim=d,
                                  activation=activation)
    return ModelSpec(
        family=family, parameterization=parameterization, bernstein_order=order,
        extractor=extractor,
    )


class TestGradients:
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    @pytest.mark.parametrize("family", list(TargetFamily))
    def test_full_model_gradient(self, parameterization, family):
        """NLL gradient agrees with central finite differences."""
        seed = 100 + 10 * list(Parameterization).index(parameterization)
        seed += list(TargetFamily).index(family)
        rng = np.random.default_rng(seed)
        spec = _spec_for(parameterization, family)
        assert _gradient_max_rel_err(spec, rng, draws=3) < 1e-5


class TestTrainingPlan:
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    @pytest.mark.parametrize("family", list(TargetFamily))
    def test_sliced_permuted_plan_matches_taken_rows(self, parameterization, family):
        """Minibatch slices of a permuted plan score exactly as the same rows taken
        from the dataset, whose basis is computed for that batch alone."""
        seed = 700 + 10 * list(Parameterization).index(parameterization)
        rng = np.random.default_rng(seed + list(TargetFamily).index(family))
        spec = _spec_for(parameterization, family)
        dataset = SurvivalDataset.from_observations(
            [obs for _ in range(5) for obs in _random_batch(rng, 2)]
        )
        assert set(dataset.kind.tolist()) == {0, 1, 2, 3}
        scaler = fit_scaler(dataset)
        head = init_head(spec) + 0.4 * rng.normal(size=head_size(spec))
        ext = np.zeros(0)
        if spec.extractor is not None:
            ext = init_params(spec.extractor, int(rng.integers(1 << 32)))
        state = ModelState(spec, scaler, head, ext)

        without_intervals = dataset.take(np.flatnonzero(dataset.kind != 3))
        for data in (dataset, without_intervals):
            order = rng.permutation(data.n)
            # a stack of one member, as _run_sgd gathers and slices it
            shuffled = _Plan.of_dataset(data, spec, scaler).take(order[None])
            for start in range(0, data.n, 16):  # the last batch is short
                batch = shuffled.take((slice(None), slice(start, start + 16)))
                rows = _Plan.of_dataset(data.take(order[start : start + 16]), spec, scaler)
                terms, grad = _stack_core(spec, scaler, head[None], ext[None], batch)
                ref_terms, ref_grad = _core(state, rows, want_grad=True)
                assert terms.tobytes() == ref_terms.tobytes()
                assert grad.tobytes() == ref_grad.tobytes()

        x = dataset.x[0]
        for bad in (Observation.exact(0.0, x), Observation.interval(-1.0, 2.0, x)):
            with_bad = SurvivalDataset.from_observations([Observation.exact(1.0, x), bad])
            with pytest.raises(NonPositiveTime) as info:
                nll_batch(state, with_bad)
            assert info.value.code == "E_NON_POSITIVE_TIME"


class TestStackedMembers:
    """A stack of M models computes each member's numbers as a stack of one does, bit for bit."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    @pytest.mark.parametrize("family", list(TargetFamily))
    def test_stacked_core_equals_one_member_calls(self, family, parameterization, activation):
        seed = 900 + 10 * list(Parameterization).index(parameterization)
        rng = np.random.default_rng(seed + list(TargetFamily).index(family))
        spec = _spec_for(parameterization, family, activation=activation)
        dataset = SurvivalDataset.from_observations(
            [obs for _ in range(5) for obs in _random_batch(rng, 2)]
        )
        scaler = fit_scaler(dataset)
        plan = _Plan.of_dataset(dataset, spec, scaler)
        members = 4
        head = init_head(spec) + 0.4 * rng.normal(size=(members, head_size(spec)))
        ext = np.zeros((members, 0))
        if spec.extractor is not None:
            seeds = rng.integers(1 << 32, size=members)
            ext = np.stack([init_params(spec.extractor, int(s)) for s in seeds])
        for rows in (16, 1):
            idx = rng.integers(0, dataset.n, size=(members, rows))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateIntervalWarning)
                terms, grad = _stack_core(spec, scaler, head, ext, plan.take(idx))
                for m in range(members):
                    alone = _stack_core(spec, scaler, head[m : m + 1], ext[m : m + 1],
                                        plan.take(idx[m : m + 1]))
                    assert terms[m].tobytes() == alone[0].tobytes()
                    assert grad[m].tobytes() == alone[1].tobytes()
        assert terms.shape == (members, 1)
        assert grad.shape == (members, head.shape[1] + ext.shape[1])

    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_interval_rows_take_one_call_on_the_whole_stack(self, parameterization, monkeypatch):
        """Every member's interval rows are scored by one more transformation call on the
        whole stack, at the upper times, from the one set of coefficients."""
        fit_module = sys.modules["tramsurv.fit"]
        rng = np.random.default_rng(990 + list(Parameterization).index(parameterization))
        spec = _spec_for(parameterization, TargetFamily.LOGISTIC)
        dataset = SurvivalDataset.from_observations(
            [obs for _ in range(5) for obs in _random_batch(rng, 2)]
        )
        scaler = fit_scaler(dataset)
        plan = _Plan.of_dataset(dataset, spec, scaler)
        members = 4
        head = init_head(spec) + 0.4 * rng.normal(size=(members, head_size(spec)))
        ext = np.zeros((members, 0))
        if spec.extractor is not None:
            ext = np.stack([init_params(spec.extractor, s) for s in range(members)])
        idx = rng.integers(0, dataset.n, size=(members, 12))
        idx[:, 0] = np.flatnonzero(dataset.kind == 3)[:members]  # interval rows in every member
        calls = Counter()

        def counted(name):
            original = getattr(fit_module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(fit_module, name, call)

        counted("coefficients")
        counted("eval_transform")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateIntervalWarning)
            terms, grad = _stack_core(spec, scaler, head, ext, plan.take(idx))
        assert calls == {"coefficients": 1, "eval_transform": 2}
        assert np.isfinite(terms).all() and np.isfinite(grad).all()

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    @pytest.mark.parametrize("family", list(TargetFamily))
    def test_member_model_does_not_depend_on_its_stack(self, family, parameterization, activation,
                                                       monkeypatch):
        """A member's model is the same bytes in a stack of 1, 3 or 6, with jobs 1 or 2,
        and while other members of its stack stop early."""
        # a bound of 0 splits even this small ensemble across workers at jobs 2
        monkeypatch.setattr(sys.modules["tramsurv.fit"], "POOL_MIN_WORK", 0)
        seed = 950 + 10 * list(Parameterization).index(parameterization)
        rng = np.random.default_rng(seed + list(TargetFamily).index(family))
        spec = _spec_for(parameterization, family, activation=activation)
        dataset = SurvivalDataset.from_observations(
            [obs for _ in range(5) for obs in _random_batch(rng, 2)]
        )
        assert set(dataset.kind.tolist()) == {0, 1, 2, 3}
        # large steps, so validation NLLs turn up and members stop at different epochs
        config = TrainConfig(epochs=12, batch_size=16, early_stopping_patience=0, seed=7,
                             lr_head=1.0, lr_extractor=0.3)
        scaler = fit_scaler(dataset)
        plan = _Plan.of_dataset(dataset, spec, scaler)
        members = [_bootstrap_member(dataset, config, m) for m in range(6)]

        def blobs(stack, callback=None):
            return [serialize_model(m) for m in _run_sgd(spec, scaler, plan, stack, config, callback)]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateIntervalWarning)
            per_epoch = Counter()  # members still in the stack at each epoch
            whole = blobs(members, lambda stats: per_epoch.update([stats.epoch]))
            alone = [b for m in members for b in blobs([m])]
            halves = blobs(members[:3]) + blobs(members[3:])
            ensembles = [fit_ensemble(dataset, spec, config, n_members=6, top_m=6, jobs=jobs)
                         for jobs in (1, 2)]
        # some member left the stack while another trained on
        assert len(set(per_epoch.values())) > 1
        assert whole == alone == halves
        for ens in ensembles:
            assert [serialize_model(m) for m in ens.members] == [alone[i] for i in ens.selected_indices]


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


class TestBestEpochRestore:
    """SGD updates the parameters in place; the restored best epoch must not alias them."""

    SPEC = ModelSpec(
        family=TargetFamily.MEV, parameterization=Parameterization.BERNSTEIN_SHIFT_SCALE,
        bernstein_order=4, extractor=ExtractorSpec(input_dim=2, hidden_dims=(4,), output_dim=2),
    )
    CONFIG = TrainConfig(epochs=40, batch_size=16, lr_head=0.3, lr_extractor=0.05,
                         early_stopping_patience=1, seed=2)

    def test_rescoring_the_validation_rows_reproduces_validation_nll(self):
        ds = _exponential_dataset(np.random.default_rng(311), 120)
        scaler = fit_scaler(ds)
        plan = _Plan.of_dataset(ds, self.SPEC, scaler)
        perm = np.random.default_rng(5).permutation(ds.n)
        val_idx, train_idx = perm[:30], perm[30:]
        stats = []
        member = _Member(self.CONFIG.seed, train_idx, val_idx)
        (model,) = _run_sgd(self.SPEC, scaler, plan, [member], self.CONFIG, stats.append)
        # patience stopped the run after worse epochs, before the epoch limit
        best = min(range(len(stats)), key=lambda e: stats[e].val_nll)
        assert best < len(stats) - 1 < self.CONFIG.epochs - 1
        assert stats[-1].val_nll > model.validation_nll == stats[best].val_nll
        params = np.concatenate([model.head_params, model.extractor_params])[None]
        terms = _nll_core(self.SPEC, scaler, _Views.of(self.SPEC, params), plan.shared())
        (rescored,) = _row_means(terms, [val_idx])
        assert np.float64(rescored).tobytes() == np.float64(model.validation_nll).tobytes()

    def test_two_fits_in_one_process_write_identical_models(self, tmp_path):
        from tramsurv.cli import main, write_dataset_csv

        data = tmp_path / "data.csv"
        write_dataset_csv(_exponential_dataset(np.random.default_rng(313), 120), data)
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"family": "minimum_extreme_value", "parameterization": "bernstein_shift_scale", '
            '"bernstein_order": 4, "hidden_dims": [4], "epochs": 40, '
            '"early_stopping_patience": 1, "seed": 2, "lr_head": 0.3, "lr_extractor": 0.05, '
            '"batch_size": 16}'
        )
        for run in ("a", "b"):
            assert main(["fit", "--data", str(data), "--spec", str(spec),
                         "--out", str(tmp_path / run)]) == 0
        epochs = (tmp_path / "a" / "training_log.csv").read_text().splitlines()[1:]
        assert len(epochs) < 40  # stopped early, after a worse epoch
        model_a, model_b = ((tmp_path / run / "model.json").read_bytes() for run in "ab")
        assert model_a == model_b


class TestTrainConfig:
    """Learning rates left None take the model's defaults; the spec holds no training setting."""

    # the model of the README's Python example
    SPEC = ModelSpec(
        family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=2, output_dim=2),
    )

    def test_rates_default_per_parameterization_and_family(self):
        config = TrainConfig(epochs=3).resolved(self.SPEC)
        assert (config.lr_extractor, config.lr_head) == (0.001, 0.01)
        assert config == TrainConfig(epochs=3, lr_extractor=0.001, lr_head=0.01)
        baseline = ModelSpec(family=TargetFamily.LOGISTIC,
                             parameterization=Parameterization.BASELINE)
        assert TrainConfig().resolved(baseline).lr_head == 0.1

    def test_explicit_rate_kept(self):
        config = TrainConfig(lr_head=0.5).resolved(self.SPEC)
        assert (config.lr_extractor, config.lr_head) == (0.001, 0.5)

    @pytest.mark.parametrize("number", [np.float32(0.25), np.float16(0.25), np.float64(0.25)])
    def test_numpy_numbers_are_settings(self, number):
        """A numpy float of any width is a number, checked without a cast that warns."""
        config = TrainConfig(lr_head=number, validation_fraction=number)
        assert (config.lr_head, config.validation_fraction) == (0.25, 0.25)
        assert ExtractorSpec(input_dim=1, init_scale=number).init_scale == 0.25

    def test_fit_trains_at_the_default_rate_and_records_no_training_settings(self):
        ds = _exponential_dataset(np.random.default_rng(421), 80)
        model = serialize_model(fit(ds, self.SPEC, TrainConfig(epochs=3)))
        explicit = TrainConfig(epochs=3, lr_extractor=0.001, lr_head=0.01)
        assert model == serialize_model(fit(ds, self.SPEC, explicit))
        faster = TrainConfig(epochs=3, lr_extractor=0.001, lr_head=0.1)
        assert model != serialize_model(fit(ds, self.SPEC, faster))
        spec = json.loads(model)["spec"]
        assert set(spec) == {"family", "parameterization", "bernstein_order", "extractor"}


def _baseline_spec(**settings):
    return ModelSpec(family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
                     **settings)


class TestFit:
    def test_all_censored_rejected(self):
        ds = SurvivalDataset.from_observations(
            [Observation.right_censored(1.0, [0.0]) for _ in range(10)]
        )
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
        )
        with pytest.raises(AllCensored):
            fit(ds, spec, TrainConfig(epochs=2))

    def test_bootstrap_without_an_exact_row_has_a_code(self):
        with pytest.raises(AllCensored) as info:
            _bootstrap_indices(np.random.default_rng(0), np.zeros(5, dtype=bool), 5)
        assert info.value.code == "E_ALL_CENSORED"

    def test_one_row_has_an_empty_validation_split(self):
        ds = SurvivalDataset.from_observations([Observation.exact(1.5, [0.3])])
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=1, output_dim=1),
        )
        config = TrainConfig(epochs=3)
        with pytest.raises(EmptyDataset, match="validation split") as info:
            fit(ds, spec, config)
        assert info.value.code == "E_EMPTY_DATASET"
        # a member validates on its out-of-bag rows, or on all rows when there are none
        ens = fit_ensemble(ds, spec, config, n_members=2, top_m=1)
        assert np.all(np.isfinite(ens.pool_validation_nlls))

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -0.1, "fast", "0.1", True,
                                    pytest.param(10**400, id="int-beyond-float")])
    @pytest.mark.parametrize("which", ["lr_head", "lr_extractor"])
    def test_learning_rates_must_be_finite_and_positive(self, which, lr):
        """A learning rate is a finite positive number; a string or a bool is E_BAD_CONFIG,
        not a TypeError or a rate of 1.0."""
        with pytest.raises(BadConfig) as info:
            TrainConfig(**{which: lr})
        assert info.value.code == "E_BAD_CONFIG"

    @pytest.mark.parametrize("value", [0.0, 1.0, np.nan, "x", True, None])
    def test_validation_fraction_must_lie_in_the_unit_interval(self, value):
        with pytest.raises(BadConfig) as info:
            TrainConfig(validation_fraction=value)
        assert info.value.code == "E_BAD_CONFIG"

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    @pytest.mark.parametrize(
        "build, key",
        [
            (TrainConfig, "epochs"),
            (TrainConfig, "batch_size"),
            (TrainConfig, "early_stopping_patience"),
            (TrainConfig, "seed"),
            (_baseline_spec, "bernstein_order"),
            (lambda width: ExtractorSpec(input_dim=2, hidden_dims=(width,)), "width"),
        ],
        ids=["train-epochs", "train-batch_size", "train-patience", "train-seed", "spec-order",
             "hidden-width"],
    )
    def test_integer_settings_reject_floats_and_bools(self, build, key, value):
        """An integer setting is an integer: a float, integral or not, or a bool is
        E_BAD_CONFIG rather than a TypeError later or a silent truncation."""
        with pytest.raises(BadConfig, match="must be an integer") as info:
            build(**{key: value})
        assert info.value.code == "E_BAD_CONFIG"

    def test_parameters_are_split_once_per_stack_not_per_step(self, monkeypatch):
        """The SGD loop binds its layer views once; how often the extractor's parameters
        are split does not grow with the number of steps."""
        import tramsurv.feature as feature

        ds = _exponential_dataset(np.random.default_rng(307), 60)
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.BERNSTEIN_SHIFT_SCALE,
            bernstein_order=3, extractor=ExtractorSpec(input_dim=2, hidden_dims=(3,), output_dim=2),
        )
        calls = Counter()
        split = feature.split_params

        def counted(*args):
            calls["split"] += 1
            return split(*args)

        monkeypatch.setattr(feature, "split_params", counted)
        counts = []
        for batch_size in (48, 4):  # 1 and 12 steps per epoch
            calls.clear()
            fit(ds, spec, TrainConfig(epochs=3, batch_size=batch_size, early_stopping_patience=3))
            counts.append(calls["split"])
        assert counts[0] == counts[1]

    def test_validation_split_of_every_exact_row_gives_one_to_training(self, monkeypatch):
        """When the validation split draws every exact row, the first it drew swaps places
        with the first training row, so SGD trains on an exact row."""
        fit_module = sys.modules["tramsurv.fit"]
        n, config = 10, TrainConfig(epochs=2, seed=3)
        perm = np.random.default_rng([config.seed, 0]).permutation(n)  # fit's split
        val, train = perm[:2], perm[2:]
        kind = np.full(n, CensoringKind.RIGHT.code, dtype=np.int8)
        kind[val] = CensoringKind.EXACT.code
        t = np.linspace(1.0, 2.0, n)
        ds = SurvivalDataset(np.linspace(-1.0, 1.0, n)[:, None], t,
                             np.where(kind == CensoringKind.RIGHT.code, np.inf, t), kind)
        spec = ModelSpec(family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
                         bernstein_order=3)
        stacks = []
        run_sgd = fit_module._run_sgd
        monkeypatch.setattr(fit_module, "_run_sgd",
                            lambda *args: stacks.append(args[3]) or run_sgd(*args))
        assert np.isfinite(fit(ds, spec, config).validation_nll)
        (member,) = stacks[0]
        assert member.train.tolist() == [val[0], *train[1:]]
        assert member.val.tolist() == [train[0], val[1]]

    def test_extractor_of_another_width_is_a_dimension_mismatch(self):
        ds = _exponential_dataset(np.random.default_rng(309), 20)  # two covariates
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=3, output_dim=3),
        )
        for call in (fit, fit_ensemble):
            with pytest.raises(DimensionMismatch, match="expects 3 covariates") as info:
                call(ds, spec, TrainConfig(epochs=1))
            assert info.value.code == "E_DIMENSION_MISMATCH"

    def test_non_finite_minibatch_terms_stop_within_the_epoch(self, monkeypatch):
        """A head rate of 1e300 throws the first step's parameters so far that the second
        minibatch's terms are not finite: the step's own check raises, before the epoch
        ends.  numpy's overflow warnings, which such a run gives, are silenced here."""
        fit_module = sys.modules["tramsurv.fit"]
        ds = _exponential_dataset(np.random.default_rng(311), 40)
        spec = ModelSpec(family=TargetFamily.MEV, parameterization=Parameterization.BASELINE,
                         bernstein_order=4)
        core, steps = fit_module._nll_core, []

        def counted(spec, scaler, params, plan, grad=None):
            steps.append(grad is not None)  # a gradient buffer: a step, not the epoch end
            return core(spec, scaler, params, plan, grad)

        monkeypatch.setattr(fit_module, "_nll_core", counted)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="in epoch 0$") as info:
            fit(ds, spec, TrainConfig(epochs=2, batch_size=8, lr_head=1e300))
        assert info.value.code == "E_NON_FINITE_LOSS"
        assert steps == [True, True]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(301)
        ds = _exponential_dataset(rng, 80)
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=1),
        )
        cfg = TrainConfig(epochs=10, seed=4)
        m1 = fit(ds, spec, cfg)
        m2 = fit(ds, spec, cfg)
        assert serialize_model(m1) == serialize_model(m2)

    def test_training_improves_on_init(self):
        rng = np.random.default_rng(303)
        ds = _exponential_dataset(rng, 150)
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=2),
        )
        model = fit(ds, spec, TrainConfig(epochs=30, seed=0))
        scaler = model.scaler
        init_state = ModelState(
            spec, scaler, init_head(spec), model.extractor_params * 0.0
        )
        init_nll = nll_batch(init_state, ds)[0] / ds.n
        assert model.train_nll < init_nll

    def test_callback_sees_epochs(self):
        rng = np.random.default_rng(305)
        ds = _exponential_dataset(rng, 60)
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
            bernstein_order=3,
        )
        stats = []
        fit(ds, spec, TrainConfig(epochs=5, early_stopping_patience=5), callback=stats.append)
        assert len(stats) >= 1
        assert stats[0].epoch == 0
        assert all(np.isfinite(s.train_nll) and np.isfinite(s.val_nll) for s in stats)

    def test_recorded_train_nll_covers_full_dataset(self):
        rng = np.random.default_rng(307)
        ds = _exponential_dataset(rng, 70)
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=1),
        )
        model = fit(ds, spec, TrainConfig(epochs=8))
        state = ModelState(spec, model.scaler, model.head_params, model.extractor_params)
        full = nll_batch(state, ds)[0] / ds.n
        np.testing.assert_allclose(model.train_nll, full, rtol=1e-12)

    def test_recovers_exponential_coefficients(self):
        """MLE consistency on n=2000 draws from a known generator."""
        rng = np.random.default_rng(309)
        ds = _exponential_dataset(rng, 2000, w_true=(0.5, -0.3), x_range=2.0)
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=1),
        )
        cfg = TrainConfig(
            epochs=200, batch_size=256, lr_head=0.05, lr_extractor=0.05,
            early_stopping_patience=30, validation_fraction=0.3, seed=1,
        )
        model = fit(ds, spec, cfg)
        from tramsurv.feature import split_params

        w_head = model.head_params[2:]
        layers = split_params(spec.extractor, model.extractor_params)
        w_eff = layers[0][0] @ w_head
        bias_shift = float(layers[0][1] @ w_head)
        a_eff = model.head_params[0] + bias_shift
        b_eff = softplus(model.head_params[1])
        np.testing.assert_allclose(a_eff, 0.0, rtol=0, atol=0.1)
        np.testing.assert_allclose(b_eff, 1.0, rtol=0, atol=0.1)
        np.testing.assert_allclose(w_eff, [0.5, -0.3], rtol=0, atol=0.1)


class TestFitEnsemble:
    def _setup(self, seed=401, n=120):
        rng = np.random.default_rng(seed)
        ds = _exponential_dataset(rng, n)
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=1),
        )
        return ds, spec, TrainConfig(epochs=15, seed=2)

    def test_selection_orders_by_validation_nll(self):
        ds, spec, cfg = self._setup()
        ens = fit_ensemble(ds, spec, cfg, n_members=5, top_m=2)
        pool = np.asarray(ens.pool_validation_nlls)
        chosen = sorted(ens.selected_indices)
        best_two = sorted(np.argsort(pool, kind="stable")[:2].tolist())
        assert chosen == best_two
        assert len(ens.members) == 2

    def test_member_validation_nlls_are_read_from_the_members(self):
        """The selection record keeps no copy of a member's NLL, so it cannot disagree."""
        ds, spec, cfg = self._setup(seed=402, n=60)
        ens = fit_ensemble(ds, spec, cfg, n_members=3, top_m=2)
        assert [f.name for f in fields(EnsembleModel)] == [
            "members", "selected_indices", "pool_validation_nlls"]
        assert ens.member_validation_nlls.tolist() == [m.validation_nll for m in ens.members]
        assert ens.member_validation_nlls.tolist() == ens.pool_validation_nlls[
            ens.selected_indices].tolist()
        assert EnsembleModel(members=ens.members[::-1]).member_validation_nlls.tolist() == \
            ens.member_validation_nlls[::-1].tolist()

    def test_single_member_degenerate(self):
        ds, spec, cfg = self._setup(seed=403)
        ens = fit_ensemble(ds, spec, cfg, n_members=1, top_m=1)
        assert len(ens.members) == 1
        assert ens.selected_indices == [0]

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(sys.modules["tramsurv.fit"], "POOL_MIN_WORK", 0)
        ds, spec, cfg = self._setup(seed=405, n=80)
        serial = fit_ensemble(ds, spec, cfg, n_members=4, top_m=2, jobs=1)
        parallel = fit_ensemble(ds, spec, cfg, n_members=4, top_m=2, jobs=2)
        assert serial.selected_indices == parallel.selected_indices
        for a, b in zip(serial.members, parallel.members):
            assert serialize_model(a) == serialize_model(b)

    def test_jobs_below_one_is_bad_config(self):
        ds, spec, cfg = self._setup(seed=409, n=40)
        for jobs in (0, -2):
            with pytest.raises(BadConfig) as info:
                fit_ensemble(ds, spec, cfg, n_members=2, top_m=1, jobs=jobs)
            assert info.value.code == "E_BAD_CONFIG"

    @pytest.mark.parametrize("key", ["n_members", "top_m", "jobs"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    def test_fractional_counts_are_bad_config(self, key, value):
        ds, spec, cfg = self._setup(seed=409, n=40)
        counts = {"n_members": 2, "top_m": 1, "jobs": 1, key: value}
        with pytest.raises(BadConfig, match="must be an integer") as info:
            fit_ensemble(ds, spec, cfg, **counts)
        assert info.value.code == "E_BAD_CONFIG"

    def test_workers_capped_at_the_stacks(self, monkeypatch):
        """Each worker fits one contiguous stack, and no more workers start than stacks."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers, self.stacks = max_workers, []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                self.stacks = [task[-1] for task in tasks]
                return map(fn, tasks)

        # fit_ensemble imports the pool when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # the module, not the package's ``fit`` function of the same name
        monkeypatch.setattr(sys.modules["tramsurv.fit"], "POOL_MIN_WORK", 0)
        ds, spec, cfg = self._setup(seed=411, n=40)
        capped = fit_ensemble(ds, spec, cfg, n_members=3, top_m=3, jobs=64)
        split = fit_ensemble(ds, spec, cfg, n_members=5, top_m=3, jobs=2)
        serial = fit_ensemble(ds, spec, cfg, n_members=3, top_m=3, jobs=1)
        assert [(p.max_workers, p.stacks) for p in pools] == [
            (3, [[0], [1], [2]]), (2, [[0, 1, 2], [3, 4]])
        ]
        assert capped.selected_indices == serial.selected_indices
        assert split.pool_validation_nlls[:3].tolist() == serial.pool_validation_nlls.tolist()
        for a, b in zip(capped.members, serial.members):
            assert serialize_model(a) == serialize_model(b)

    def test_small_ensemble_starts_no_pool(self, monkeypatch):
        """Below the bound, jobs 2 fits the one stack in this process, with jobs 1's bytes."""
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a small ensemble started a worker pool")

        ds, spec, cfg = self._setup(seed=413, n=60)
        serial = fit_ensemble(ds, spec, cfg, n_members=4, top_m=4, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        pooled = fit_ensemble(ds, spec, cfg, n_members=4, top_m=4, jobs=2)
        assert pooled.selected_indices == serial.selected_indices
        assert pooled.pool_validation_nlls.tolist() == serial.pool_validation_nlls.tolist()
        assert [serialize_model(m) for m in pooled.members] == [
            serialize_model(m) for m in serial.members
        ]

    def test_importing_the_cli_loads_no_process_pool(self):
        """Only ``fit_ensemble`` starting workers imports the pool, and with it multiprocessing."""
        import tramsurv

        src = str(Path(tramsurv.__file__).resolve().parent.parent)
        probe = (f"import sys; sys.path.insert(0, {src!r}); import tramsurv.cli; "
                 "print(sorted(m for m in sys.modules if 'multiprocessing' in m))")
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    @pytest.mark.parametrize("jobs, n_members, n_rows, epochs, workers", [
        (2, 6, 200, 80, 1),  # the bench ensemble workload: 96k
        (2, 10, 5_000, 2, 1),  # 100k
        (2, 10, 20_000, 2, 2),  # the 20k probe: 400k
        (2, 10, 100_000, 2, 2),  # the 100k probe: 2M
        (1, 10, 100_000, 2, 1),
        (2, 1, 100_000, 20, 1),  # one member is one stack at any size
        (64, 10, 100_000, 2, 10),  # no more workers than members
        (64, 10, 5_000, 2, 1),
    ])
    def test_workers_start_only_above_the_bound(self, jobs, n_members, n_rows, epochs, workers):
        assert _workers(jobs, n_members, n_rows, epochs) == workers

    def test_members_share_scaler(self):
        ds, spec, cfg = self._setup(seed=407)
        ens = fit_ensemble(ds, spec, cfg, n_members=3, top_m=3)
        scalers = {(m.scaler.a_lo, m.scaler.b_hi) for m in ens.members}
        assert len(scalers) == 1
        full = fit_scaler(ds)
        assert scalers == {(full.a_lo, full.b_hi)}

    def test_mixture_beats_median_member(self):
        """On a held-out set the averaged CDF scores at least as well as the
        median individual member (seeded run)."""
        rng = np.random.default_rng(487)
        train = _exponential_dataset(rng, 300)
        held_out = _exponential_dataset(rng, 200)
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=1),
        )
        cfg = TrainConfig(epochs=25, seed=6)
        ens = fit_ensemble(train, spec, cfg, n_members=10, top_m=5)

        def mean_nll(dist_for):
            return float(
                np.mean([log_score(dist_for(o), o) for o in held_out.observations])
            )

        ens_nll = mean_nll(lambda o: ens.conditional_distribution(o.covariates))
        member_nlls = [
            mean_nll(lambda o, m=m: conditional_distribution(m, o.covariates))
            for m in ens.members
        ]
        assert ens_nll <= float(np.median(member_nlls)) + 1e-12

    def test_ensemble_cdf_is_mean_of_members(self):
        ds, spec, cfg = self._setup(seed=411, n=60)
        ens = fit_ensemble(ds, spec, cfg, n_members=3, top_m=2)
        x = np.array([0.3, -0.4])
        t = np.geomspace(0.2, 4.0, 17)
        member_cdfs = np.stack(
            [conditional_distribution(m, x).cdf(t) for m in ens.members]
        )
        dist = ens.conditional_distribution(x)
        np.testing.assert_allclose(dist.cdf(t), member_cdfs.mean(axis=0), rtol=1e-12)


class TestEpochStatsOnDemand:
    """The epoch statistics are computed only when a callback or INFO logging reads them,
    and reading them changes no fitted number."""

    SPEC = ModelSpec(
        family=TargetFamily.MEV, parameterization=Parameterization.BERNSTEIN_SHIFT_SCALE,
        bernstein_order=4, extractor=ExtractorSpec(input_dim=2, hidden_dims=(4,), output_dim=2),
    )

    def test_ensemble_is_the_same_with_info_logging(self, caplog):
        ds = _exponential_dataset(np.random.default_rng(331), 80)
        config = TrainConfig(epochs=6, batch_size=16, early_stopping_patience=1, seed=3)

        def result():
            ens = fit_ensemble(ds, self.SPEC, config, n_members=4, top_m=2)
            return ([serialize_model(m) for m in ens.members], ens.selected_indices,
                    ens.pool_validation_nlls.tobytes(), ens.member_validation_nlls.tobytes())

        quiet = result()
        assert not caplog.records
        with caplog.at_level(logging.INFO, logger="tramsurv.fit"):
            logged = result()
        assert logged == quiet
        assert len([r for r in caplog.records if r.getMessage().startswith("epoch ")]) > 4

    def test_fit_epoch_stats_are_the_same_with_info_logging(self, caplog):
        ds = _exponential_dataset(np.random.default_rng(337), 80)
        config = TrainConfig(epochs=8, batch_size=16, early_stopping_patience=8, seed=4)
        quiet = []
        model = fit(ds, self.SPEC, config, callback=quiet.append)
        assert not caplog.records
        logged = []
        with caplog.at_level(logging.INFO, logger="tramsurv.fit"):
            logged_model = fit(ds, self.SPEC, config, callback=logged.append)
        assert len(quiet) == config.epochs
        for a, b in zip(quiet, logged, strict=True):
            assert [np.float64(getattr(a, f)).tobytes() for f in vars(a)] == \
                [np.float64(getattr(b, f)).tobytes() for f in vars(b)]
        assert serialize_model(logged_model) == serialize_model(model)
        lines = [r.getMessage() for r in caplog.records]
        assert lines == [
            f"epoch {s.epoch}, train_nll {s.train_nll:.6f}, val_nll {s.val_nll:.6f}, "
            f"grad_norm {s.grad_norm:.4f}, clipped {s.clipped}" for s in quiet
        ]

    @pytest.mark.parametrize("with_callback", [False, True])
    def test_non_finite_train_row_term_stops_in_its_epoch(self, with_callback, monkeypatch):
        """Only a training row's term turns infinite, after the steps of epoch 2: the
        epoch-end check raises in that epoch whether or not the train NLL is read."""
        fit_module = sys.modules["tramsurv.fit"]
        ds = _exponential_dataset(np.random.default_rng(347), 60)
        scaler = fit_scaler(ds)
        plan = _Plan.of_dataset(ds, self.SPEC, scaler)
        perm = np.random.default_rng(9).permutation(ds.n)
        members = [_Member(5, perm[15:], perm[:15]), _Member(6, perm[:45], perm[45:])]
        config = TrainConfig(epochs=6, batch_size=16, early_stopping_patience=6,
                             seed=5).resolved(self.SPEC)
        core = fit_module._nll_core
        epoch_ends = []

        def poisoned(spec, scaler, params, plan, grad=None):
            terms = core(spec, scaler, params, plan, grad)
            if grad is None:
                if len(epoch_ends) == 2:
                    terms[1, perm[0]] = np.inf  # a train row of the second member only
                epoch_ends.append(len(epoch_ends))
            return terms

        monkeypatch.setattr(fit_module, "_nll_core", poisoned)
        stats = []
        with pytest.raises(NonFiniteLoss, match="in epoch 2$"):
            _run_sgd(self.SPEC, scaler, plan, members, config,
                     stats.append if with_callback else None)
        assert epoch_ends == [0, 1, 2]
        assert [s.epoch for s in stats] == ([0, 0, 1, 1] if with_callback else [])
