from dataclasses import replace
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from tramsurv import target, transform
from tramsurv.basis import LogTimeScaler
from tramsurv.core import FittedModel, ModelSpec, Observation, Parameterization, SurvivalDataset
from tramsurv.errors import (
    BisectionNonConvergence,
    DimensionMismatch,
    NonFiniteCovariate,
    ProbabilityOutOfRange,
)
from tramsurv.feature import (
    ExtractorSpec,
    forward as extractor_forward,
    identity_params,
    init_params,
)
from tramsurv.numerics import logsumexp, softplus, softplus_inv
from tramsurv.target import TargetFamily
from tramsurv.transform import (
    ConditionalDistribution,
    _solve_increasing,
    coefficients,
    conditional_distribution,
    eval_transform,
    head_size,
    init_head,
)

SCALER01 = LogTimeScaler(0.0, 1.0)


def _spec(parameterization, family=TargetFamily.LOGISTIC, order=2, d=2, p=None):
    if parameterization == Parameterization.BASELINE:
        extractor = None
    else:
        if parameterization == Parameterization.BERNSTEIN_FLEXIBLE:
            d = order + 1
        extractor = ExtractorSpec(input_dim=p if p is not None else d, output_dim=d)
    return ModelSpec(
        family=family, parameterization=parameterization, bernstein_order=order,
        extractor=extractor,
    )


def _composed(spec, head, features, log_t, scaler):
    """The coefficient map composed with the one form, as training composes them.

    Returns h, dh/dlog t and the pullback of both to the flat head gradient
    and the feature sensitivities.
    """
    coef, coef_pullback = coefficients(spec, head, features)
    h, dh, pullback = eval_transform(spec, coef, None, log_t, scaler)
    return h, dh, lambda uh, ud: coef_pullback(pullback(uh, ud))


def _core(spec, head, features, t, scaler):
    """h and dh/dlog t at times t."""
    h, dh, _ = _composed(spec, head, features, np.log(t), scaler)
    return h, dh


def _head_fields(spec, head):
    """The named parts of a flat head vector, sliced by its documented layout."""
    k = spec.bernstein_order + 1
    d = spec.extractor.output_dim if spec.extractor is not None else 0
    names = {
        Parameterization.BASELINE: [("gamma", k)],
        Parameterization.LINEAR_SHIFT: [("a", 1), ("b_raw", 1), ("w", d)],
        Parameterization.LINEAR_SCALE: [("a", 1), ("w", d)],
        Parameterization.BERNSTEIN_SHIFT: [("gamma", k), ("w", d)],
        Parameterization.BERNSTEIN_SHIFT_SCALE: [("gamma", k), ("w", d), ("beta", d)],
        Parameterization.BERNSTEIN_FLEXIBLE: [],
    }[spec.parameterization]
    assert head.shape == (sum(size for _, size in names),)
    fields, pos = {}, 0
    for name, size in names:
        fields[name] = head[pos] if name in ("a", "b_raw") else head[pos : pos + size]
        pos += size
    return SimpleNamespace(**fields)


def _reference_h(spec, flat_head, f, t, scaler):
    """h(t | x) written from the definitions, in time, one row at a time."""
    order = spec.bernstein_order
    head = _head_fields(spec, flat_head)

    def bernstein(theta, u):
        # b(u)^T theta on [0, 1], extended linearly with the endpoint slope
        uc = min(max(u, 0.0), 1.0)
        value = sum(comb(order, k) * uc**k * (1 - uc) ** (order - k) * theta[k]
                    for k in range(order + 1))
        slope = order * sum(comb(order - 1, k) * uc**k * (1 - uc) ** (order - 1 - k)
                            * (theta[k + 1] - theta[k]) for k in range(order))
        return value + (u - uc) * slope

    def theta_of(gamma):
        return np.concatenate([[gamma[0]], gamma[0] + np.cumsum(softplus(gamma[1:]))])

    p = spec.parameterization
    out = []
    for ti, fi in zip(t, f):
        u = (np.log(ti) - scaler.a_lo) / (scaler.b_hi - scaler.a_lo)
        if p == Parameterization.LINEAR_SHIFT:
            out.append(head.a + softplus(head.b_raw) * np.log(ti) + fi @ head.w)
        elif p == Parameterization.LINEAR_SCALE:
            out.append(head.a + softplus(fi @ head.w) * np.log(ti))
        elif p == Parameterization.BASELINE:
            out.append(bernstein(theta_of(head.gamma), u))
        elif p == Parameterization.BERNSTEIN_SHIFT:
            out.append(bernstein(theta_of(head.gamma), u) + fi @ head.w)
        elif p == Parameterization.BERNSTEIN_SHIFT_SCALE:
            scale = softplus(fi @ head.beta)
            out.append(scale * bernstein(theta_of(head.gamma), u) + fi @ head.w)
        else:
            out.append(bernstein(theta_of(fi), u))
    return np.array(out)


class TestEvalTransform:
    def test_linear_shift_reference_point(self):
        spec = _spec(Parameterization.LINEAR_SHIFT)
        head = np.array([0.0, softplus_inv(1.0), 0.0, 0.0])
        h, dh = _core(spec, head, np.zeros(2), 1.0, SCALER01)
        np.testing.assert_allclose(h, [0.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dh, [1.0], rtol=1e-12)

    def test_linear_scale_reference_point(self):
        # softplus(0) = ln 2 scales log-time; at t = e that gives h = ln 2
        spec = _spec(Parameterization.LINEAR_SCALE)
        head = np.array([0.0, 0.0, 0.0])
        h, dh = _core(spec, head, np.zeros(2), np.e, SCALER01)
        np.testing.assert_allclose(h, [np.log(2.0)], rtol=1e-12)
        np.testing.assert_allclose(dh, [np.log(2.0)], rtol=1e-12)
        np.testing.assert_allclose(dh / np.e, [0.25499459743395353], rtol=1e-12)

    def test_bernstein_shift_reference_point(self):
        # gamma chosen so the coefficients are (0, 1, 2), a linear map 2u
        spec = _spec(Parameterization.BERNSTEIN_SHIFT, order=2)
        gamma = np.array([0.0, softplus_inv(1.0), softplus_inv(1.0)])
        head = np.concatenate([gamma, [0.0, 0.0]])
        t = float(np.exp(0.5))
        h, dh = _core(spec, head, np.zeros(2), t, SCALER01)
        np.testing.assert_allclose(h, [1.0], rtol=1e-12)
        np.testing.assert_allclose(dh, [2.0], rtol=1e-12)
        np.testing.assert_allclose(dh / t, [1.2130613194252668], rtol=1e-12)

    def test_flexible_rejects_wrong_output_dim(self):
        spec = _spec(Parameterization.BERNSTEIN_FLEXIBLE, order=3)
        head = init_head(spec)
        with pytest.raises(DimensionMismatch):
            coefficients(spec, head, np.zeros(2))

    def test_monotone_in_time_all_parameterizations(self):
        """dh/dlog t stays positive for random parameters, inside and outside range."""
        rng = np.random.default_rng(101)
        scaler = LogTimeScaler(np.log(0.2), np.log(9.0))
        t = np.geomspace(0.01, 80.0, 60)  # spans well beyond the scaler range
        for parameterization in Parameterization:
            spec = _spec(parameterization, order=4)
            for _ in range(5):
                head = init_head(spec) + rng.normal(scale=0.8, size=head_size(spec))
                d = spec.extractor.output_dim if spec.extractor else 0
                features = rng.normal(size=d)
                h, dh = _core(spec, head, features, t, scaler)
                assert np.all(dh > 0.0), parameterization
                assert np.all(np.diff(h) > 0.0), parameterization

    def test_matches_log_time_form(self):
        """h of log t agrees with the definitions written in t, inside and outside range."""
        rng = np.random.default_rng(103)
        scaler = LogTimeScaler(np.log(0.5), np.log(4.0))
        t = np.geomspace(0.05, 40.0, 25)
        for parameterization in Parameterization:
            spec = _spec(parameterization, order=3)
            head = init_head(spec) + rng.normal(scale=0.5, size=head_size(spec))
            d = spec.extractor.output_dim if spec.extractor else 0
            features = rng.normal(size=(t.size, d))
            h, _ = _core(spec, head, features, t, scaler)
            np.testing.assert_allclose(
                h, _reference_h(spec, head, features, t, scaler), rtol=1e-12, atol=1e-12,
                err_msg=str(parameterization),
            )


class TestGradTransform:
    def test_linear_shift_closed_form(self):
        spec = _spec(Parameterization.LINEAR_SHIFT)
        head = np.array([0.3, 0.4, 0.5, -0.2])
        features = np.array([[1.5, -0.7]])
        _, _, pullback = _composed(spec, head, features, np.log([2.0]), SCALER01)
        grad, _ = pullback(np.ones(1), np.zeros(1))
        a, b_raw, w = grad[0], grad[1], grad[2:]
        np.testing.assert_allclose(a, 1.0)
        np.testing.assert_allclose(w, features[0])
        sig = 1.0 / (1.0 + np.exp(-0.4))
        np.testing.assert_allclose(b_raw, sig * np.log(2.0), rtol=1e-12)

    def test_zero_upstream_zero_gradient(self):
        rng = np.random.default_rng(107)
        for parameterization in Parameterization:
            spec = _spec(parameterization, order=3)
            head = init_head(spec)
            d = spec.extractor.output_dim if spec.extractor else 0
            features = rng.normal(size=(4, d))
            log_t = np.log(rng.uniform(0.5, 3.0, size=4))
            _, _, pullback = _composed(spec, head, features, log_t, SCALER01)
            grad, dfeat = pullback(np.zeros(4), np.zeros(4))
            np.testing.assert_array_equal(grad, np.zeros(head_size(spec)))
            np.testing.assert_array_equal(dfeat, np.zeros((4, d)))

    def test_matches_finite_differences(self):
        """dh/dlog t, and the pullback of c_h h + c_d dh/dlog t, against central
        differences for every parameterization, at log-times inside and outside
        the scaler range."""
        rng = np.random.default_rng(109)
        scaler = LogTimeScaler(np.log(0.3), np.log(6.0))
        log_t = np.log([0.05, 0.4, 2.0, 5.0, 40.0])

        def central(fn, x, i):
            step = 1e-6 * (1.0 + abs(x.flat[i]))
            hi, lo = x.copy(), x.copy()
            hi.flat[i] += step
            lo.flat[i] -= step
            return (fn(hi) - fn(lo)) / (2 * step)

        for parameterization in Parameterization:
            spec = _spec(parameterization, order=3)
            flat = init_head(spec) + rng.normal(scale=0.5, size=head_size(spec))
            d = spec.extractor.output_dim if spec.extractor else 0
            features = rng.normal(size=(5, d))
            uh = rng.normal(size=5)
            ud = rng.normal(size=5)

            def core(flat_head, feats, at=log_t):
                return _composed(spec, flat_head, feats, at, scaler)

            def objective(flat_head, feats):
                h, dh, _ = core(flat_head, feats)
                return float(np.sum(uh * h + ud * dh))

            _, dh, pullback = core(flat, features)
            for r in range(log_t.size):
                fd = central(lambda v: core(flat, features[r], v)[0][0], log_t[r : r + 1], 0)
                np.testing.assert_allclose(
                    dh[r], fd, rtol=1e-5, err_msg=f"{parameterization} dh/dlog t row {r}"
                )
            grad, dfeat = pullback(uh, ud)
            for i in range(flat.size):
                fd = central(lambda v: objective(v, features), flat, i)
                np.testing.assert_allclose(grad[i], fd, rtol=1e-5, atol=1e-7,
                                           err_msg=f"{parameterization} head[{i}]")
            for i in range(features.size):
                fd = central(lambda v: objective(flat, v), features, i)
                np.testing.assert_allclose(dfeat.flat[i], fd, rtol=1e-5, atol=1e-7,
                                           err_msg=f"{parameterization} features.flat[{i}]")


def _exponential_model():
    """LinearShift MEV head reproducing the standard exponential distribution."""
    spec = ModelSpec(
        family=TargetFamily.MEV,
        parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=1, output_dim=1),
    )
    return FittedModel(
        spec=spec,
        scaler=LogTimeScaler(0.0, 1.0),
        head_params=np.array([0.0, softplus_inv(1.0), 0.0]),
        extractor_params=identity_params(spec.extractor),
        train_nll=0.0,
        validation_nll=0.0,
    )


class TestConditionalDistribution:
    def test_standard_exponential_cdf(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        np.testing.assert_allclose(dist.cdf(1.0), 1.0 - np.exp(-1.0), rtol=1e-12)

    def test_standard_exponential_median(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        np.testing.assert_allclose(dist.quantile(0.5), np.log(2.0), rtol=1e-10)

    def test_boundary_values(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        assert dist.cdf(0.0) == 0.0
        assert dist.survivor(0.0) == 1.0
        assert dist.cdf(np.inf) == 1.0
        assert dist.survivor(np.inf) == 0.0

    def test_pdf_matches_cdf_slope(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        t = np.linspace(0.2, 4.0, 15)
        step = 1e-6
        fd = (dist.cdf(t + step) - dist.cdf(t - step)) / (2 * step)
        np.testing.assert_allclose(dist.pdf(t), fd, rtol=1e-6)

    def test_quantile_cdf_round_trip(self):
        """quantile(cdf(t)) = t to 1e-8 across random models in training range."""
        rng = np.random.default_rng(127)
        scaler = LogTimeScaler(np.log(0.2), np.log(12.0))
        for parameterization in Parameterization:
            for family in TargetFamily:
                spec = _spec(parameterization, family=family, order=3, p=2)
                if spec.extractor is not None:
                    spec = ModelSpec(
                        family=family, parameterization=parameterization, bernstein_order=3,
                        extractor=ExtractorSpec(
                            input_dim=2, output_dim=spec.extractor.output_dim
                        ),
                    )
                flat = init_head(spec) + 0.3 * rng.normal(size=head_size(spec))
                ext = (
                    init_params(spec.extractor, 5)
                    if spec.extractor is not None
                    else np.zeros(0)
                )
                model = FittedModel(
                    spec=spec, scaler=scaler, head_params=flat, extractor_params=ext,
                    train_nll=0.0, validation_nll=0.0,
                )
                dist = conditional_distribution(model, rng.normal(size=2))
                t = np.geomspace(0.3, 10.0, 9)
                np.testing.assert_allclose(
                    dist.quantile(dist.cdf(t)), t, rtol=1e-8,
                    err_msg=f"{parameterization}/{family}",
                )

    @pytest.mark.parametrize("family", list(TargetFamily))
    def test_tail_quantiles_round_trip(self, family):
        """Below h(a_lo) and above h(b_hi), quantile(cdf(t)) = t to 1e-12 at a theta offset of 1e6.

        There theta's spacing is 1.2e-10, so its differences hold increments of
        1e-3 to seven digits: the tails' closed-form inverse and h beyond the
        range both read the increments, not theta's differences.
        """
        order = 6
        increments = np.full(order, 1e-3)
        theta = 1e6 + np.concatenate([[0.0], np.cumsum(increments)])
        c = -1e6 + np.array([[-0.5], [0.0], [0.25]])
        coef = transform.Coefficients(theta, increments, 1.0, c[:, 0], None)
        scaler = LogTimeScaler(np.log(0.5), np.log(4.0))
        dist = ConditionalDistribution(_spec(Parameterization.BASELINE, family, order), coef,
                                       scaler)
        steps = np.geomspace(1e-3, 30.0, 6)
        log_t = np.concatenate([scaler.a_lo - steps, scaler.b_hi + steps])
        t = np.exp(np.broadcast_to(log_t, (3, log_t.size)))
        h_ends = theta[[0, -1]] + c  # h(a_lo) and h(b_hi) of each subject
        assert np.all(dist.cdf(t[:, :6]) < target.cdf(family, h_ends[:, :1]))
        assert np.all(dist.cdf(t[:, 6:]) > target.cdf(family, h_ends[:, 1:]))
        np.testing.assert_allclose(dist.quantile(dist.cdf(t)), t, rtol=1e-12)

    def test_quantile_rejects_boundaries(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        for p in (0.0, 1.0):
            with pytest.raises(ProbabilityOutOfRange):
                dist.quantile(p)

    def test_baseline_ignores_covariates(self):
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
            bernstein_order=4,
        )
        model = FittedModel(
            spec=spec, scaler=SCALER01, head_params=init_head(spec),
            extractor_params=np.zeros(0), train_nll=0.0, validation_nll=0.0,
        )
        t = np.geomspace(0.5, 2.5, 11)
        ref = conditional_distribution(model, np.array([0.0, 0.0])).cdf(t)
        for x in ([1.0, -1.0], [5.0, 3.0], [-2.0, 0.4]):
            np.testing.assert_array_equal(conditional_distribution(model, x).cdf(t), ref)

    def test_input_dim_validated(self):
        model = _exponential_model()
        with pytest.raises(DimensionMismatch):
            conditional_distribution(model, np.zeros(3))


class TestClosedFormFamilies:
    """LinearShift reduces to Weibull (MEV) and log-logistic (Logistic)."""

    def _linear_shift_model(self, family, a, b, w):
        spec = ModelSpec(
            family=family, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=len(w), output_dim=len(w)),
        )
        return FittedModel(
            spec=spec, scaler=LogTimeScaler(0.0, 1.0),
            head_params=np.concatenate([[a, softplus_inv(b)], w]),
            extractor_params=identity_params(spec.extractor),
            train_nll=0.0, validation_nll=0.0,
        )

    def test_weibull_equivalence(self):
        a, b = 0.3, 1.7
        w = np.array([0.5, -0.4])
        x = np.array([0.8, 1.1])
        model = self._linear_shift_model(TargetFamily.MEV, a, b, w)
        dist = conditional_distribution(model, x)
        shift = a + float(x @ w)
        lam = np.exp(-shift / b)
        t = np.geomspace(0.01, 40.0, 1000)
        weibull_cdf = 1.0 - np.exp(-((t / lam) ** b))
        np.testing.assert_allclose(dist.cdf(t), weibull_cdf, rtol=0, atol=1e-10)

    def test_log_logistic_equivalence(self):
        a, b = -0.2, 2.2
        w = np.array([0.3])
        x = np.array([-0.9])
        model = self._linear_shift_model(TargetFamily.LOGISTIC, a, b, w)
        dist = conditional_distribution(model, x)
        shift = a + float(x @ w)
        alpha = np.exp(-shift / b)
        t = np.geomspace(0.01, 40.0, 1000)
        loglogistic_cdf = 1.0 / (1.0 + (t / alpha) ** (-b))
        np.testing.assert_allclose(dist.cdf(t), loglogistic_cdf, rtol=0, atol=1e-10)


def _random_model(parameterization, family, rng, p=3, order=4):
    """A model with perturbed head and a one-hidden-layer extractor."""
    extractor = None
    if parameterization != Parameterization.BASELINE:
        d = order + 1 if parameterization == Parameterization.BERNSTEIN_FLEXIBLE else 2
        extractor = ExtractorSpec(input_dim=p, hidden_dims=(5,), output_dim=d)
    spec = ModelSpec(
        family=family, parameterization=parameterization, bernstein_order=order,
        extractor=extractor,
    )
    return FittedModel(
        spec=spec, scaler=LogTimeScaler(np.log(0.2), np.log(12.0)),
        head_params=init_head(spec) + 0.3 * rng.normal(size=head_size(spec)),
        extractor_params=(
            init_params(extractor, int(rng.integers(1000))) if extractor else np.zeros(0)
        ),
        train_nll=0.0, validation_nll=0.0,
    )


class TestBatchedDistribution:
    """One distribution over n subjects against the per-subject loop."""

    N_SUBJECTS = 23

    @pytest.mark.parametrize("family", list(TargetFamily))
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_matches_per_subject_loop(self, parameterization, family):
        rng = np.random.default_rng(131)
        model = _random_model(parameterization, family, rng)
        x = rng.normal(size=(self.N_SUBJECTS, 3))
        batch = conditional_distribution(model, x)
        singles = [conditional_distribution(model, row) for row in x]

        medians = batch.quantile(np.full(self.N_SUBJECTS, 0.5))
        np.testing.assert_array_equal(medians, [d.quantile(0.5) for d in singles])

        grid = np.exp(np.linspace(model.scaler.a_lo, model.scaler.b_hi, 200))
        cdf = batch.cdf(np.broadcast_to(grid, (self.N_SUBJECTS, grid.size)))
        np.testing.assert_allclose(cdf, [d.cdf(grid) for d in singles], rtol=0, atol=1e-15)

        u = rng.uniform(0.001, 0.999, size=(self.N_SUBJECTS, 10))
        np.testing.assert_allclose(
            batch.quantile(u), [d.quantile(row) for d, row in zip(singles, u)], rtol=1e-11
        )

    def test_ensemble_median_matches_per_subject_loop(self):
        from tramsurv.fit import EnsembleModel

        rng = np.random.default_rng(137)
        members = [
            _random_model(Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.MEV, rng)
            for _ in range(3)
        ]
        ensemble = EnsembleModel(members=members)
        x = rng.normal(size=(self.N_SUBJECTS, 3))
        medians = ensemble.conditional_distribution(x).quantile(np.full(self.N_SUBJECTS, 0.5))
        loop = [ensemble.conditional_distribution(row).quantile(0.5) for row in x]
        np.testing.assert_array_equal(medians, loop)

    def test_subject_slices_a_batch(self):
        rng = np.random.default_rng(139)
        model = _random_model(Parameterization.LINEAR_SCALE, TargetFamily.LOGISTIC, rng)
        x = rng.normal(size=(4, 3))
        t = np.geomspace(0.3, 10.0, 7)
        batch = conditional_distribution(model, x)
        for i in range(4):
            np.testing.assert_array_equal(
                batch.subject(i).log_pdf(t), conditional_distribution(model, x[i]).log_pdf(t)
            )

    @pytest.mark.parametrize("shape", [(2, 4, 3), (4, 2), (4, 4)])
    def test_bad_covariate_shape_rejected(self, shape):
        model = _random_model(Parameterization.LINEAR_SHIFT, TargetFamily.LOGISTIC,
                              np.random.default_rng(141))
        with pytest.raises(DimensionMismatch) as info:
            conditional_distribution(model, np.zeros(shape))
        assert info.value.code == "E_DIMENSION_MISMATCH"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3,), (4, 3)])
    def test_non_finite_covariate_rejected(self, shape, bad):
        model = _random_model(Parameterization.LINEAR_SHIFT, TargetFamily.LOGISTIC,
                              np.random.default_rng(142))
        x = np.zeros(shape)
        x[..., -1] = bad
        with pytest.raises(NonFiniteCovariate) as info:
            conditional_distribution(model, x)
        assert info.value.code == "E_NON_FINITE_COVARIATE"

    def test_times_must_match_subjects(self):
        model = _random_model(Parameterization.LINEAR_SHIFT, TargetFamily.LOGISTIC,
                              np.random.default_rng(143))
        batch = conditional_distribution(model, np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            batch.cdf(np.ones(3))
        with pytest.raises(DimensionMismatch):
            batch.quantile(0.5)

    def test_only_times_with_two_axes_are_shared(self):
        """Scalar and 1-D times are not shared by a batch, nor are a quantile's probabilities."""
        model = _random_model(Parameterization.BERNSTEIN_SHIFT, TargetFamily.LOGISTIC,
                              np.random.default_rng(144))
        batch = conditional_distribution(model, np.zeros((4, 3)))
        for t in (1.0, np.array([1.0])):
            with pytest.raises(DimensionMismatch):
                batch.cdf(t)
        with pytest.raises(DimensionMismatch):
            batch.quantile(np.full((1, 5), 0.5))
        assert batch.cdf(np.ones((1, 5))).shape == (4, 5)


class TestBatchInvariance:
    """A subject's numbers are the same bits alone, in a batch of any size, and permuted."""

    SIZES = (2, 7, 37, 300)

    @staticmethod
    def _per_subject(dist, t, p, u):
        """Coefficients, (h, dh), cdf, log_pdf and quantile, one row or column per subject."""
        h, dh = dist.h_at_log_time(u, np.arange(u.size) if dist.n_subjects else None)
        return {
            "coefficients": [
                np.concatenate([np.ravel(v) for v in dist.subject(i).coef if v is not None])
                for i in range(u.size)
            ],
            "h": h,
            "dh": dh,
            "cdf": dist.cdf(t),
            "log_pdf": dist.log_pdf(t),
            "quantile": dist.quantile(p),
        }

    def _assert_invariant(self, model, rng):
        x = rng.normal(size=(max(self.SIZES), 3))
        t = np.exp(rng.uniform(np.log(0.05), np.log(30.0), size=x.shape[0]))
        p = rng.uniform(0.001, 0.999, size=x.shape[0])
        u = np.log(t)
        alone = [
            self._per_subject(conditional_distribution(model, x[i]), t[i], p[i], u[i : i + 1])
            for i in range(x.shape[0])
        ]
        perm = rng.permutation(x.shape[0])
        batches = [np.arange(n) for n in self.SIZES] + [perm]
        for rows in batches:
            got = self._per_subject(conditional_distribution(model, x[rows]), t[rows], p[rows],
                                    u[rows])
            for name, values in got.items():
                if values is None:
                    continue
                expected = [np.ravel(alone[i][name]) for i in rows]
                np.testing.assert_array_equal(
                    np.reshape(values, (rows.size, -1)), expected,
                    err_msg=f"{name}, batch of {rows.size}",
                )

    @pytest.mark.parametrize("family", list(TargetFamily))
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_subject_alone_in_batch_and_permuted(self, parameterization, family):
        rng = np.random.default_rng(157)
        self._assert_invariant(_random_model(parameterization, family, rng, order=8), rng)

    def test_ensemble_medians(self):
        from tramsurv.fit import EnsembleModel

        rng = np.random.default_rng(163)
        members = [
            _random_model(Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.MEV, rng, order=8)
            for _ in range(3)
        ]
        ensemble = EnsembleModel(members=members)
        x = rng.normal(size=(max(self.SIZES), 3))
        alone = [ensemble.conditional_distribution(row).quantile(0.5) for row in x]
        perm = rng.permutation(x.shape[0])
        for rows in [np.arange(n) for n in self.SIZES] + [perm]:
            medians = ensemble.conditional_distribution(x[rows]).quantile(np.full(rows.size, 0.5))
            np.testing.assert_array_equal(medians, np.take(alone, rows))



def _log_pdf_ref(family, h, dh, log_t):
    return target.log_density(family, h) + np.log(dh) - log_t


# name: (value from (family, h, dh/dlog t, log t), limit at t <= 0, limit at t = +inf)
_EVALUATIONS = {
    "cdf": (lambda family, h, dh, log_t: target.cdf(family, h), 0.0, 1.0),
    "survivor": (lambda family, h, dh, log_t: target.survivor(family, h), 1.0, 0.0),
    "log_cdf": (lambda family, h, dh, log_t: target.log_cdf(family, h), -np.inf, 0.0),
    "log_survivor": (lambda family, h, dh, log_t: target.log_survivor(family, h), 0.0, -np.inf),
    "log_pdf": (_log_pdf_ref, -np.inf, -np.inf),
    "pdf": (lambda *args: np.exp(_log_pdf_ref(*args)), 0.0, 0.0),
}


def _gathered(dist, t, name):
    """Per-node gathering: every positive, finite time takes its subject's coefficient row."""
    of_transform, at_zero, at_inf = _EVALUATIONS[name]
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    zero, infinite = t <= 0.0, np.isposinf(t)
    inside = ~zero & ~infinite
    out[zero], out[infinite] = at_zero, at_inf
    rows = None if dist.n_subjects is None else np.nonzero(inside)[0]
    log_t = np.log(t[inside])
    h, dh, _ = eval_transform(dist.spec, dist.coef, rows, log_t, dist.scaler)
    out[inside] = of_transform(dist.spec.family, h, dh, log_t)
    return out


def _times_with_limits(rng, shape):
    """Times inside and far outside the scaler range, with 0, -1, +inf and NaN in place."""
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=shape)).ravel()
    t[rng.choice(t.size, size=4, replace=False)] = [0.0, -1.0, np.inf, np.nan]
    return t.reshape(shape)


def _assert_same_bits(got, expected, msg=""):
    """Same shape, NaN at the same places, and the same bits everywhere else.

    A NaN's sign bit depends on whether it falls in a SIMD lane or the scalar
    tail of a numpy loop (``sigmoid`` of an 11-row array gives -nan in rows
    0-7 and nan in rows 8-10), so NaNs compare as one value.
    """
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape, msg
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected), err_msg=msg)
    np.testing.assert_array_equal(
        np.where(np.isnan(got), np.nan, got).view(np.int64),
        np.where(np.isnan(expected), np.nan, expected).view(np.int64), err_msg=msg,
    )


class TestBroadcastEvaluation:
    """Broadcasting each subject's coefficients gives the bits of per-node gathering."""

    N_SUBJECTS = 11

    @pytest.mark.parametrize("family", list(TargetFamily))
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_batch_matches_per_node_gathering(self, parameterization, family):
        rng = np.random.default_rng(167)
        model = _random_model(parameterization, family, rng, order=8)
        dist = conditional_distribution(model, rng.normal(size=(self.N_SUBJECTS, 3)))
        for shape in [(self.N_SUBJECTS,), (self.N_SUBJECTS, 7)]:
            t = _times_with_limits(rng, shape)
            for name in _EVALUATIONS:
                with np.errstate(all="ignore"):
                    expected = _gathered(dist, t, name)
                _assert_same_bits(getattr(dist, name)(t), expected, f"{name} at {shape}")

    def test_shared_coefficients_on_a_3d_time_array(self):
        rng = np.random.default_rng(173)
        model = _random_model(Parameterization.BASELINE, TargetFamily.MEV, rng, order=8)
        dist = conditional_distribution(model, rng.normal(size=(5, 3)))
        assert dist.n_subjects is None
        t = _times_with_limits(rng, (3, 4, 5))
        for name in _EVALUATIONS:
            with np.errstate(all="ignore"):
                expected = _gathered(dist, t, name)
            _assert_same_bits(getattr(dist, name)(t), expected, name)

    @staticmethod
    def _assert_shared_times_match_repeated_times(dist, rng):
        """Times (1, m) give the bits of the same row repeated for each subject.

        A baseline batch gives one row, which every subject shares.
        """
        t = _times_with_limits(rng, (1, 40))
        repeated = np.broadcast_to(t, (TestBroadcastEvaluation.N_SUBJECTS, 40))
        for name in ("cdf", "survivor", "log_cdf", "log_pdf"):
            with np.errstate(all="ignore"):
                shared, expected = getattr(dist, name)(t), getattr(dist, name)(repeated)
            _assert_same_bits(np.broadcast_to(shared, expected.shape), expected, name)

    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_shared_times_match_repeated_times(self, parameterization):
        rng = np.random.default_rng(193)
        model = _random_model(parameterization, TargetFamily.MEV, rng, order=8)
        dist = conditional_distribution(model, rng.normal(size=(self.N_SUBJECTS, 3)))
        self._assert_shared_times_match_repeated_times(dist, rng)

    @pytest.mark.parametrize("parameterization", [
        Parameterization.BERNSTEIN_SHIFT_SCALE, Parameterization.BERNSTEIN_FLEXIBLE,
        Parameterization.LINEAR_SCALE])
    def test_shared_times_of_an_ensemble_match_repeated_times(self, parameterization):
        from tramsurv.fit import EnsembleDistribution

        rng = np.random.default_rng(197)
        x = rng.normal(size=(self.N_SUBJECTS, 3))
        mixture = EnsembleDistribution([
            conditional_distribution(
                _random_model(parameterization, TargetFamily.LOGISTIC, rng, order=8), x)
            for _ in range(3)
        ])
        self._assert_shared_times_match_repeated_times(mixture, rng)

    @pytest.mark.parametrize("n_members", [1, 2, 3, 5])
    def test_ensemble_mixture_matches_stacked_members(self, n_members):
        from tramsurv.fit import EnsembleDistribution

        rng = np.random.default_rng(179 + n_members)
        x = rng.normal(size=(self.N_SUBJECTS, 3))
        members = [
            conditional_distribution(
                _random_model(Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.LOGISTIC,
                              rng, order=8), x)
            for _ in range(n_members)
        ]
        mixture = EnsembleDistribution(members)
        for shape in [(self.N_SUBJECTS,), (self.N_SUBJECTS, 7)]:
            t = _times_with_limits(rng, shape)
            for name in _EVALUATIONS:
                with np.errstate(all="ignore"):
                    stacked = np.stack([getattr(m, name)(t) for m in members])
                    expected = (logsumexp(stacked, axis=0) - np.log(n_members)
                                if name.startswith("log") else np.mean(stacked, axis=0))
                _assert_same_bits(getattr(mixture, name)(t), expected, f"{name} at {shape}")

    @pytest.mark.parametrize("ensemble", [False, True])
    def test_crps_gathers_no_more_rows_than_subjects(self, monkeypatch, ensemble):
        from tramsurv.fit import EnsembleDistribution
        from tramsurv.metrics import crps

        rng = np.random.default_rng(191)
        x = rng.normal(size=(64, 3))
        models = [_random_model(Parameterization.LINEAR_SHIFT, TargetFamily.LOGISTIC, rng)
                  for _ in range(3 if ensemble else 1)]
        dists = [conditional_distribution(m, x) for m in models]
        dist = EnsembleDistribution(dists) if ensemble else dists[0]
        taken = []
        take = transform.Coefficients.take

        def counting_take(self, rows):
            out = take(self, rows)
            taken.append(out.n_rows or 1)
            return out

        monkeypatch.setattr(transform.Coefficients, "take", counting_take)
        times = np.exp(rng.uniform(np.log(0.3), np.log(10.0), size=64))
        scores = crps(dist, times, rng.random(64) < 0.7, 12.0)
        assert np.all(np.isfinite(scores))
        assert taken and max(taken) <= 64

def _reference_bisect(fn, targets, lo, hi, steps=200):
    """The bisection the Newton solver replaced: fn(u, rows) gives values only."""
    targets = np.asarray(targets, dtype=float)
    lo = np.full_like(targets, lo)
    hi = np.full_like(targets, hi)
    for bound, outside, sign in ((lo, np.greater, -1.0), (hi, np.less, 1.0)):
        step = np.maximum(hi - lo, 1.0)
        rows = np.arange(targets.size)
        for _ in range(steps):
            rows = rows[outside(fn(bound[rows], rows), targets[rows])]
            if rows.size == 0:
                break
            bound[rows] += sign * step[rows]
            step[rows] *= 2.0
        assert rows.size == 0
    rows = np.arange(targets.size)
    for _ in range(steps):
        mid = 0.5 * (lo[rows] + hi[rows])
        below = fn(mid, rows) < targets[rows]
        lo[rows[below]] = mid[below]
        hi[rows[~below]] = mid[~below]
        done = hi[rows] - lo[rows] <= 1e-12 * np.maximum(1.0, np.abs(mid))
        rows = rows[~done]
        if rows.size == 0:
            return 0.5 * (lo + hi)
    raise AssertionError("reference bisection did not converge")


class TestBisection:
    def test_unbracketed_target_raises(self):
        """A target beyond a slope that underflowed to 0 has no root and fails with a code.

        softplus(-800) is exactly 0: the baseline's lower tail is flat at
        theta_0 = -2, and the linear_scale model's h is the constant a.  The
        suite turns a RuntimeWarning into an error, so these also show that
        no division by the zero slope warns.
        """
        from tramsurv.fit import EnsembleModel

        baseline = ModelSpec(family=TargetFamily.LOGISTIC,
                             parameterization=Parameterization.BASELINE, bernstein_order=4)
        head = init_head(baseline)
        head[1] = -800.0
        flat_tail = FittedModel(spec=baseline, scaler=SCALER01, head_params=head,
                                extractor_params=np.zeros(0), train_nll=0.0, validation_nll=0.0)
        scale = ModelSpec(family=TargetFamily.LOGISTIC,
                          parameterization=Parameterization.LINEAR_SCALE,
                          extractor=ExtractorSpec(input_dim=1, output_dim=1))
        flat = FittedModel(spec=scale, scaler=SCALER01, head_params=np.array([0.3, 800.0]),
                           extractor_params=identity_params(scale.extractor),
                           train_nll=0.0, validation_nll=0.0)
        healthy = replace(flat, head_params=np.array([0.3, 0.5]))
        mixture = EnsembleModel(members=[healthy, flat])
        x = np.array([-1.0])  # f . w = -800 for the linear_scale model
        assert conditional_distribution(flat, x).coef.m == 0.0
        for dist, p in [
            (conditional_distribution(flat_tail, x), 0.01),  # z = -4.6, below theta_0
            (conditional_distribution(flat, x), 0.5),
            (conditional_distribution(flat, x[None, :]), np.array([0.5])),
            (mixture.conditional_distribution(x), 0.5),
        ]:
            with pytest.raises(BisectionNonConvergence) as info:
                dist.quantile(p)
            assert info.value.code == "E_BISECTION_NON_CONVERGENCE"

    def test_root_beyond_the_largest_float_raises(self):
        """A nearly flat upper tail puts the root past exp(709.78); it fails with a code.

        gamma_4 = -34 makes the upper tail slope of h about 1e-14, so the 0.999
        quantile's log-time is far beyond log of the largest float.  One
        probability, a batch and an ensemble raise, and exp warns of no overflow.
        """
        import warnings

        from tramsurv.fit import EnsembleModel

        spec = ModelSpec(family=TargetFamily.LOGISTIC,
                         parameterization=Parameterization.BASELINE, bernstein_order=4)
        model = FittedModel(spec=spec, scaler=LogTimeScaler(0.0, 5.0),
                            head_params=np.array([-2.0, 0.5, 0.5, 0.5, -34.0]),
                            extractor_params=np.zeros(0), train_nll=0.0, validation_nll=0.0)
        x = np.zeros(1)
        dist = conditional_distribution(model, x)
        mixture = EnsembleModel(members=[model, model]).conditional_distribution(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(dist.quantile(0.5)) and np.isfinite(mixture.quantile(0.5))
            for d in (dist, mixture):
                for p in (0.999, np.array([0.5, 0.999, 0.9999])):
                    with pytest.raises(BisectionNonConvergence, match="overflow") as info:
                        d.quantile(p)
                    assert info.value.code == "E_BISECTION_NON_CONVERGENCE"

    @pytest.mark.parametrize("family", list(TargetFamily))
    def test_root_below_the_smallest_subnormal_raises(self, family):
        """A root whose time would underflow to 0 fails with the overflow's code.

        h = s log t for linear_shift models of slope s = 0.5 and 2, a baseline of lower
        tail slope 0.4 and a mixture of the two linear models, at p over [5e-324, 1e-30].
        Each call gives a finite positive t or the code (the mixture's solve of a root
        far below the range runs out of steps first).  For a t, log p lies between
        the log-CDFs of t's two float neighbours, give or take 1e-8: the solver's
        tolerance in log-time (1e-12 |log t|) times a slope of at most 2.
        """
        from tramsurv.fit import EnsembleModel

        spec = _spec(Parameterization.LINEAR_SHIFT, family, d=1)
        linear = [FittedModel(spec=spec, scaler=SCALER01,
                              head_params=np.array([0.0, softplus_inv(slope), 0.0]),
                              extractor_params=identity_params(spec.extractor),
                              train_nll=0.0, validation_nll=0.0) for slope in (0.5, 2.0)]
        baseline = ModelSpec(family=family, parameterization=Parameterization.BASELINE,
                             bernstein_order=4)
        head = init_head(baseline)
        head[1] = softplus_inv(0.1)  # first increment 0.1: slope 4 * 0.1 below a_lo
        flat_tail = replace(linear[0], spec=baseline, head_params=head,
                            extractor_params=np.zeros(0))
        x = np.zeros(1)
        dists = [conditional_distribution(m, x) for m in (*linear, flat_tail)]
        dists.append(EnsembleModel(members=linear).conditional_distribution(x))
        outcomes = []
        for dist in dists:
            for p in np.geomspace(5e-324, 1e-30, 30):
                try:
                    t = dist.quantile(p)
                except BisectionNonConvergence as exc:
                    assert exc.code == "E_BISECTION_NON_CONVERGENCE"
                    outcomes.append("code")
                    continue
                assert np.isfinite(t) and t > 0.0
                below, above = np.nextafter(t, 0.0), np.nextafter(t, np.inf)
                assert dist.log_cdf(below) <= np.log(p) + 1e-8 <= dist.log_cdf(above) + 2e-8
                outcomes.append("t")
        assert {"code", "t"} <= set(outcomes)
        with pytest.raises(BisectionNonConvergence, match="underflow"):
            dists[0].quantile(np.array([0.5, 1e-300]))  # slope 0.5: t near 1e-600
        assert dists[1].quantile(1e-300) > 0.0  # slope 2: t near 1e-150

    def test_unconverged_bracket_raises(self):
        # the reported slope throws every Newton step out of the bracket, so
        # 1e300 wide around the root needs about 1000 halvings
        with pytest.raises(BisectionNonConvergence):
            _solve_increasing(
                lambda u, rows: (u, np.full_like(u, 1e-300)), np.ones(1), -1e300, 1e300
            )

    def test_rows_solved_independently(self):
        targets = np.array([-3.0, 0.1, 7.5])

        def cube(u, rows):
            return u**3, 3.0 * u**2

        alone = [_solve_increasing(cube, targets[i : i + 1], -2.0, 2.0)[0] for i in range(3)]
        np.testing.assert_array_equal(_solve_increasing(cube, targets, -2.0, 2.0), alone)

    def test_vanishing_slope_at_the_root_converges(self):
        # u**3 has slope 0 at its root 0, where Newton converges only linearly
        targets = np.array([0.0, 1e-30, -1e-30, 1e-18, -1e-9, 1e-3])
        u = _solve_increasing(lambda u, rows: (u**3, 3.0 * u**2), targets, -1.0, 1.0)
        np.testing.assert_allclose(u, np.cbrt(targets), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("family", list(TargetFamily))
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_quantiles_match_the_reference_bisection(self, parameterization, family,
                                                     monkeypatch):
        rng = np.random.default_rng(149)
        model = _random_model(parameterization, family, rng)
        n = 17
        x = rng.normal(size=(n, 3))
        batch = conditional_distribution(model, x)
        # the last two columns target times outside the scaler range [0.2, 12]
        outside = batch.cdf(np.broadcast_to([0.02, 15.0], (n, 2)))
        p = np.column_stack([rng.uniform(0.001, 0.999, size=(n, 6)), outside])
        assert np.all(p < 1.0)
        subjects = np.repeat(np.arange(n), p.shape[1])
        reference = np.exp(_reference_bisect(
            lambda v, rows: batch.h_at_log_time(v, subjects[rows])[0],
            target.quantile(family, p).ravel(), model.scaler.a_lo, model.scaler.b_hi,
        )).reshape(p.shape)

        solver_rows = []

        def counted(spec, coef, rows, log_t, scaler, **kwargs):
            solver_rows.append(np.size(log_t))
            return eval_transform(spec, coef, rows, log_t, scaler, **kwargs)

        monkeypatch.setattr(transform, "eval_transform", counted)
        quantiles = batch.quantile(p)
        np.testing.assert_allclose(quantiles, reference, rtol=1e-11)
        # the Bernstein targets on the affine tails outside the scaler range
        # invert in closed form, and so do the linear parameterizations
        linear = parameterization in (Parameterization.LINEAR_SHIFT,
                                      Parameterization.LINEAR_SCALE)
        assert (sum(solver_rows) == 0) == linear
        solver_rows.clear()
        np.testing.assert_array_equal(batch.quantile(p[:, -2:]), quantiles[:, -2:])
        assert sum(solver_rows) == 0
        if not linear:
            return
        head = _head_fields(model.spec, model.head_params)
        f = extractor_forward(model.spec.extractor, model.extractor_params, x[:, None, :])[0][:, 0]
        if parameterization == Parameterization.LINEAR_SHIFT:
            c, m = head.a + f @ head.w, softplus(head.b_raw)
        else:
            c, m = head.a, softplus(f @ head.w)
        z = target.quantile(family, p)
        np.testing.assert_allclose(quantiles, np.exp((z - np.c_[c]) / np.c_[m]),
                                   rtol=1e-14)

    @pytest.mark.parametrize("parameterization, family", [
        (Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.MEV),
        (Parameterization.LINEAR_SCALE, TargetFamily.LOGISTIC),
        (Parameterization.BERNSTEIN_FLEXIBLE, TargetFamily.MEV),
    ])
    def test_mixture_quantile_inverts_the_mean_cdf(self, parameterization, family):
        from tramsurv.fit import EnsembleModel

        rng = np.random.default_rng(151)
        members = [_random_model(parameterization, family, rng) for _ in range(3)]
        ensemble = EnsembleModel(members=members)
        n = 11
        dist = ensemble.conditional_distribution(rng.normal(size=(n, 3)))
        p = np.column_stack([rng.uniform(0.001, 0.999, size=(n, 5)), np.full(n, 1e-6)])
        np.testing.assert_allclose(dist.cdf(dist.quantile(p)), p, rtol=0, atol=1e-12)


def _mixture_reference(members, name, t):
    """The mixture member by member: values added in member order and divided by M, or
    logsumexp over the stacked members minus log M for the logs."""
    values = [np.atleast_1d(getattr(m, name)(t)) for m in members]
    if name.startswith("log"):
        out = logsumexp(np.array(values), axis=0) - np.log(len(members))
    else:
        out = values[0].copy()
        for v in values[1:]:
            out += v
        out /= len(members)
    return float(out[0]) if np.ndim(t) == 0 else out


def _mixture_quantile_reference(members, p):
    """The mixture's quantile with a Newton problem that evaluates one member at a time."""
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    subjects = np.nonzero(np.ones(p_arr.shape, dtype=bool))[0]
    _, lo, hi = zip(*[m.log_time_bracket(p_arr, subjects) for m in members])

    def mean_cdf(u, rows):
        values, slopes = [], []
        for m in members:
            h, dh = m.h_at_log_time(u, subjects[rows])
            values.append(target.cdf(m.spec.family, h))
            slopes.append(target.density(m.spec.family, h) * dh)
        return np.mean(values, axis=0), np.mean(slopes, axis=0)

    u = _solve_increasing(mean_cdf, p_arr.ravel(), np.min(lo, axis=0), np.max(hi, axis=0))
    t = np.exp(u).reshape(p_arr.shape)
    return float(t[0]) if np.ndim(p) == 0 else t


class TestStackedMixture:
    """A mixture of members of one spec and scaler evaluates them on one member axis."""

    N_SUBJECTS = 13

    def _members(self, parameterization, n_members, rng, x):
        family = (TargetFamily.LOGISTIC if parameterization == Parameterization.LINEAR_SHIFT
                  else TargetFamily.MEV)
        return [conditional_distribution(_random_model(parameterization, family, rng), x)
                for _ in range(n_members)]

    @pytest.mark.parametrize("n_members", [1, 3, 9, 10])
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_bitwise_equal_to_the_member_loop(self, parameterization, n_members):
        """Nine or more members at one time is where a pairwise sum would differ."""
        from tramsurv.fit import EnsembleDistribution

        rng = np.random.default_rng(211 + n_members)
        x = rng.normal(size=(self.N_SUBJECTS, 3))
        single = rng.normal(size=3)
        # the single subject's distribution is its own construction, not a batch's row
        cases = [(self._members(parameterization, n_members, np.random.default_rng(5), single),
                  2.5, 0.3),
                 (self._members(parameterization, n_members, np.random.default_rng(5), x),
                  None, None)]
        n = self.N_SUBJECTS
        for members, scalar_t, scalar_p in cases:
            mixture = EnsembleDistribution(members)
            if scalar_t is not None:
                times, probabilities = [scalar_t], [scalar_p, np.array([0.01, 0.5, 0.99])]
            else:
                times = [np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=shape))
                         for shape in [(n,), (1, 6), (n, 6)]]
                probabilities = [rng.uniform(0.001, 0.999, size=shape) for shape in [(n,), (n, 4)]]
            for t in times:
                for name in ("cdf", "survivor", "log_pdf", "log_survivor", "pdf", "log_cdf"):
                    _assert_same_bits(getattr(mixture, name)(t),
                                      _mixture_reference(members, name, t),
                                      f"{name} at {np.shape(t)}")
            for p in probabilities:
                _assert_same_bits(mixture.quantile(p), _mixture_quantile_reference(members, p),
                                  f"quantile at {np.shape(p)}")

    @pytest.mark.parametrize("n_members", [2, 5])
    def test_one_basis_per_quadrature_pass(self, monkeypatch, n_members):
        """Every integrand call of a Bernstein mixture's CRPS builds the basis once."""
        from tramsurv import metrics
        from tramsurv.fit import EnsembleDistribution

        rng = np.random.default_rng(223)
        x = rng.normal(size=(40, 3))
        mixture = EnsembleDistribution(
            self._members(Parameterization.BERNSTEIN_SHIFT_SCALE, n_members, rng, x))
        calls = {"basis": 0, "integrand": 0}
        basis_rows, gauss_kronrod = transform.basis_rows, metrics.gauss_kronrod

        def counting_basis_rows(*args):
            calls["basis"] += 1
            return basis_rows(*args)

        def counting_gauss_kronrod(fn, breaks, *args, **kwargs):
            def integrand(nodes, rows):
                calls["integrand"] += 1
                return fn(nodes, rows)
            return gauss_kronrod(integrand, breaks, *args, **kwargs)

        monkeypatch.setattr(transform, "basis_rows", counting_basis_rows)
        monkeypatch.setattr(metrics, "gauss_kronrod", counting_gauss_kronrod)
        times = np.exp(rng.uniform(np.log(0.3), np.log(10.0), size=40))
        assert np.all(np.isfinite(metrics.crps(mixture, times, rng.random(40) < 0.7, 12.0)))
        assert calls["integrand"] > 0 and calls["basis"] == calls["integrand"]

    def test_members_of_several_specs_or_scalers_fail_with_a_code(self):
        """A hand-built mixture whose members differ in spec or scaler raises BadConfig."""
        from tramsurv.errors import BadConfig
        from tramsurv.fit import EnsembleModel
        from tramsurv.metrics import evaluate

        rng = np.random.default_rng(227)
        model = _random_model(Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.MEV, rng)
        for other in [_random_model(Parameterization.LINEAR_SHIFT, TargetFamily.MEV, rng),
                      replace(model, spec=replace(model.spec, family=TargetFamily.LOGISTIC)),
                      replace(model, scaler=LogTimeScaler(np.log(0.5), np.log(30.0)))]:
            ensemble = EnsembleModel(members=[model, model, other])
            dataset = SurvivalDataset.from_observations(
                [Observation.exact(1.5, rng.normal(size=3))])
            for call in (lambda: ensemble.conditional_distribution(rng.normal(size=(4, 3))),
                         lambda: evaluate(ensemble, dataset)):
                with pytest.raises(BadConfig, match="one spec and scaler") as info:
                    call()
                assert info.value.code == "E_BAD_CONFIG"
