import numpy as np
import pytest

from tramsurv.errors import BadConfig, DimensionMismatch
from tramsurv.feature import (
    ExtractorSpec,
    backward,
    flatten_params,
    forward,
    identity_params,
    init_params,
    split_params,
)


def _direct_forward(spec, params, x):
    """Independent re-implementation: plain matrix multiplies, no tape."""
    layers = split_params(spec, params)
    h = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = np.tanh(h) if spec.activation == "tanh" else np.maximum(h, 0.0)
    return h


def _grad(tape, upstream):
    """``backward`` into a new buffer shaped like the parameters the tape's forward pass read."""
    return backward(tape, upstream, out=split_params(tape.spec, np.empty(tape.layers.flat.shape)))


class TestForward:
    def test_identity_map(self):
        spec = ExtractorSpec(input_dim=2, hidden_dims=(), output_dim=2)
        params = identity_params(spec)
        out, _ = forward(spec, params, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[1.0, 2.0]])

    def test_zero_weights_give_output_bias(self):
        spec = ExtractorSpec(input_dim=3, hidden_dims=(4,), output_dim=2, activation="relu")
        params = np.zeros(spec.param_count)
        layers = split_params(spec, params)
        layers[-1][1][:] = [0.7, -0.3]
        out, _ = forward(spec, flatten_params(layers), np.array([[5.0, -1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.7, -0.3]])

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(23)
        for activation in ("tanh", "relu"):
            spec = ExtractorSpec(
                input_dim=4, hidden_dims=(6, 5), output_dim=3, activation=activation
            )
            for trial in range(5):
                params = rng.normal(size=spec.param_count)
                x = rng.normal(size=(1, 4))
                out, _ = forward(spec, params, x)
                np.testing.assert_allclose(out, _direct_forward(spec, params, x), rtol=1e-12)

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(29)
        spec = ExtractorSpec(input_dim=3, hidden_dims=(5,), output_dim=2)
        params = rng.normal(size=spec.param_count)
        xs = rng.normal(size=(6, 3))
        batch_out, _ = forward(spec, params, xs)
        for i in range(6):
            row_out, _ = forward(spec, params, xs[i : i + 1])
            np.testing.assert_allclose(batch_out[i], row_out[0], rtol=1e-14)

    def test_wrong_input_dim_rejected(self):
        spec = ExtractorSpec(input_dim=3, hidden_dims=(), output_dim=1)
        with pytest.raises(DimensionMismatch):
            forward(spec, np.zeros(spec.param_count), np.zeros((1, 5)))

    def test_vector_is_one_row(self):
        spec = ExtractorSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        params = np.random.default_rng(30).normal(size=spec.param_count)
        x = np.array([0.3, -1.2, 0.8])
        out, _ = forward(spec, params, x)
        assert out.shape == (1, 2)
        np.testing.assert_array_equal(out, forward(spec, params, x[None, :])[0])


class TestInferenceFeatures:
    """Subjects as a stack of one-row minibatches (n, 1, p), as inference evaluates them."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (5,), (32,), (32, 32)])
    def test_bitwise_equal_to_rowwise_forward(self, hidden, activation):
        rng = np.random.default_rng(31)
        for input_dim, output_dim in ((1, 1), (3, 5), (16, 16), (7, 2)):
            spec = ExtractorSpec(input_dim=input_dim, hidden_dims=hidden,
                                 output_dim=output_dim, activation=activation)
            params = rng.normal(size=spec.param_count)
            xs = rng.normal(size=(37, input_dim))
            rows = np.array([forward(spec, params, x[None, :])[0][0] for x in xs])
            np.testing.assert_array_equal(forward(spec, params, xs[:, None, :])[0][:, 0], rows)
            np.testing.assert_array_equal(forward(spec, params, xs[4:5, None, :])[0][0, 0],
                                          rows[4])

    def test_wrong_input_dim_rejected(self):
        spec = ExtractorSpec(input_dim=3, hidden_dims=(), output_dim=1)
        with pytest.raises(DimensionMismatch):
            forward(spec, np.zeros(spec.param_count), np.zeros((2, 1, 5)))


class TestParamLayout:
    def test_count_example(self):
        # 4 inputs -> 8 hidden -> 2 outputs: 4*8 + 8 + 8*2 + 2
        spec = ExtractorSpec(input_dim=4, hidden_dims=(8,), output_dim=2)
        assert spec.param_count == 58

    def test_count_no_hidden(self):
        spec = ExtractorSpec(input_dim=3, hidden_dims=(), output_dim=2)
        assert spec.param_count == 3 * 2 + 2

    @pytest.mark.parametrize("shape", [(57,), (59,), (2, 57), (1, 2, 58)])
    def test_split_of_another_length_or_rank_is_a_mismatch(self, shape):
        spec = ExtractorSpec(input_dim=4, hidden_dims=(8,), output_dim=2)
        with pytest.raises(DimensionMismatch) as info:
            split_params(spec, np.zeros(shape))
        assert info.value.code == "E_DIMENSION_MISMATCH"

    @pytest.mark.parametrize("settings", [{"input_dim": 2, "output_dim": 3},
                                          {"input_dim": 2, "hidden_dims": (2,), "output_dim": 2}])
    def test_identity_needs_a_square_single_layer(self, settings):
        with pytest.raises(DimensionMismatch) as info:
            identity_params(ExtractorSpec(**settings))
        assert info.value.code == "E_DIMENSION_MISMATCH"

    def test_flatten_split_round_trip(self):
        rng = np.random.default_rng(31)
        spec = ExtractorSpec(input_dim=2, hidden_dims=(4, 3), output_dim=2)
        params = rng.normal(size=spec.param_count)
        np.testing.assert_array_equal(flatten_params(split_params(spec, params)), params)


class TestInit:
    def test_same_seed_identical(self):
        spec = ExtractorSpec(input_dim=5, hidden_dims=(7,), output_dim=3)
        np.testing.assert_array_equal(init_params(spec, 42), init_params(spec, 42))

    def test_different_seeds_differ(self):
        spec = ExtractorSpec(input_dim=5, hidden_dims=(7,), output_dim=3)
        assert not np.array_equal(init_params(spec, 1), init_params(spec, 2))

    def test_biases_start_at_zero(self):
        spec = ExtractorSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        for _, b in split_params(spec, init_params(spec, 0)):
            np.testing.assert_array_equal(b, np.zeros_like(b))


class TestSpec:
    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan, "1.0", True,
                                       pytest.param(10**400, id="int-beyond-float")])
    def test_init_scale_must_be_a_finite_number(self, scale):
        with pytest.raises(BadConfig) as info:
            ExtractorSpec(input_dim=2, init_scale=scale)
        assert info.value.code == "E_BAD_CONFIG"

    def test_init_scale_is_kept_as_a_float(self):
        assert repr(ExtractorSpec(input_dim=2, init_scale=2).init_scale) == "2.0"

    @pytest.mark.parametrize(
        "settings",
        [{"input_dim": 2.5}, {"input_dim": True}, {"input_dim": 2, "output_dim": "3"},
         {"input_dim": 2, "output_dim": 2.0}, {"input_dim": None},
         {"input_dim": 2, "hidden_dims": None}, {"input_dim": 2, "hidden_dims": 4}],
        ids=["input-fraction", "input-bool", "output-text", "output-float", "input-none",
             "hidden-none", "hidden-int"],
    )
    def test_dimensions_must_be_integers(self, settings):
        with pytest.raises(BadConfig) as info:
            ExtractorSpec(**settings)
        assert info.value.code == "E_BAD_CONFIG"

    @pytest.mark.parametrize("settings", [{"input_dim": 0}, {"input_dim": 2, "output_dim": -1}])
    def test_dimensions_below_one_are_a_mismatch(self, settings):
        with pytest.raises(DimensionMismatch) as info:
            ExtractorSpec(**settings)
        assert info.value.code == "E_DIMENSION_MISMATCH"


class TestBackward:
    def test_zero_upstream_zero_gradient(self):
        rng = np.random.default_rng(37)
        spec = ExtractorSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        params = rng.normal(size=spec.param_count)
        out, tape = forward(spec, params, rng.normal(size=(1, 3)))
        grad = _grad(tape, np.zeros_like(out))
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_linear_extractor_closed_form(self):
        """For features = W^T x + b the gradients are u x^T and u."""
        rng = np.random.default_rng(41)
        spec = ExtractorSpec(input_dim=3, hidden_dims=(), output_dim=2)
        params = rng.normal(size=spec.param_count)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        out, tape = forward(spec, params, x[None, :])
        grad = _grad(tape, u[None, :])
        gw, gb = split_params(spec, grad)[0]
        np.testing.assert_allclose(gw, np.outer(x, u), rtol=1e-12)
        np.testing.assert_allclose(gb, u, rtol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(43)
        for activation in ("tanh", "relu"):
            spec = ExtractorSpec(
                input_dim=4, hidden_dims=(5, 4), output_dim=2, activation=activation
            )
            params = rng.normal(scale=0.7, size=spec.param_count)
            x = rng.normal(size=(1, 4))
            u = rng.normal(size=(1, 2))
            _, tape = forward(spec, params, x)
            grad = _grad(tape, u)

            def scalar(p, xv):
                out, _ = forward(spec, p, xv)
                return float(np.sum(u * out))

            fd = np.empty_like(params)
            for i in range(params.size):
                step = 1e-6 * (1.0 + abs(params[i]))
                hi = params.copy()
                hi[i] += step
                lo = params.copy()
                lo[i] -= step
                fd[i] = (scalar(hi, x) - scalar(lo, x)) / (2 * step)
            denom = np.maximum(1.0, np.abs(fd))
            assert np.max(np.abs(grad - fd) / denom) < 1e-5

    def test_batch_gradient_sums_rows(self):
        rng = np.random.default_rng(47)
        spec = ExtractorSpec(input_dim=2, hidden_dims=(3,), output_dim=2)
        params = rng.normal(size=spec.param_count)
        xs = rng.normal(size=(4, 2))
        us = rng.normal(size=(4, 2))
        _, tape = forward(spec, params, xs)
        grad = _grad(tape, us)
        acc = np.zeros_like(params)
        for i in range(4):
            _, t_i = forward(spec, params, xs[i : i + 1])
            acc += _grad(t_i, us[i : i + 1])
        np.testing.assert_allclose(grad, acc, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 2), (5, 3), (2, 5, 2), (5,)])
    def test_upstream_of_another_shape_is_rejected(self, shape):
        rng = np.random.default_rng(59)
        spec = ExtractorSpec(input_dim=3, hidden_dims=(4,), output_dim=2)
        _, tape = forward(spec, rng.normal(size=spec.param_count), rng.normal(size=(5, 3)))
        with pytest.raises(DimensionMismatch) as info:
            _grad(tape, np.ones(shape))
        assert info.value.code == "E_DIMENSION_MISMATCH"

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_bound_views_give_the_same_bits(self, activation):
        """Layer views split once, and a gradient buffer written through its views,
        give the bits of flat parameters and a new gradient array."""
        rng = np.random.default_rng(61)
        spec = ExtractorSpec(input_dim=3, hidden_dims=(6, 4), output_dim=2,
                             activation=activation)
        params = rng.normal(size=(3, spec.param_count))
        x = rng.normal(size=(3, 7, 3))
        upstream = rng.normal(size=(3, 7, 2))
        out, tape = forward(spec, params, x)
        grad = _grad(tape, upstream)
        buffer = np.full(params.shape, np.nan)
        views = split_params(spec, buffer)
        bound_out, bound_tape = forward(spec, split_params(spec, params), x)
        written = backward(bound_tape, upstream, out=views)
        assert written is buffer
        assert bound_out.tobytes() == out.tobytes()
        assert buffer.tobytes() == grad.tobytes()
        with pytest.raises(DimensionMismatch):
            backward(bound_tape, upstream, out=split_params(spec, buffer[:2]))
