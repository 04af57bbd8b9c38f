"""Fully connected feature extractor with an explicit forward/backward pass.

Parameters live in a single flat vector with a deterministic layout (per
layer: weight matrix row-major, then bias), which keeps SGD updates and
serialization trivial.  The training forward pass records the per-layer
parameter views and inputs that the backward pass reads; no external
autodiff framework is involved, so results are bitwise reproducible.

Inference uses :func:`features` instead: no tape, and each layer multiplies
every row on its own as a stack of (1, i) @ (i, o) products.  A subject's
features are then the same bits whether it is evaluated alone or in a batch
of any size or order, which one (n, i) @ (i, o) product does not guarantee
(BLAS blocks and vectorizes it differently by n).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadConfig, DimensionMismatch, TapeMismatch

_ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ExtractorSpec:
    """Architecture of the feature extractor.

    Empty ``hidden_dims`` denotes a single linear map.  The final layer is
    always linear; the activation applies to hidden layers only.
    """

    input_dim: int
    hidden_dims: tuple = ()
    output_dim: int = 1
    activation: str = "tanh"
    init_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise DimensionMismatch("extractor dimensions must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise BadConfig("hidden layer widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise BadConfig(f"activation must be one of {_ACTIVATIONS}")

    @cached_property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return tuple((dims[i], dims[i + 1]) for i in range(len(dims) - 1))

    @cached_property
    def param_count(self) -> int:
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.layer_dims)


def param_count(spec: ExtractorSpec) -> int:
    return spec.param_count


def split_params(spec: ExtractorSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """View the flat parameter vector as per-layer (weights, bias) pairs."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.param_count,):
        raise DimensionMismatch(
            f"expected {spec.param_count} extractor parameters, got {params.shape}"
        )
    layers = []
    pos = 0
    for fan_in, fan_out in spec.layer_dims:
        w = params[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = params[pos : pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


def flatten_params(layers) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


def init_params(spec: ExtractorSpec, seed: int) -> np.ndarray:
    """Deterministic initialization: uniform weights scaled by 1/sqrt(fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in spec.layer_dims:
        bound = spec.init_scale / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return flatten_params(layers)


def identity_params(spec: ExtractorSpec) -> np.ndarray:
    """Parameters of the identity map; requires a square single linear layer."""
    if spec.hidden_dims or spec.input_dim != spec.output_dim:
        raise DimensionMismatch("identity extractor needs a square single linear layer")
    return flatten_params([(np.eye(spec.input_dim), np.zeros(spec.output_dim))])


@dataclass
class Tape:
    """Forward-pass record consumed by :func:`backward`."""

    spec: ExtractorSpec
    layers: list  # the (weights, bias) views the forward pass read
    inputs: list = field(default_factory=list)  # input to each layer, post-activation
    single: bool = False


def _as_batch(spec: ExtractorSpec, x) -> tuple[np.ndarray, bool]:
    """Covariates as an (n, input_dim) matrix, and whether they were one vector."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise DimensionMismatch(
            f"expected covariates of dimension {spec.input_dim}, got shape {x.shape}"
        )
    return a, single


def _activate(spec: ExtractorSpec, z: np.ndarray) -> np.ndarray:
    """The hidden activation, applied in place."""
    return np.tanh(z, out=z) if spec.activation == "tanh" else np.maximum(z, 0.0, out=z)


def forward(spec: ExtractorSpec, params: np.ndarray, x) -> tuple[np.ndarray, Tape]:
    """Evaluate the extractor for training; accepts a single vector or a batch matrix.

    Returns the features and a tape for the backward pass.  A batch is one
    matrix product per layer, so a row's last bits may depend on the batch.
    """
    a, single = _as_batch(spec, x)
    layers = split_params(spec, params)
    tape = Tape(spec=spec, layers=layers, single=single)
    for i, (w, b) in enumerate(layers):
        tape.inputs.append(a)
        a = a @ w
        a += b
        if i < len(layers) - 1:
            _activate(spec, a)
    return (a[0] if single else a), tape


def features(spec: ExtractorSpec, params: np.ndarray, x) -> np.ndarray:
    """Extractor output at inference for one vector (p,) or a matrix (n, p); no tape.

    Every row goes through each layer as its own (1, i) @ (i, o) product, the
    product ``forward`` makes for a single vector, so each row's features
    equal ``forward`` of that row alone, bit for bit, whatever the batch.
    """
    a, single = _as_batch(spec, x)
    layers = split_params(spec, params)
    for i, (w, b) in enumerate(layers):
        z = np.matmul(a[:, None, :], w)[:, 0, :] + b
        a = _activate(spec, z) if i < len(layers) - 1 else z
    return a[0] if single else a


def backward(spec: ExtractorSpec, tape: Tape, upstream) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode pass: gradients w.r.t. parameters and the input.

    The parameters are the ones the tape's forward pass read; their gradient
    is written layer by layer into one flat vector in the parameter layout.  ``upstream``
    is d(loss)/d(features) with the same leading shape as the forward input.
    The result is linear in ``upstream``.
    """
    if tape.spec != spec:
        raise TapeMismatch("tape was recorded under a different extractor spec")
    layers = tape.layers
    upstream = np.asarray(upstream, dtype=float)
    delta = upstream[None, :] if tape.single else upstream
    if delta.shape != (tape.inputs[0].shape[0], spec.output_dim):
        raise DimensionMismatch(
            f"upstream shape {upstream.shape} does not match the recorded forward pass"
        )
    grad = np.empty(spec.param_count)
    grads = split_params(spec, grad)  # views of grad in the parameter layout
    for i in range(len(layers) - 1, -1, -1):
        (w, _), (grad_w, grad_b) = layers[i], grads[i]
        a_in = tape.inputs[i]
        np.matmul(a_in.T, delta, out=grad_w)
        delta.sum(axis=0, out=grad_b)
        delta = delta @ w.T
        if i > 0:
            # derivative of the hidden activation, reconstructed from its output
            h = tape.inputs[i]
            delta *= (1.0 - h * h) if spec.activation == "tanh" else (h > 0.0)
    grad_x = delta[0] if tape.single else delta
    return grad, grad_x
