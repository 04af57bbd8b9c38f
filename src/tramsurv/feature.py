"""Fully connected feature extractor with an explicit forward/backward pass.

Parameters live in a single flat vector with a deterministic layout (per
layer: weight matrix row-major, then bias), which keeps SGD updates and
serialization trivial.  Training has one batch form, with a leading member
axis: :func:`forward` maps a stack of M parameter vectors (M, P) and their
minibatches (M, n, p) to (M, n, d) features, and records what
:func:`backward` reads to give the (M, P) parameter gradients.  Covariates
(n, p) without the member axis are every member's batch, and one parameter
vector (P,) is a model without it.  Each layer is one stacked ``matmul``,
one (n, i) @ (i, o) product per member, so a member's numbers do not depend
on the members stacked with it.  No external autodiff framework is involved,
so results are bitwise reproducible.

A training loop splits its parameters once into :class:`Layers`, per-layer
(weights, bias) views checked by :func:`split_params`, and a gradient buffer
likewise.  :func:`forward` reads the parameter views as they are, and
:func:`backward` writes each step's gradient through the buffer's views, so
a step neither splits, checks nor allocates parameter-shaped arrays.

Inference makes the same call, with one parameter vector and the subjects
(n, p) as a stack of one-row minibatches (n, 1, p): each layer is then a
stack of (1, i) @ (i, o) products, one per subject.  A subject's features
are the same bits whether it is evaluated alone or in a batch of any size or
order, which one (n, i) @ (i, o) product does not guarantee (BLAS blocks and
vectorizes it differently by n).  Its tape is left unused.
"""

from dataclasses import dataclass
from functools import cached_property
import math
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import BadConfig, DimensionMismatch, TapeMismatch, require_int

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
        for h in self.hidden_dims:
            require_int("hidden layer width", h, 1)
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise DimensionMismatch("extractor dimensions must be positive")
        if self.activation not in _ACTIVATIONS:
            raise BadConfig(f"activation must be one of {_ACTIVATIONS}")
        if not (isinstance(self.init_scale, Real) and math.isfinite(self.init_scale)):
            raise BadConfig(f"init_scale must be a finite number, got {self.init_scale!r}")

    @cached_property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return tuple((dims[i], dims[i + 1]) for i in range(len(dims) - 1))

    @cached_property
    def param_count(self) -> int:
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.layer_dims)


def param_count(spec: ExtractorSpec) -> int:
    return spec.param_count


class Layers(tuple):
    """The per-layer (weights, bias) views of a flat parameter array, made by :func:`split_params`.

    ``flat`` is the (P,) or (M, P) array they view and ``spec`` the extractor
    whose layout they follow.
    """

    def __new__(cls, spec: ExtractorSpec, flat: np.ndarray, pairs):
        layers = super().__new__(cls, pairs)
        layers.spec, layers.flat = spec, flat
        return layers


def split_params(spec: ExtractorSpec, params: np.ndarray) -> Layers:
    """View a flat parameter vector, or a stack (M, P) of them, as per-layer (weights, bias) pairs.

    A stack gives (M, i, o) weights and (M, o) biases.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != spec.param_count:
        raise DimensionMismatch(
            f"expected {spec.param_count} extractor parameters, got {params.shape}"
        )
    lead = params.shape[:-1]
    layers = []
    pos = 0
    for fan_in, fan_out in spec.layer_dims:
        w = params[..., pos : pos + fan_in * fan_out].reshape(lead + (fan_in, fan_out))
        pos += fan_in * fan_out
        b = params[..., pos : pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return Layers(spec, params, layers)


def _bound(spec: ExtractorSpec, params) -> Layers:
    """``params`` as layer views: views split under this spec as they are, else split now."""
    if isinstance(params, Layers):
        if params.spec is spec or params.spec == spec:
            return params
        params = params.flat
    return split_params(spec, params)


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


class Tape(NamedTuple):
    """Forward-pass record consumed by :func:`backward`."""

    spec: ExtractorSpec
    layers: Layers  # the views the forward pass read
    inputs: list  # input to each layer, post-activation


def _as_batch(spec: ExtractorSpec, x) -> np.ndarray:
    """Covariates as an (n, input_dim) matrix or an (M, n, input_dim) stack; a vector is one row."""
    x = np.asarray(x, dtype=float)
    a = x[None, :] if x.ndim == 1 else x
    if not 2 <= a.ndim <= 3 or a.shape[-1] != spec.input_dim:
        raise DimensionMismatch(
            f"expected covariates of dimension {spec.input_dim}, got shape {x.shape}"
        )
    return a


def _activate(spec: ExtractorSpec, z: np.ndarray) -> np.ndarray:
    """The hidden activation, applied in place."""
    return np.tanh(z, out=z) if spec.activation == "tanh" else np.maximum(z, 0.0, out=z)


def forward(spec: ExtractorSpec, params, x) -> tuple[np.ndarray, Tape]:
    """Evaluate a stack of M extractors (M, P) for training on their minibatches (M, n, p).

    Covariates (n, p) are every member's minibatch; one parameter vector (P,)
    takes (n, p) covariates or a stack (B, n, p) of minibatches, and a
    vector (p,) is one row.  ``params`` may also be their :class:`Layers`,
    which are read without another split.
    Returns the features, (M, n, d), (B, n, d) or (n, d), and a tape for the
    backward pass.  A minibatch is one matrix product per layer and member,
    so a row's last bits may depend on its minibatch, never on the other
    members or minibatches.
    """
    a = _as_batch(spec, x)
    layers = _bound(spec, params)
    inputs = []
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        inputs.append(a)
        a = a @ w
        a += b[..., None, :]
        if i < last:
            _activate(spec, a)
    return a, Tape(spec, layers, inputs)


def backward(spec: ExtractorSpec, tape: Tape, upstream, out: Layers | None = None) -> np.ndarray:
    """Reverse-mode pass: the gradients w.r.t. the parameters the tape's forward pass read.

    ``upstream`` is d(loss)/d(features), (M, n, d) or (n, d) like the forward
    output.  Each member's gradient is written layer by layer into one row of
    an (M, P) array (one vector without the member axis) in the parameter
    layout and is linear in its upstream rows.  The array is a new one, or
    the buffer whose :class:`Layers` ``out`` gives; either is returned.
    """
    if tape.spec is not spec and tape.spec != spec:
        raise TapeMismatch("tape was recorded under a different extractor spec")
    layers, inputs = tape.layers, tape.inputs
    delta = np.asarray(upstream, dtype=float)
    shape = layers.flat.shape
    if delta.shape != shape[:-1] + (inputs[0].shape[-2], spec.output_dim):
        raise DimensionMismatch(
            f"upstream shape {delta.shape} does not match the recorded forward pass"
        )
    if out is None:
        out = split_params(spec, np.empty(shape))
    elif out.flat.shape != shape:
        raise DimensionMismatch(f"gradient buffer of shape {out.flat.shape}, expected {shape}")
    for i in range(len(layers) - 1, -1, -1):
        (w, _), (grad_w, grad_b) = layers[i], out[i]
        np.matmul(inputs[i].mT, delta, out=grad_w)
        delta.sum(axis=-2, out=grad_b)
        if i > 0:
            delta = delta @ w.mT
            # derivative of the hidden activation, reconstructed from its output
            h = inputs[i]
            delta *= (1.0 - h * h) if spec.activation == "tanh" else (h > 0.0)
    return out.flat
