"""Dense-network VAE engine with hand-rolled gradients.

Implements the circle-product latent model and a plain Euclidean-latent
beta-VAE baseline: encoder and decoder MLPs of one architecture
(layer_specs), reparameterized sampling, the latent geometry of geometry.py
(per-circle normalization, rank-1 latent assembly, KL), the beta-weighted
loss and Adam. A training step records a chain of four hand-written nodes
on the tape (autodiff.py) from the batch, a constant leaf: the encoder, the
posterior (sample, latent assembly and KL), the decoder and the
reconstruction loss. Their VJPs write the gradient of the model's one
parameter, a Tensor over the flat vector of all its weights and biases,
which Adam steps in blocks. Inference runs the same networks and ndarray
geometry and never calls backward. Training is fully determined by the
config seed.

Every function here computes in the dtype of the model or arrays it is
given, float64 unless said otherwise. train alone picks another: it steps
in float32 (TRAIN_DTYPE), where BLAS and numpy's element-wise loops run two
to four times faster, and sums the validation MSE and reported loss terms in
float64. It returns its best parameters as a float64 inference model, their
exact upcast, so checkpoints, codes, traversals and metrics stay float64.

A model's shape is described once: LatentSpec bounds the latent dim so that
every width of layer_specs fits a TDVAE1 u32, for configs and files alike,
and a checkpoint's header is those specs written out (_header), which
load_checkpoint rebuilds from the file's fixed fields and hidden widths and
compares byte for byte.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, node
from .errors import ConfigError, FormatError, NumericsError, Reader, max_abs, sized_output
from .geometry import (RowBuffers, canonical_angle, embed, embed_parts, embed_vjp, gaussian_kl,
                       gaussian_kl_vjp, tuple_norms, unit_tuples, unit_tuples_vjp)

TORUS = "torus"
EUCLIDEAN = "euclidean"

SCALE_SYMMETRIC = "symmetric"  # data already in [-1, 1]
SCALE_UNIT = "unit"  # data in [0, 1], mapped to [-1, 1] for the tanh decoder

CHECKPOINT_MAGIC = b"TDVAE1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per adam_step block: 128 KiB of float64 per operand, so that the
# moments, gradient and scratch of a block stay in cache across its passes.
ADAM_BLOCK = 1 << 14

# The dtype train steps in, read by train alone: every other function
# computes in the dtype of the model or arrays it is given. On a 2-core x86
# host with one OpenBLAS 0.3.31 thread, float32 ran a (144, 768) @ (768, 128)
# product in 146 us against 410, and tanh over 110K elements in 43 us
# against 194; a trained model is handed back as its exact float64 upcast.
TRAIN_DTYPE = np.float32


# The largest latent dim of each mode whose layer_specs widths fit the u32
# fields of a TDVAE1 header: 2^D + D decoder inputs for circles, 2 * L encoder
# outputs for a Euclidean latent.
MAX_LATENT_DIM = {TORUS: 31, EUCLIDEAN: 2**31 - 1}
# A TDVAE1 table counts its layers, the hidden ones and the output, in a u8.
MAX_HIDDEN_LAYERS = 254


@dataclass(frozen=True)
class LatentSpec:
    """A latent mode and dim, checked against MAX_LATENT_DIM before anything
    computes 2^dim; each message starts with the field it rejects."""

    mode: str
    dim: int  # number of circles (torus) or latent width (euclidean)

    def __post_init__(self):
        if self.mode not in MAX_LATENT_DIM:
            raise ConfigError(f"mode must be {TORUS!r} or {EUCLIDEAN!r}, got {self.mode!r}")
        if self.dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.dim}")
        if self.dim > MAX_LATENT_DIM[self.mode]:
            raise ConfigError(f"latent_dim must be <= {MAX_LATENT_DIM[self.mode]} for a "
                              f"{self.mode} latent: latent dim {self.dim} does not fit the decoder")

    @property
    def encoder_out_dim(self) -> int:
        return 4 * self.dim if self.mode == TORUS else 2 * self.dim

    @property
    def decoder_in_dim(self) -> int:
        return 2**self.dim + self.dim if self.mode == TORUS else self.dim


def layer_specs(latent: LatentSpec, input_dim: int, hidden):
    """(encoder, decoder) (fan_in, fan_out, activation) specs of the one model
    architecture: relu hidden layers, an identity encoder output, and a decoder
    that mirrors the hidden widths from the latent to a tanh output."""
    enc_dims = [input_dim, *hidden, latent.encoder_out_dim]
    dec_dims = [latent.decoder_in_dim, *hidden[::-1], input_dim]
    acts = ["relu"] * len(hidden)
    return (list(zip(enc_dims, enc_dims[1:], acts + ["identity"])),
            list(zip(dec_dims, dec_dims[1:], acts + ["tanh"])))


def param_count(specs) -> int:
    """Number of weights and biases of (fan_in, fan_out, activation) layer specs."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out, _ in specs)


class DenseNetwork:
    """A stack of fully connected layers over slices of a model's flat vectors.

    specs holds one (fan_in, fan_out, activation) per layer, as layer_specs
    makes them. weights and biases are reshaped views of flat, laid out
    layer by layer, weight before bias, and weight_grads and bias_grads the
    same views of flat_grad, which forward's node writes; a network given no
    flat_grad has none and only infers.
    """

    def __init__(self, specs, flat: np.ndarray, flat_grad: np.ndarray | None):
        self.specs = list(specs)
        shapes = [s for fan_in, fan_out, _ in specs for s in ((fan_in, fan_out), (fan_out,))]
        ends = np.cumsum([math.prod(s) for s in shapes])[:-1]

        def views(vector):
            return [part.reshape(s) for part, s in zip(np.split(vector, ends), shapes)]

        data = views(flat)
        self.weights, self.biases = data[::2], data[1::2]
        grads = views(flat_grad) if flat_grad is not None else [None] * len(shapes)
        self.weight_grads, self.bias_grads = grads[::2], grads[1::2]
        self.input_dim = specs[0][0]

    def forward(self, x: Tensor) -> Tensor:
        """One tape node for the whole stack.

        Its VJP walks the layers backwards, writes (not adds) each weight
        and bias gradient into its flat_grad view and returns the input's
        gradient, or None when x is a leaf (a constant, such as the batch). It
        scales the gradient it is given in place, so that array must be its own.
        """
        if x.data.ndim != 2 or x.data.shape[1] != self.input_dim:
            raise ValueError(
                f"expected input shape (N, {self.input_dim}), got {x.data.shape}"
            )
        hs = [x.data]  # each layer's input, then the network's output
        for w, b, (_, _, act) in zip(self.weights, self.biases, self.specs):
            y = hs[-1] @ w
            y += b
            if act == "relu":
                np.maximum(y, 0.0, out=y)
            elif act == "tanh":
                np.tanh(y, out=y)
            hs.append(y)
        input_grad = x.parent is not None

        def backward(grad):
            for i in reversed(range(len(self.specs))):
                act, y = self.specs[i][2], hs[i + 1]
                if act == "relu":
                    np.multiply(grad, y > 0.0, out=grad)
                elif act == "tanh":
                    t = y * y
                    np.subtract(1.0, t, out=t)
                    grad *= t
                np.sum(grad, axis=0, out=self.bias_grads[i])
                np.matmul(hs[i].T, grad, out=self.weight_grads[i])
                if i == 0 and not input_grad:
                    return None
                grad = grad @ self.weights[i].T
            return grad

        return node(hs[-1], x, backward)


def _pair_dtype(a: np.ndarray) -> np.dtype:
    """The complex dtype whose one element is two of a's: complex64 for float32."""
    return np.result_type(a, np.complex64)


class VaeModel:
    """Encoder, latent layout and decoder over one flat parameter vector.

    The networks are layer_specs(latent, input_dim, hidden), and flat holds
    every weight and bias, encoder first, in the TDVAE1 payload order: zeros
    unless given, as load_checkpoint gives a file's payload. flat_grad holds
    their gradients for a new model, the kind train builds; a model over
    given parameters only infers, and its flat_grad is None. Each network's
    weights and biases are views into the two. The model's one parameter, the
    only item of parameters(), is a Tensor whose .data is flat and .grad is
    flat_grad; it is never on the tape. A new model's vectors are of dtype;
    a given flat keeps its own, and the model computes in the dtype of flat.
    """

    def __init__(self, latent: LatentSpec, input_dim: int, hidden,
                 input_scale: str = SCALE_SYMMETRIC, flat: np.ndarray | None = None,
                 dtype=np.float64):
        if input_dim < 1 or any(h < 1 for h in hidden):
            raise ConfigError("dimensions must be positive")
        if input_scale not in (SCALE_SYMMETRIC, SCALE_UNIT):
            raise ConfigError(f"unknown input scale {input_scale!r}")
        encoder_specs, decoder_specs = layer_specs(latent, input_dim, hidden)
        split = param_count(encoder_specs)
        size = split + param_count(decoder_specs)
        try:
            self.flat = np.zeros(size, dtype) if flat is None else flat
            self.flat_grad = np.zeros(size, dtype) if flat is None else None
        # ValueError: more elements than an array can index (a hidden width of
        # 2^62); MemoryError: more bytes than are free.
        except (ValueError, MemoryError):
            enc, dec = ([specs[0][0]] + [out for _, out, _ in specs]
                        for specs in (encoder_specs, decoder_specs))
            raise ConfigError(f"latent dim {latent.dim} with layer widths {enc} and {dec} makes "
                              f"a model of {size} parameters, more than memory holds") from None
        self.param = Tensor(self.flat)
        self.param.grad = self.flat_grad
        enc_grad, dec_grad = ((None, None) if self.flat_grad is None
                              else (self.flat_grad[:split], self.flat_grad[split:]))
        self.encoder = DenseNetwork(encoder_specs, self.flat[:split], enc_grad)
        self.decoder = DenseNetwork(decoder_specs, self.flat[split:], dec_grad)
        self.latent = latent
        self.input_dim = input_dim
        self.hidden = tuple(hidden)
        self.input_scale = input_scale

    # -- the latent step ----------------------------------------------------

    def _split(self, out: np.ndarray):
        """Contiguous copies of (mu, logvar) of C-contiguous encoder output
        rows: (N, D, 2) each for circles, per circle [mu0, mu1, logvar0,
        logvar1], each pair copied as one complex element of twice the
        rows' dtype; (N, L) otherwise."""
        n, d = out.shape[0], self.latent.dim
        if self.latent.mode == TORUS:
            pairs = out.view(_pair_dtype(out)).reshape(n, d, 2)
            return tuple(pairs[:, :, k].copy().view(out.dtype).reshape(n, d, 2) for k in (0, 1))
        return out[:, 0:d].copy(), out[:, d : 2 * d].copy()

    def _join(self, mu_grad: np.ndarray, logvar_grad: np.ndarray) -> np.ndarray:
        """The encoder output rows whose _split is (mu_grad, logvar_grad), both C-contiguous."""
        if self.latent.mode == TORUS:
            pair = _pair_dtype(mu_grad)
            joined = np.concatenate((mu_grad.view(pair), logvar_grad.view(pair)), axis=-1)
            return joined.view(mu_grad.dtype).reshape(mu_grad.shape[0], -1)
        return np.concatenate((mu_grad, logvar_grad), axis=-1)

    def _posterior(self, out: Tensor, noise: np.ndarray, beta: float,
                   buffers: RowBuffers | None = None):
        """(decoder input node, KL) of the encoder output node.

        The node samples mu + e^(logvar/2) * noise from _split's copies of
        mu and logvar and, for circles, normalizes and embeds the sample; the
        forward makes e^logvar, the norms and the partial products once, for
        itself and the VJP. Its VJP also adds beta times the KL gradient, so
        the encoder output gets one gradient per step. It adds the terms one
        at a time, the sample's share and then the KL's (gaussian_kl_vjp);
        reordering them changes trained checkpoint bytes.
        For circles the decoder input and the products live in buffers
        (fresh ones when none are given; see geometry.RowBuffers), so the
        node's data and VJP hold until the next call on the same buffers.
        """
        mu, logvar = self._split(out.data)
        sigma = np.exp(logvar * 0.5)
        m_hat = v = mu + sigma * noise
        e = np.exp(logvar)
        torus = self.latent.mode == TORUS
        if torus:
            nrm = tuple_norms(m_hat)
            v, mt, products = embed_parts(m_hat / nrm, buffers)

        def backward(grad):
            g = (unit_tuples_vjp(m_hat, nrm, embed_vjp(mt, products, grad, buffers))
                 if torus else grad)
            mu_grad = g + 0.0  # as on a zero fill, -0.0 turns +0.0 (c * e does it for logvar)
            logvar_grad = g * noise * sigma * 0.5
            gaussian_kl_vjp(mu, e, beta, mu_grad, logvar_grad)
            return self._join(mu_grad, logvar_grad)

        return node(v, out, backward), gaussian_kl(mu, logvar, e)

    # -- inference ----------------------------------------------------------

    def encode(self, x: np.ndarray) -> np.ndarray:
        """A fresh array of the posterior means of rows x, in the model's dtype; see _split."""
        x = np.atleast_2d(np.asarray(x, dtype=self.flat.dtype))
        return self._split(self.encoder.forward(Tensor(x)).data)[0]

    def decode(self, v: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(np.asarray(v, dtype=self.flat.dtype))
        return self.decoder.forward(Tensor(v)).data

    def reconstruct_mean(self, x: np.ndarray, buffers: RowBuffers | None = None) -> np.ndarray:
        """Noise-free reconstruction: the decoder sees the normalized posterior mean,
        embedded in buffers (fresh ones when none are given)."""
        mu = self.encode(x)
        if self.latent.mode == EUCLIDEAN:
            return self.decode(mu)
        return self.decode(embed(unit_tuples(mu), buffers))

    def codes(self, x: np.ndarray) -> np.ndarray:
        """Per-sample latent codes for the metrics pipeline.

        Circle mode reads the angle of each normalized posterior-mean tuple;
        Euclidean mode reads the posterior means themselves. A zero tuple
        has no angle and raises DegenerateInputError.
        """
        mu = self.encode(x)
        if self.latent.mode == EUCLIDEAN:
            return mu
        tuple_norms(mu)
        return canonical_angle(np.arctan2(mu[:, :, 1], mu[:, :, 0]))

    def parameters(self):
        return [self.param]

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()


def build_vae(latent: LatentSpec, input_dim: int, hidden, rng: np.random.Generator,
              input_scale: str = SCALE_SYMMETRIC, dtype=np.float64) -> VaeModel:
    """A new model of dtype: zero biases and weights uniform in +-sqrt(6 / fan_in),
    drawn in float64 layer by layer, encoder first, and rounded to dtype."""
    model = VaeModel(latent, input_dim, hidden, input_scale, dtype=dtype)
    for w in model.encoder.weights + model.decoder.weights:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


# -- loss ---------------------------------------------------------------------


@dataclass
class ElboResult:
    loss: float
    reconstruction: float
    kl: float


def _reconstruction_loss(recon: Tensor, x: np.ndarray) -> Tensor:
    """Node of the batch mean of the squared reconstruction norm, summed in
    float64; its VJP keeps the dtype of recon."""
    diff = recon.data - x
    n = x.shape[0]

    def backward(grad):
        a = float(grad) * (1.0 / n) * diff
        return a + a  # one term per factor of diff * diff

    return node(np.sum(diff * diff, dtype=np.float64) * (1.0 / n), recon, backward)


def elbo_loss(model: VaeModel, x: np.ndarray, beta: float, noise: np.ndarray,
              buffers: RowBuffers | None = None) -> ElboResult:
    """Batch loss (mean squared reconstruction norm plus beta * KL).

    Its gradient is left in model.flat_grad (the .grad of the model's one
    parameter) until the next call overwrites it: the backward pass writes
    every weight and bias gradient view exactly once, so flat_grad is never
    zeroed first.

    noise must hold one standard-normal draw per Gaussian component, shaped
    like the encoder's mu block; the result is deterministic given it. A
    circle latent is built in buffers when given (see VaeModel._posterior).
    The step runs in the model's dtype, to which x is converted.
    """
    x = np.asarray(x, dtype=model.flat.dtype)
    if x.ndim != 2:
        raise ValueError("expected a (N, input_dim) batch")
    out = model.encoder.forward(Tensor(x))
    v, kl = model._posterior(out, noise, beta, buffers)
    recon = model.decoder.forward(v)
    recon_term = _reconstruction_loss(recon, x)
    reconstruction = float(recon_term.data)
    loss = reconstruction + kl * beta
    if not np.isfinite(loss):
        bad = np.unique(np.argwhere(~np.isfinite(recon.data))[:, 0])
        raise NumericsError(
            f"non-finite loss (recon={reconstruction}, kl={kl}) on a "
            f"batch of {x.shape[0]}; offending rows: {bad.tolist()[:8]}"
        )
    recon_term.backward()
    return ElboResult(loss, reconstruction, kl)


# -- Adam ----------------------------------------------------------------------


@dataclass
class AdamState:
    """First and second moments of a model's one parameter, and one block of
    scratch for adam_step, all of the parameter's dtype."""

    m: np.ndarray
    v: np.ndarray
    update: np.ndarray
    scratch: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params):
        (param,) = params
        size, dtype = param.data.size, param.data.dtype
        block = min(ADAM_BLOCK, size)
        return cls(m=np.zeros(size, dtype), v=np.zeros(size, dtype),
                   update=np.zeros(block, dtype), scratch=np.zeros(block, dtype))


def adam_step(params, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update of the parameter's data by its .grad, in place.

    params is the one-item list the state was made for (a model's
    parameters(): one Tensor over VaeModel.flat), its data and grad arrays
    C-contiguous. A non-finite gradient, or one whose square overflows the
    dtype (as the second moment would), raises NumericsError before anything
    changes. The parameter is updated one block of ADAM_BLOCK elements at a
    time, so a block's moments, gradient and scratch stay in cache, and no
    arrays are allocated.
    """
    (param,) = params
    size = max_abs(param.grad)
    if not np.isfinite(size):
        raise NumericsError("non-finite gradient")
    if size >= np.sqrt(np.finfo(size.dtype).max):
        raise NumericsError(f"gradient of magnitude {size:.3g}: its square overflows {size.dtype}")
    state.step += 1
    t = state.step
    data, grad = param.data.reshape(-1), param.grad.reshape(-1)
    for lo in range(0, data.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)  # the last one stops at the end
        g, m, v = grad[block], state.m[block], state.v[block]
        m_hat, s = state.update[: g.size], state.scratch[: g.size]
        # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        s *= g
        v += s
        # update = lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
        np.divide(m, 1.0 - ADAM_BETA1**t, out=m_hat)
        np.divide(v, 1.0 - ADAM_BETA2**t, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        m_hat *= lr
        m_hat /= s
        data[block] -= m_hat
    return state


# -- training -------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    latent_dim: int
    beta: float
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int
    hidden: tuple = (256, 128)
    val_fraction: float = 0.2
    input_scale: str = SCALE_SYMMETRIC

    def __post_init__(self):
        """The ranges that no inclusive bound of a config key expresses (the
        others are cli.CONFIG_KEYS bounds); each message starts with the name
        of the field it rejects."""
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if len(self.hidden) > MAX_HIDDEN_LAYERS:
            raise ConfigError(f"hidden must list at most {MAX_HIDDEN_LAYERS} widths, "
                              f"got {len(self.hidden)}")
        LatentSpec(self.mode, self.latent_dim)  # validates mode/latent_dim

    def latent(self) -> LatentSpec:
        return LatentSpec(self.mode, self.latent_dim)


@dataclass
class TrainReport:
    train_loss: list
    val_mse: list
    best_epoch: int
    seed: int
    mode: str
    latent_dim: int
    beta: float


def scale_in(x: np.ndarray, input_scale: str, dtype=np.float64) -> np.ndarray:
    """Map dataset values (float32 or float64) to the model's [-1, 1] input range, in dtype.

    The map runs in the wider of the values' dtype and dtype, and its result
    is rounded to dtype once. float32 to float64 is exact and the map works
    element by element, so the rows of a float32 array scale to the same
    bits as the same rows of its float64 copy.
    """
    x = np.asarray(x)
    x = np.asarray(x, dtype=np.promote_types(x.dtype, dtype))
    x = 2.0 * x - 1.0 if input_scale == SCALE_UNIT else x
    return x.astype(dtype, copy=False)


def scale_out(y: np.ndarray, input_scale: str) -> np.ndarray:
    """Map decoder output back to the dataset's value range."""
    return np.clip((y + 1.0) / 2.0, 0.0, 1.0) if input_scale == SCALE_UNIT else y


def split_rows(seed: int, n: int, val_fraction: float):
    """(train rows, validation rows) of the split train() makes for a seed.

    The split comes from the second of four streams spawned off the seed.
    When the validation share rounds to none or to every row, both sets are
    all rows in their original order.
    """
    split_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[1])
    perm = split_rng.permutation(n)
    n_val = int(round(n * val_fraction))
    if n_val == 0 or n_val == n:
        return np.arange(n), np.arange(n)
    return perm[n_val:], perm[:n_val]


def _noise_shape(latent: LatentSpec, n: int):
    if latent.mode == TORUS:
        return (n, latent.dim, 2)
    return (n, latent.dim)


def validation_mse(model: VaeModel, x_scaled: np.ndarray,
                   buffers: RowBuffers | None = None) -> float:
    """Per-element reconstruction MSE with the noise-free latent (embedded in buffers).

    The squared error is formed in the reconstruction's own array, so the
    validation rows need one array beside them, not two, and averaged in
    float64 whatever the model's dtype.
    """
    err = model.reconstruct_mean(x_scaled, buffers)
    err -= x_scaled
    err *= err
    return float(np.mean(err, dtype=np.float64))


def train(config: TrainConfig, samples: np.ndarray):
    """Train a model on raw samples; returns (model, report).

    samples is a float32 or float64 (N, input_dim) array, such as the float32
    pixel view of a loaded dataset's file buffer. Each batch gathers its rows
    and only then converts and scales them (scale_in), and the validation
    rows are converted once, so train holds no second copy of the training
    rows and the result does not depend on which of the two dtypes holds
    the same values.

    The whole step runs in TRAIN_DTYPE: the batches and validation rows, the
    model's parameters and gradient, Adam's moments and the run's buffers.
    The initial weights and the noise are drawn in float64 from the streams
    below and rounded to it. The validation MSE and the reported loss terms
    are summed in float64.

    A circle latent's products and decoder input are built in one set of
    RowBuffers sized for the larger of a batch and the validation rows, made
    once and shared by every step and validation pass: a step that made them
    afresh would free and fault in about 1.7 MB of pages at D=8, batch 144.

    Deterministic per seed: initialization, the train/validation split, epoch
    shuffles and reparameterization noise all come from independent streams
    spawned off config.seed. The returned model is a float64 inference model
    (its flat_grad is None, as for a loaded one) holding the exact upcast of
    the parameters of the epoch with the lowest validation MSE. A
    NumericsError from a step names its epoch and its step within the epoch.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ConfigError("dataset must be a nonempty (N, input_dim) array")
    n, input_dim = samples.shape

    init_seq, _, shuffle_seq, noise_seq = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, shuffle_rng, noise_rng = (
        np.random.default_rng(s) for s in (init_seq, shuffle_seq, noise_seq)
    )

    dtype = TRAIN_DTYPE
    latent = config.latent()
    model = build_vae(latent, input_dim, config.hidden, init_rng, config.input_scale, dtype)

    train_rows, val_rows = split_rows(config.seed, n, config.val_fraction)
    val_x = scale_in(samples[val_rows], config.input_scale, dtype)
    # sized for a validation pass and the largest batch (no more than the training rows)
    buffers = RowBuffers(max(min(config.batch_size, train_rows.size), val_rows.size), dtype)

    params = model.parameters()
    state = AdamState.for_params(params)
    train_loss = []
    val_mse = []
    best_epoch = 0
    n_train = train_rows.size
    for epoch in range(config.epochs):
        rows = train_rows[shuffle_rng.permutation(n_train)]
        total = 0.0
        for step, lo in enumerate(range(0, n_train, config.batch_size)):
            batch = scale_in(samples[rows[lo : lo + config.batch_size]], config.input_scale, dtype)
            noise = noise_rng.standard_normal(_noise_shape(latent, batch.shape[0]))
            try:
                result = elbo_loss(model, batch, config.beta, noise.astype(dtype, copy=False),
                                   buffers)
                adam_step(params, state, config.learning_rate)
            except NumericsError as exc:
                raise NumericsError(f"epoch {epoch}, step {step}: {exc}") from exc
            total += result.loss * batch.shape[0]
        train_loss.append(total / n_train)
        val_mse.append(validation_mse(model, val_x, buffers))
        if val_mse[epoch] < val_mse[best_epoch] or epoch == 0:  # so best_snapshot is set
            best_epoch = epoch
            best_snapshot = model.snapshot()

    best = VaeModel(latent, input_dim, config.hidden, config.input_scale,
                    flat=best_snapshot.astype(np.float64))
    report = TrainReport(
        train_loss=train_loss,
        val_mse=val_mse,
        best_epoch=best_epoch,
        seed=config.seed,
        mode=config.mode,
        latent_dim=config.latent_dim,
        beta=config.beta,
    )
    return best, report


# -- checkpoint io ---------------------------------------------------------------

# A tag is the index of its name here.
_MODES = (TORUS, EUCLIDEAN)
_SCALES = (SCALE_SYMMETRIC, SCALE_UNIT)
_ACTIVATIONS = ("identity", "relu", "tanh")


def _header(latent: LatentSpec, input_scale: str, input_dim: int, hidden) -> bytes:
    """The TDVAE1 header of a model: the magic, u8 mode and scale tags, u32 latent
    and input dims, then the encoder's and the decoder's layer_specs, each a u8
    layer count and one (u32 fan_in, u32 fan_out, u8 activation tag) per layer."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<BBII", _MODES.index(latent.mode),
                                           _SCALES.index(input_scale), latent.dim, input_dim)]
    for specs in layer_specs(latent, input_dim, hidden):
        parts.append(struct.pack("<B", len(specs)))
        parts += [struct.pack("<IIB", fan_in, fan_out, _ACTIVATIONS.index(act))
                  for fan_in, fan_out, act in specs]
    return b"".join(parts)


def save_checkpoint(model: VaeModel, path) -> None:
    header = _header(model.latent, model.input_scale, model.input_dim, model.hidden)
    payload = memoryview(model.flat.astype("<f8", copy=False)).cast("B")
    with sized_output(path, len(header) + payload.nbytes) as fh:
        fh.write(header)
        fh.write(payload)


def load_checkpoint(path) -> VaeModel:
    """The model a TDVAE1 file holds: its header must be the _header of its mode,
    scale, dims and encoder's hidden widths, byte for byte, and its payload,
    uncopied, becomes the model's flat."""
    reader = Reader(path, tail_alignment=8)  # the float64 payload ends the file
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    mode_tag, scale_tag, latent_dim, input_dim = reader.unpack("<BBII")
    if mode_tag >= len(_MODES) or scale_tag >= len(_SCALES):
        raise FormatError(f"unknown mode/scale tags in {path}")
    (count,) = reader.unpack("<B")
    hidden = [reader.unpack("<IIB")[1] for _ in range(count)][:-1]
    try:
        latent = LatentSpec(_MODES[mode_tag], latent_dim)
    except ConfigError as exc:
        raise FormatError(f"{exc} in {path}") from None
    header = _header(latent, _SCALES[scale_tag], input_dim, hidden)
    expected = layer_specs(latent, input_dim, hidden)
    if reader.blob[: len(header)] != header:
        raise FormatError(f"layer table in {path} is not the model architecture of its header "
                          f"and hidden widths {hidden}: expected encoder {expected[0]} and "
                          f"decoder {expected[1]}")
    reader.offset = len(header)
    # The payload's size is checked against the bytes present before any
    # parameter array is allocated.
    flat = np.frombuffer(reader.take(8 * param_count(expected[0] + expected[1])), dtype="<f8")
    reader.done()
    if not np.isfinite(max_abs(flat)):
        raise FormatError(f"non-finite parameter in {path}")
    try:
        return VaeModel(latent, input_dim, hidden, _SCALES[scale_tag], flat=flat)
    except ConfigError as exc:
        raise FormatError(f"{exc} in {path}") from exc
