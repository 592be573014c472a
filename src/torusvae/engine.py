"""Dense-network VAE engine with hand-rolled gradients.

Implements the circle-product latent model and a plain Euclidean-latent
beta-VAE baseline: encoder MLP, reparameterized sampling, the latent
geometry of geometry.py (per-circle normalization, rank-1 latent assembly,
KL), decoder MLP, the beta-weighted loss and Adam. A training step records
a coarse tape (autodiff.py): the dense layers' ops plus two hand-written
nodes, the posterior (sample, latent assembly and KL) and the reconstruction
loss. Inference runs the same ndarray geometry without a gradient. Training
is single-threaded and fully determined by the config seed.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, node
from .errors import ConfigError, FormatError, NumericsError, Reader
from .geometry import (TWO_PI, embed, embed_angles, embed_vjp, gaussian_kl, tuple_norms,
                       unit_tuples, unit_tuples_vjp)

TORUS = "torus"
EUCLIDEAN = "euclidean"

SCALE_SYMMETRIC = "symmetric"  # data already in [-1, 1]
SCALE_UNIT = "unit"  # data in [0, 1], mapped to [-1, 1] for the tanh decoder

CHECKPOINT_MAGIC = b"TDVAE1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LatentSpec:
    mode: str
    dim: int  # number of circles (torus) or latent width (euclidean)

    def __post_init__(self):
        if self.mode not in (TORUS, EUCLIDEAN):
            raise ConfigError(f"unknown latent mode {self.mode!r}")
        if self.dim < 1:
            raise ConfigError("latent dim must be >= 1")

    @property
    def encoder_out_dim(self) -> int:
        return 4 * self.dim if self.mode == TORUS else 2 * self.dim

    @property
    def decoder_in_dim(self) -> int:
        return 2**self.dim + self.dim if self.mode == TORUS else self.dim


def param_count(specs) -> int:
    """Number of weights and biases of (fan_in, fan_out, activation) layer specs."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out, _ in specs)


class DenseNetwork:
    """A stack of fully connected layers over slices of a model's flat vectors.

    specs holds one (fan_in, fan_out, activation) per layer, as build_vae
    makes them and load_checkpoint checks them: nonempty, chained, with an
    activation of _ACT_TAGS. Each weight and bias is a Tensor whose .data and
    .grad are views of flat and flat_grad, laid out layer by layer, weight
    before bias.
    """

    def __init__(self, specs, flat: np.ndarray, flat_grad: np.ndarray):
        self.specs = list(specs)
        self.weights = []
        self.biases = []
        offset = 0
        for fan_in, fan_out, _ in specs:
            for group, shape in ((self.weights, (fan_in, fan_out)), (self.biases, (fan_out,))):
                size = math.prod(shape)
                param = Tensor(flat[offset : offset + size].reshape(shape))
                param.grad = flat_grad[offset : offset + size].reshape(shape)
                group.append(param)
                offset += size
        self.input_dim = specs[0][0]
        self.output_dim = specs[-1][1]

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.input_dim:
            raise ValueError(
                f"expected input shape (N, {self.input_dim}), got {x.data.shape}"
            )
        h = x
        for w, b, (_, _, act) in zip(self.weights, self.biases, self.specs):
            h = h.matmul(w) + b
            if act == "relu":
                h = h.relu()
            elif act == "tanh":
                h = h.tanh()
        return h

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


def param_views(vector: np.ndarray, params) -> list:
    """Views of a flat params-ordered vector, one per parameter, shaped like its data."""
    views = []
    offset = 0
    for p in params:
        views.append(vector[offset : offset + p.data.size].reshape(p.data.shape))
        offset += p.data.size
    return views


@dataclass
class EncoderOutput:
    """Posterior parameters; mu/logvar are (N, D, 2) for circles, (N, L) otherwise."""

    mu: np.ndarray
    logvar: np.ndarray


class VaeModel:
    """Encoder, latent layout and decoder over one flat parameter vector.

    flat holds every parameter in parameters() order (the TDVAE1 payload
    order): zeros unless given, as load_checkpoint gives a file's payload.
    flat_grad holds their gradients; each weight and bias .data/.grad is a
    reshaped view into them.
    """

    def __init__(self, latent: LatentSpec, encoder_specs, decoder_specs,
                 input_scale: str = SCALE_SYMMETRIC, flat: np.ndarray | None = None):
        split = param_count(encoder_specs)
        size = split + param_count(decoder_specs)
        self.flat = np.zeros(size) if flat is None else flat
        self.flat_grad = np.zeros(size)
        self.encoder = DenseNetwork(encoder_specs, self.flat[:split], self.flat_grad[:split])
        self.decoder = DenseNetwork(decoder_specs, self.flat[split:], self.flat_grad[split:])
        if self.encoder.output_dim != latent.encoder_out_dim:
            raise ConfigError("encoder output does not match the latent layout")
        if self.decoder.input_dim != latent.decoder_in_dim:
            raise ConfigError("decoder input does not match the latent layout")
        if input_scale not in (SCALE_SYMMETRIC, SCALE_UNIT):
            raise ConfigError(f"unknown input scale {input_scale!r}")
        self.latent = latent
        self.input_scale = input_scale

    # -- the latent step ----------------------------------------------------

    def _split(self, out: np.ndarray):
        """(mu, logvar) views of encoder output rows; see EncoderOutput."""
        n, d = out.shape[0], self.latent.dim
        if self.latent.mode == TORUS:
            blocks = out.reshape(n, d, 4)
            return blocks[:, :, 0:2], blocks[:, :, 2:4]
        return out[:, 0:d], out[:, d : 2 * d]

    def _posterior(self, out: Tensor, noise: np.ndarray, beta: float):
        """(decoder input node, KL) of the encoder output node.

        The node samples mu + e^(logvar/2) * noise and, for circles,
        normalizes and embeds the sample. Its VJP also adds beta times the
        KL gradient, so the encoder output gets one gradient per step. It
        adds the terms one at a time in a fixed order (the sample's share,
        then the KL's), which fixes the rounding of every gradient bit;
        reordering them changes the bytes of trained checkpoints.
        """
        mu, logvar = self._split(out.data)
        sigma = np.exp(logvar * 0.5)
        m_hat = mu + sigma * noise
        torus = self.latent.mode == TORUS
        m = unit_tuples(m_hat) if torus else m_hat
        c = beta * (0.5 / mu.shape[0])

        def backward(grad):
            g = unit_tuples_vjp(m_hat, embed_vjp(m, grad)) if torus else grad
            out_grad = np.zeros_like(out.data)
            mu_grad, logvar_grad = self._split(out_grad)
            mu_grad += g
            mu_grad += c * mu  # the KL's mu * mu, one term per factor
            mu_grad += c * mu
            logvar_grad += g * noise * sigma * 0.5
            logvar_grad += c * np.exp(logvar)
            logvar_grad -= c
            return (out_grad,)

        return node(embed(m) if torus else m, (out,), backward), gaussian_kl(mu, logvar)

    # -- inference ----------------------------------------------------------

    def encode(self, x: np.ndarray) -> EncoderOutput:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mu, logvar = self._split(self.encoder.forward(Tensor(x, requires_grad=False)).data)
        return EncoderOutput(mu.copy(), logvar.copy())

    def decode(self, v: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(np.asarray(v, dtype=float))
        return self.decoder.forward(Tensor(v, requires_grad=False)).data.copy()

    def reconstruct_mean(self, x: np.ndarray) -> np.ndarray:
        """Noise-free reconstruction: the decoder sees the normalized posterior mean."""
        enc = self.encode(x)
        if self.latent.mode == EUCLIDEAN:
            return self.decode(enc.mu)
        return self.decode(embed(unit_tuples(enc.mu)))

    def codes(self, x: np.ndarray) -> np.ndarray:
        """Per-sample latent codes for the metrics pipeline.

        Circle mode reads the angle of each normalized posterior-mean tuple;
        Euclidean mode reads the posterior means themselves. A zero tuple
        has no angle and raises DegenerateInputError.
        """
        enc = self.encode(x)
        if self.latent.mode == EUCLIDEAN:
            return enc.mu
        tuple_norms(enc.mu)
        return np.mod(np.arctan2(enc.mu[:, :, 1], enc.mu[:, :, 0]), TWO_PI)

    def parameters(self):
        return self.encoder.parameters() + self.decoder.parameters()

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        np.copyto(self.flat, snapshot)


def build_vae(latent: LatentSpec, input_dim: int, hidden, rng: np.random.Generator,
              input_scale: str = SCALE_SYMMETRIC) -> VaeModel:
    """A new model: zero biases and weights uniform in +-sqrt(6 / fan_in), drawn
    layer by layer, encoder first."""
    hidden = list(hidden)
    if input_dim < 1 or any(h < 1 for h in hidden):
        raise ConfigError("dimensions must be positive")
    enc_dims = [input_dim] + hidden + [latent.encoder_out_dim]
    dec_dims = [latent.decoder_in_dim] + hidden[::-1] + [input_dim]
    acts = ["relu"] * len(hidden)
    model = VaeModel(latent, list(zip(enc_dims, enc_dims[1:], acts + ["identity"])),
                     list(zip(dec_dims, dec_dims[1:], acts + ["tanh"])), input_scale)
    for w in model.encoder.weights + model.decoder.weights:
        limit = np.sqrt(6.0 / w.data.shape[0])
        w.data[...] = rng.uniform(-limit, limit, size=w.data.shape)
    return model


# -- loss ---------------------------------------------------------------------


@dataclass
class ElboResult:
    loss: float
    reconstruction: float
    kl: float
    grads: list  # per-parameter views of one copy of the model's gradient vector


def _reconstruction_loss(recon: Tensor, x: np.ndarray) -> Tensor:
    """Node of the batch mean of the squared reconstruction norm."""
    diff = recon.data - x
    n = x.shape[0]

    def backward(grad):
        a = grad * (1.0 / n) * diff
        return (a + a,)  # one term per factor of diff * diff

    return node((diff * diff).sum() * (1.0 / n), (recon,), backward)


def elbo_loss(model: VaeModel, x: np.ndarray, beta: float, noise: np.ndarray) -> ElboResult:
    """Batch loss (mean squared reconstruction norm plus beta * KL) and its gradients.

    noise must hold one standard-normal draw per Gaussian component, shaped
    like the encoder's mu block; the result is deterministic given it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a (N, input_dim) batch")
    model.flat_grad.fill(0.0)
    out = model.encoder.forward(Tensor(x, requires_grad=False))
    v, kl = model._posterior(out, noise, beta)
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
    grads = param_views(model.flat_grad.copy(), model.parameters())
    return ElboResult(loss, reconstruction, kl, grads)


# -- Adam ----------------------------------------------------------------------


@dataclass
class AdamState:
    """Flat first and second moments in params order, plus preallocated scratch."""

    m: np.ndarray
    v: np.ndarray
    update: np.ndarray
    updates: list  # per-parameter views of update
    scratch: np.ndarray
    finite: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params):
        size = sum(p.data.size for p in params)
        update = np.zeros(size)
        return cls(
            m=np.zeros(size),
            v=np.zeros(size),
            update=update,
            updates=param_views(update, params),
            scratch=np.zeros(size),
            finite=np.zeros(size, dtype=bool),
        )


def adam_step(params, grads, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update, applied in place to the parameter data.

    grads is one flat vector holding the gradient of every parameter in
    params order (VaeModel.flat_grad). The update allocates no arrays.
    """
    if not np.isfinite(grads, out=state.finite).all():
        raise NumericsError("non-finite gradient")
    state.step += 1
    t = state.step
    m, v, m_hat, s = state.m, state.v, state.update, state.scratch
    # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=s)
    s *= grads
    v += s
    # update = lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=m_hat)
    np.divide(v, 1.0 - ADAM_BETA2**t, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPS
    m_hat *= lr
    m_hat /= s
    for p, update in zip(params, state.updates):
        p.data -= update
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
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")
        LatentSpec(self.mode, self.latent_dim)  # validates mode/dim

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


def scale_in(x: np.ndarray, input_scale: str) -> np.ndarray:
    """Map dataset values to the model's [-1, 1] input range."""
    return 2.0 * x - 1.0 if input_scale == SCALE_UNIT else x


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


def validation_mse(model: VaeModel, x_scaled: np.ndarray) -> float:
    """Per-element reconstruction MSE with the noise-free latent."""
    recon = model.reconstruct_mean(x_scaled)
    return float(np.mean((recon - x_scaled) ** 2))


def train(config: TrainConfig, samples: np.ndarray):
    """Train a model on raw samples; returns (model, report).

    Deterministic per seed: initialization, the train/validation split, epoch
    shuffles and reparameterization noise all come from independent streams
    spawned off config.seed. The returned model carries the parameters of the
    epoch with the lowest validation MSE.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ConfigError("dataset must be a nonempty (N, input_dim) array")
    n, input_dim = samples.shape

    init_seq, _, shuffle_seq, noise_seq = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, shuffle_rng, noise_rng = (
        np.random.default_rng(s) for s in (init_seq, shuffle_seq, noise_seq)
    )

    latent = config.latent()
    model = build_vae(latent, input_dim, config.hidden, init_rng, config.input_scale)

    x = scale_in(samples, config.input_scale)
    train_rows, val_rows = split_rows(config.seed, n, config.val_fraction)
    train_x, val_x = x[train_rows], x[val_rows]

    params = model.parameters()
    state = AdamState.for_params(params)

    train_loss = []
    val_mse = []
    best_epoch = 0
    best_snapshot = model.snapshot()
    n_train = train_x.shape[0]
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n_train)
        total = 0.0
        for lo in range(0, n_train, config.batch_size):
            batch = train_x[order[lo : lo + config.batch_size]]
            noise = noise_rng.standard_normal(_noise_shape(latent, batch.shape[0]))
            result = elbo_loss(model, batch, config.beta, noise)
            adam_step(params, model.flat_grad, state, config.learning_rate)
            total += result.loss * batch.shape[0]
        train_loss.append(total / n_train)
        val_mse.append(validation_mse(model, val_x))
        if val_mse[epoch] < val_mse[best_epoch] or epoch == 0:
            best_epoch = epoch
            best_snapshot = model.snapshot()

    model.restore(best_snapshot)
    report = TrainReport(
        train_loss=train_loss,
        val_mse=val_mse,
        best_epoch=best_epoch,
        seed=config.seed,
        mode=config.mode,
        latent_dim=config.latent_dim,
        beta=config.beta,
    )
    return model, report


def generate(model: VaeModel, angles) -> np.ndarray:
    """Decode the embedding of explicit angles (circle-latent models only)."""
    if model.latent.mode != TORUS:
        raise ConfigError("generate() needs a circle-latent model")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.shape != (model.latent.dim,):
        raise ValueError(f"expected {model.latent.dim} angles, got shape {angles.shape}")
    return model.decode(embed_angles(angles[None, :]))[0]


# -- checkpoint io ---------------------------------------------------------------

_ACT_TAGS = {"identity": 0, "relu": 1, "tanh": 2}
_TAG_ACTS = {v: k for k, v in _ACT_TAGS.items()}
_MODE_TAGS = {TORUS: 0, EUCLIDEAN: 1}
_TAG_MODES = {v: k for k, v in _MODE_TAGS.items()}
_SCALE_TAGS = {SCALE_SYMMETRIC: 0, SCALE_UNIT: 1}
_TAG_SCALES = {v: k for k, v in _SCALE_TAGS.items()}


def _pack_layers(net: DenseNetwork) -> bytes:
    parts = [struct.pack("<B", len(net.specs))]
    for fan_in, fan_out, act in net.specs:
        parts.append(struct.pack("<IIB", fan_in, fan_out, _ACT_TAGS[act]))
    return b"".join(parts)


def save_checkpoint(model: VaeModel, path) -> None:
    header = [
        CHECKPOINT_MAGIC,
        struct.pack(
            "<BBII",
            _MODE_TAGS[model.latent.mode],
            _SCALE_TAGS[model.input_scale],
            model.latent.dim,
            model.encoder.input_dim,
        ),
        _pack_layers(model.encoder),
        _pack_layers(model.decoder),
    ]
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        fh.write(memoryview(model.flat.astype("<f8", copy=False)).cast("B"))


def _read_layers(reader: Reader):
    (count,) = reader.unpack("<B")
    if count == 0:
        raise FormatError(f"network without layers in {reader.path}")
    specs = []
    for _ in range(count):
        fan_in, fan_out, tag = reader.unpack("<IIB")
        if fan_in == 0 or fan_out == 0:
            raise FormatError(f"zero-width layer in {reader.path}")
        if tag not in _TAG_ACTS:
            raise FormatError(f"unknown activation tag {tag} in {reader.path}")
        if specs and fan_in != specs[-1][1]:
            raise FormatError(f"layer shapes do not chain in {reader.path}")
        specs.append((fan_in, fan_out, _TAG_ACTS[tag]))
    return specs


def load_checkpoint(path) -> VaeModel:
    """The model a TDVAE1 file holds; its payload, uncopied, becomes the model's flat."""
    reader = Reader(path)
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    mode_tag, scale_tag, latent_dim, input_dim = reader.unpack("<BBII")
    if mode_tag not in _TAG_MODES or scale_tag not in _TAG_SCALES:
        raise FormatError(f"unknown mode/scale tags in {path}")
    enc_specs = _read_layers(reader)
    dec_specs = _read_layers(reader)
    # The declared sizes are checked against the bytes present before any
    # parameter array is allocated.
    payload = reader.take(8 * param_count(enc_specs + dec_specs))
    reader.done()
    if enc_specs[0][0] != input_dim or dec_specs[-1][1] != input_dim:
        raise FormatError(f"encoder input or decoder output dim mismatch in {path}")
    # The decoder input holds at least latent_dim columns, so this bounds
    # the 2**latent_dim of the layout check by the payload.
    if not 0 < latent_dim <= dec_specs[0][0]:
        raise FormatError(f"latent dim {latent_dim} does not fit the decoder in {path}")
    latent = LatentSpec(_TAG_MODES[mode_tag], latent_dim)
    try:
        return VaeModel(latent, enc_specs, dec_specs, _TAG_SCALES[scale_tag],
                        flat=np.frombuffer(payload, dtype="<f8"))
    except ConfigError as exc:
        raise FormatError(f"{exc} in {path}") from exc
