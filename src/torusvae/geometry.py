"""Latent geometry of the circle-product manifold.

Angles live on D unit circles; their tuples are combined into a rank-1
tensor plus the vector of cosine components, which together form the
decoder input. Training, inference and generation build that input, and
the KL term, with the one implementation here on plain ndarrays; training
differentiates it with the hand-written VJPs beside each forward
(unit_tuples_vjp, embed_vjp). The 2**D-wide latent product is built in
RowBuffers: a training run passes one set to every step and validation
pass, so those arrays are made once per run, and every other caller gets
fresh ones. Apart from writing into the buffers it is given, each function
here leaves its arguments unchanged.
"""
from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


class DegenerateInputError(ValueError):
    """Raised when an input collapses to a point with no direction."""


class ReconstructionError(ValueError):
    """Raised when an embedding is not consistent with any rank-1 unit structure."""


def canonical_angle(theta):
    """Reduce angles modulo 2*pi into [0, 2*pi)."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("non-finite angle")
    out = np.mod(theta, TWO_PI)
    # mod can return 2*pi itself for tiny negative inputs
    out = np.where(out >= TWO_PI, 0.0, out)
    return out if out.ndim else float(out)


def _pair_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=2, keepdims=True) of (N, D, 2) x, bit for bit (numpy's sum starts from
    +0.0), in both places of each pair: no pass runs over 2 elements per pair."""
    s = 0.0 + x[:, :, :1] + x[:, :, 1:]
    return np.concatenate((s, s), axis=2)


def tuple_norms(raw: np.ndarray) -> np.ndarray:
    """Norms of (N, D, 2) pairs, each pair's norm in both of its places (see _pair_sums).

    Raises DegenerateInputError naming the rows that hold a zero pair.
    """
    norm_sq = _pair_sums(raw * raw)
    zero = norm_sq == 0.0
    if zero.any():
        rows = np.flatnonzero(zero.any(axis=(1, 2)))
        raise DegenerateInputError(f"circle tuple collapsed to zero in rows {rows.tolist()}")
    return np.sqrt(norm_sq)


def unit_tuples(raw: np.ndarray) -> np.ndarray:
    """Project (N, D, 2) pairs onto their unit circles (see tuple_norms)."""
    return raw / tuple_norms(raw)


def unit_tuples_vjp(raw: np.ndarray, nrm: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient with respect to raw of <grad, unit_tuples(raw)>, given nrm = tuple_norms(raw).

    The norm's share goes in twice, once per factor of raw * raw.
    """
    share = _pair_sums((-grad * raw) / (nrm * nrm)) * 0.5 / nrm * raw
    out = grad / nrm
    out += share
    out += share
    return out


class RowBuffers:
    """Flat arrays of dtype for up to `rows` rows, one per name, each made on first use.

    take(name, n, width) views the first n * width elements of the array
    called name, which holds rows * width; a call on fewer rows, such as a
    short last batch, works in a prefix of the same memory, and nothing is
    reallocated. What a function leaves in a buffer stays valid only until
    the next call that takes the same name.
    """

    def __init__(self, rows: int, dtype=np.float64):
        self.rows = rows
        self.dtype = np.dtype(dtype)
        self._arrays = {}

    def take(self, name: str, n: int, width: int) -> np.ndarray:
        flat = self._arrays.get(name)
        if flat is None:
            flat = self._arrays[name] = np.empty(self.rows * width, self.dtype)
        if n * width > flat.size:
            raise ValueError(f"{n} rows of width {width} do not fit the {name!r} buffer "
                             f"of {flat.size} elements")
        return flat[: n * width]


def _products(mt: np.ndarray, levels: np.ndarray) -> list:
    """Rank-1 products of the first 1..D tuples, shaped (2**a, N) for a = 1..D.

    mt holds the tuples circle-major, (D, 2, N), so each level is two
    multiplications over contiguous (2**a, N) blocks rather than a pass of
    2-element inner loops per row. The products of 2..D tuples are written
    one after another into levels, a flat array of at least
    (2**(D + 1) - 4) * N elements.
    """
    n = mt.shape[2]
    out = [mt[0]]
    lo = 0
    for a in range(1, mt.shape[0]):
        p = out[-1]
        level = levels[lo : lo + 2 * p.size].reshape(-1, 2, n)
        lo += 2 * p.size
        np.multiply(p, mt[a, 0], out=level[:, 0])
        np.multiply(p, mt[a, 1], out=level[:, 1])
        out.append(level.reshape(-1, n))
    return out


def embed_parts(m: np.ndarray, buffers: RowBuffers | None = None):
    """(embed(m), tuples, products): the decoder input and what embed_vjp reads.

    tuples is m circle-major, (D, 2, N), and products the rank-1 products of
    the first 1..D tuples (see _products). All three are views of arrays in
    buffers (fresh ones sized for m, of its dtype, when none are given), so
    they hold until the next call on the same buffers.
    """
    n, d = m.shape[0], m.shape[1]
    if buffers is None:
        buffers = RowBuffers(n, m.dtype)
    mt = buffers.take("tuples", n, 2 * d).reshape(d, 2, n)
    np.copyto(mt, m.transpose(1, 2, 0))
    products = _products(mt, buffers.take("levels", n, 2 ** (d + 1) - 4))
    v = buffers.take("embedding", n, 2**d + d).reshape(n, -1)
    np.copyto(v[:, : 2**d], products[-1].T)
    np.copyto(v[:, 2**d :], m[:, :, 0])
    return v, mt, products


def embed(m: np.ndarray, buffers: RowBuffers | None = None) -> np.ndarray:
    """Decoder input rows (N, 2**D + D) from (N, D, 2) unit tuples.

    The first 2**D columns are the flattened rank-1 product: the entry that
    takes component alpha_a of tuple a sits at sum_a alpha_a * 2**(D - 1 - a),
    so the first tuple's component index is the most significant bit. The
    last D columns are the tuples' cosine components. The rows are a view of
    buffers when given (see embed_parts).
    """
    return embed_parts(m, buffers)[0]


def embed_vjp(mt: np.ndarray, products: list, grad: np.ndarray,
              buffers: RowBuffers | None = None) -> np.ndarray:
    """Gradient with respect to m of <grad, embed(m)>, from embed_parts(m)'s tuples and products.

    Runs back over the partial products, last tuple first, and adds the
    product block's share to m before the cosine block's; that fixed order
    fixes the rounding of the training gradients. Like embed it works
    circle-major: each sum over the 2**a entries of a level runs over axis 0
    of a (2**a, 2, N) array, adding the terms in the same order as a sum
    over the middle axis of the row-major (N, 2**a, 2) layout. The
    transposed gradient and each level's products are formed in buffers
    (fresh ones when none are given); the result is a new (N, D, 2) array.
    """
    d, n = mt.shape[0], mt.shape[2]
    if buffers is None:
        buffers = RowBuffers(n, mt.dtype)
    out = np.zeros_like(mt)
    g = buffers.take("grad", n, 2**d)
    scratch = buffers.take("scratch", n, 2**d)
    np.copyto(g.reshape(-1, n), grad[:, : 2**d].T)
    for a in range(d - 1, 0, -1):
        level = g[: 2 ** (a + 1) * n].reshape(-1, 2, n)
        s = scratch[: level.size].reshape(level.shape)
        np.multiply(level, products[a - 1][:, None, :], out=s)
        out[a] += s.sum(axis=0)
        np.multiply(level, mt[a], out=s)
        # level is spent, so the next level's gradient takes its place
        np.sum(s, axis=1, out=g[: 2**a * n].reshape(-1, n))
    out[0] += g[: 2 * n].reshape(2, n)
    out[:, 0, :] += grad[:, 2**d :].T
    return out.transpose(2, 0, 1).copy()


def embed_angles(angles) -> np.ndarray:
    """embed() of the unit tuples at (N, D) angles, reduced mod 2*pi first."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] < 1:
        raise ValueError(f"expected an (N, D) array, got shape {angles.shape}")
    angles = canonical_angle(angles)
    return embed(np.stack([np.cos(angles), np.sin(angles)], axis=2))


def gaussian_kl(mu: np.ndarray, logvar: np.ndarray, e: np.ndarray) -> float:
    """KL divergence of the pre-normalization Gaussians from N(0, 1).

    mu and logvar hold one row per sample, and e = e^logvar; the result is
    the mean over rows of the sum over every component of 0.5 * (e + mu^2 -
    logvar - 1), which is zero exactly when every mu and logvar is zero. The
    terms are formed in the arrays' dtype and summed in float64.
    """
    n = mu.shape[0]
    return float(np.sum(e + mu * mu - logvar - 1.0, dtype=np.float64) * (0.5 / n))


def gaussian_kl_vjp(mu: np.ndarray, e: np.ndarray, grad: float,
                    mu_grad: np.ndarray, logvar_grad: np.ndarray) -> None:
    """Add grad times the gradient of gaussian_kl(mu, logvar, e) to mu_grad and logvar_grad.

    With c = grad * 0.5 / N that is c * (2 mu) and c * (e - 1), added in
    place one term at a time (c * mu twice, c * e, then -c), which fixes the
    rounding of every gradient bit.
    """
    c = grad * (0.5 / mu.shape[0])
    mu_grad += c * mu  # one term per factor of mu * mu
    mu_grad += c * mu
    logvar_grad += c * e
    logvar_grad -= c


def _mode_sine_norms(prod: np.ndarray, d: int) -> np.ndarray:
    """Per-mode norms of the sine-side unfolding rows, shape (N, D).

    Unfolding mode a splits the product entries by bit a; the row with the
    bit set is sin(theta_a) times the unit-norm product of the remaining
    tuples, so its norm recovers |sin(theta_a)| directly.
    """
    n = prod.shape[0]
    cube = (prod * prod).reshape((n,) + (2,) * d)
    norms = np.empty((n, d), dtype=float)
    for a in range(d):
        axes = tuple(i + 1 for i in range(d) if i != a)
        norms[:, a] = np.sqrt(cube.sum(axis=axes)[:, 1]) if axes else np.sqrt(cube[:, 1])
    return norms


def recover_angles_batch(vectors: np.ndarray, d: int, check_tol: float = 1e-4) -> np.ndarray:
    """Invert embed_angles: (N, 2**D + D) rows back to (N, D) angles in [0, 2*pi).

    Cosines come straight from the orientation block. Sine magnitudes come
    from the mode-wise unfolding norms of the product block, which keeps the
    inversion well conditioned even at axis-aligned angles. Sine signs come
    from the ratio of the two product entries that differ only in the mode's
    own bit, anchored at the multi-index that picks each circle's dominant
    component (so the anchor entry is bounded away from zero).

    When a cosine is exactly zero the ratio carries no information; those
    signs are fixed from the anchor entry's overall parity, first such circle
    absorbing the parity and the rest defaulting to positive sine. Inputs
    whose joint signs are genuinely unidentifiable (two or more circles
    exactly at +-pi/2) are mapped to that convention.

    Raises ReconstructionError if the rows are inconsistent with a rank-1
    product of unit tuples beyond check_tol.
    """
    vectors = np.asarray(vectors, dtype=float)
    if d < 1:
        raise ValueError("d must be >= 1")
    width = 2**d + d
    if vectors.ndim != 2 or vectors.shape[1] != width:
        raise ValueError(f"expected (N, {width}) rows for d={d}, got shape {vectors.shape}")
    if not np.isfinite(vectors).all():
        raise ValueError("non-finite embedding rows")

    prod = vectors[:, : 2**d]
    orient = vectors[:, 2**d :]
    n = prod.shape[0]

    norm_err = np.abs(np.linalg.norm(prod, axis=1) - 1.0)
    if np.any(norm_err > 1e-3):
        raise ReconstructionError(
            f"product block norm deviates from 1 by up to {norm_err.max():.3e}"
        )

    c = np.clip(orient, -1.0, 1.0)
    t = _mode_sine_norms(prod, d)
    unit_err = np.abs(c**2 + t**2 - 1.0)
    if np.any(unit_err > max(check_tol, 1e-6)):
        raise ReconstructionError(
            f"cosine/sine pair leaves the unit circle by up to {unit_err.max():.3e}"
        )

    # anchor index: per circle, the larger-magnitude component
    bits = np.array([1 << (d - 1 - a) for a in range(d)], dtype=np.intp)
    choose_sin = t > np.abs(c)
    base_idx = (choose_sin * bits).sum(axis=1)
    rows = np.arange(n)
    v_base = prod[rows, base_idx]
    if np.any(v_base == 0.0):
        raise ReconstructionError("anchor product entry vanished; not a unit rank-1 structure")

    flip_idx = base_idx[:, None] ^ bits[None, :]
    v_flip = prod[rows[:, None], flip_idx]

    # sign(v_flip / v_base) equals sign(cos) * sign(sin) for either anchor choice
    sign_base = np.sign(v_base)
    signs = np.where(np.sign(v_flip) * sign_base[:, None] * np.sign(c) >= 0.0, 1.0, -1.0)
    signs[t == 0.0] = 1.0

    deferred = (c == 0.0) & (t > 0.0)
    if deferred.any():
        known = np.where(choose_sin, np.where(deferred, 1.0, signs), np.sign(c))
        required = sign_base * known.prod(axis=1)
        first = np.argmax(deferred, axis=1)
        has_deferred = deferred.any(axis=1)
        signs[deferred] = 1.0
        signs[rows[has_deferred], first[has_deferred]] = required[has_deferred]

    rebuilt = embed(np.stack([c, signs * t], axis=2))[:, : 2**d]
    rebuild_err = np.abs(rebuilt - prod).max(axis=1)
    if np.any(rebuild_err > check_tol):
        raise ReconstructionError(
            f"product block is {rebuild_err.max():.3e} away from the nearest "
            "consistent rank-1 structure"
        )

    return canonical_angle(np.arctan2(signs * t, c))

