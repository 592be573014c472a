"""Importance-matrix disentanglement metrics.

One lasso regressor per ground-truth factor maps standardized codes to that
factor; the absolute regression weights form the importance matrix R, from
which the rank-corrected disentanglement, the completeness, the held-out
informativeness and their geometric mean are computed.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

DEFAULT_ALPHA_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 0.8, 1.0)
RANK_REL_TOL = 1e-8
FLOAT_FORMAT = "%.9g"


def standardize_columns(arr: np.ndarray):
    """Zero-mean unit-variance columns; constant columns pass through as zeros."""
    arr = np.asarray(arr, dtype=float)
    mean = arr.mean(axis=0)
    std = arr.std(axis=0)
    dead = std == 0.0
    safe = np.where(dead, 1.0, std)
    out = (arr - mean) / safe
    out[:, dead] = 0.0
    return out, dead


# -- lasso ----------------------------------------------------------------------


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0), elementwise, for t >= 0.

    Written as two clamps, which round exactly like the scalar x - t and x + t.
    """
    return np.maximum(x - t, 0.0) + np.minimum(x + t, 0.0)


def lasso_objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, alpha: float) -> float:
    r = y - X @ w
    return float(r @ r / (2.0 * X.shape[0]) + alpha * np.abs(w).sum())


def _moments(X: np.ndarray, Y: np.ndarray):
    """X'X/n and X'Y/n: the covariance form of a lasso on rows X with targets Y (n, K)."""
    return X.T @ X / len(X), X.T @ Y / len(X)


def null_threshold(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest alpha at which the lasso solution is exactly zero: max_j |X_j.y| / N.

    Evaluated with the same X'y/N expression coordinate descent starts from,
    so `lasso_fit(X, y, alpha)` returns exact zeros for any alpha at or above
    this value.
    """
    X = np.asarray(X, dtype=float)
    _, c = _moments(X, np.asarray(y, dtype=float).reshape(len(X), -1))
    return float(np.abs(c).max())


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha, tol: float = 1e-8,
              max_sweeps: int = 10_000, folds=None) -> np.ndarray:
    """Minimize (1/2n)||y - Xw||^2 + alpha*||w||_1 for a stack of lasso problems.

    Covariance coordinate descent (Friedman, Hastie & Tibshirani 2010): a
    fold's rows give G = X'X/n and c = X'y/n, and coordinate j of every live
    problem moves to soft_threshold(c_j - G_j.w + G_jj w_j, alpha) / G_jj;
    columns with G_jj == 0 stay zero. A problem stops after its first full
    sweep in which no coordinate moved by tol or more. y is (N,) or (N, K);
    alpha broadcasts against y's factor axis, so (K,) gives each factor its
    own and (A, 1) crosses A alphas with K factors. folds, if given, lists F
    row-index arrays, each of which every problem is solved on. Returns
    ([F,] *broadcast shape, D) weights: (D,) for a 1-d y and a scalar alpha.
    Inputs are expected standardized; no intercept is fitted.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if X.ndim != 2 or y.ndim not in (1, 2) or y.shape[0] != X.shape[0]:
        raise ValueError("X must be (N, D) and y (N,) or (N, K)")
    if np.any(alpha < 0):
        raise ValueError("alpha must be >= 0")
    n, d = X.shape
    Y = y.reshape(n, -1)
    shape = np.broadcast_shapes(alpha.shape, y.shape[1:])
    alphas = np.broadcast_to(alpha, shape).ravel()
    factor = np.broadcast_to(np.arange(Y.shape[1]).reshape(y.shape[1:]), shape).ravel()
    moments = [_moments(X[rows], Y[rows]) for rows in ([slice(None)] if folds is None else folds)]
    G = np.stack([g for g, _ in moments])  # (F, D, D)
    C = np.stack([c[:, factor] for _, c in moments])  # (F, D, problems per fold)
    diag = np.diagonal(G, axis1=1, axis2=2)[..., None]  # (F, D, 1)
    W = np.zeros(C.shape)
    live = np.ones((C.shape[0], C.shape[2]), dtype=bool)
    for _ in range(max_sweeps):
        moved = np.zeros(live.shape)
        for j in range(d):
            old = W[:, j]
            rho = C[:, j] - (G[:, j, None] @ W)[:, 0] + diag[:, j] * old
            new = np.divide(soft_threshold(rho, alphas), diag[:, j], out=old.copy(),
                            where=live & (diag[:, j] != 0.0))
            np.maximum(moved, np.abs(new - old), out=moved)
            W[:, j] = new
        live &= moved >= tol
        if not live.any():
            break
    else:
        warnings.warn(
            f"lasso coordinate descent did not converge: {int(live.sum())} of {live.size} "
            f"problems still moved after {max_sweeps} sweeps, by up to {moved.max():.3e}"
        )
    lead = () if folds is None else (len(moments),)
    return W.transpose(0, 2, 1).reshape(lead + shape + (d,))


def lasso_cv(X: np.ndarray, y: np.ndarray, seed: int,
             grid=DEFAULT_ALPHA_GRID, folds: int = 10):
    """Pick alpha by k-fold cross validation, then refit on all rows.

    Folds are contiguous blocks of a seeded shuffle, shared by all columns
    (factors) of an (N, K) y. One lasso_fit pass solves every (fold, alpha,
    factor) problem, a second refits each factor at its alpha. Ties in mean
    held-out MSE go to the larger (sparser) alpha. Returns (best_alpha,
    weights): a float and (D,) for a 1-d y, (K,) and (K, D) for an (N, K) y.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if folds < 2:
        raise ConfigError(f"cross validation needs at least 2 folds, got {folds}")
    if n < folds:
        raise ConfigError(f"need at least {folds} rows for {folds}-fold CV, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    blocks = np.array_split(perm, folds)
    grid = np.asarray(sorted(grid), dtype=float)
    Y = y.reshape(n, -1)
    W = lasso_fit(X, Y, grid[:, None], folds=[np.delete(np.arange(n), b) for b in blocks])
    mse = np.zeros((grid.size, Y.shape[1]))
    for block, w in zip(blocks, W):  # w: (A, K, D)
        resid = Y[block].T - w @ X[block].T
        mse += (resid * resid).sum(axis=-1) / block.size
    # the index of the largest alpha among those tied at the least error
    best = np.where(mse == mse.min(axis=0), np.arange(grid.size)[:, None], -1).max(axis=0)
    alphas = grid[best]
    weights = lasso_fit(X, Y, alphas)
    if y.ndim == 1:
        return float(alphas[0]), weights[0]
    return alphas, weights


# -- metric formulas --------------------------------------------------------------


def numerical_rank(R: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    s = np.linalg.svd(np.atleast_2d(R), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _check_importance(R) -> np.ndarray:
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if np.any(R < 0) or not np.isfinite(R).all():
        raise ValueError("importance matrix must be nonnegative and finite")
    return R


def _entropy_complement(p: np.ndarray, base: int) -> float:
    """1 - H_base(p) with the 0*log0 := 0 convention; 1 by convention when base is 1."""
    if base <= 1:
        return 1.0
    nz = p[p > 0]
    value = 1.0 + np.sum(nz * np.log(nz) / np.log(base))
    return float(min(max(value, 0.0), 1.0))


@dataclass
class DisentanglementResult:
    score: float
    per_code: np.ndarray
    code_weights: np.ndarray  # rho
    rank: int
    degenerate: bool = False


def disentanglement(R) -> DisentanglementResult:
    """Rank-corrected, importance-weighted per-code entropy complement."""
    R = _check_importance(R)
    d_codes, k = R.shape
    row_sums = R.sum(axis=1)
    total = row_sums.sum()
    rank = numerical_rank(R)
    if total == 0.0:
        return DisentanglementResult(0.0, np.zeros(d_codes), np.zeros(d_codes), rank, True)
    rho = row_sums / total
    per_code = np.zeros(d_codes)
    for a in range(d_codes):
        if row_sums[a] > 0.0:
            per_code[a] = _entropy_complement(R[a] / row_sums[a], k)
    score = min(max(rank / k * float(rho @ per_code), 0.0), 1.0)
    return DisentanglementResult(score, per_code, rho, rank)


@dataclass
class CompletenessResult:
    score: float
    per_factor: np.ndarray


def completeness(R) -> CompletenessResult:
    """Mean per-factor entropy complement over codes (all codes weighted equally)."""
    R = _check_importance(R)
    d_codes, k = R.shape
    col_sums = R.sum(axis=0)
    per_factor = np.zeros(k)
    for j in range(k):
        if col_sums[j] > 0.0:
            per_factor[j] = _entropy_complement(R[:, j] / col_sums[j], d_codes)
    score = min(max(float(per_factor.mean()), 0.0), 1.0)
    return CompletenessResult(score, per_factor)


def dc_score(d: float, c: float) -> float:
    """Geometric mean of disentanglement and completeness."""
    for name, value in (("disentanglement", d), ("completeness", c)):
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(np.sqrt(max(d, 0.0) * max(c, 0.0)))


# -- full evaluation ----------------------------------------------------------------


@dataclass
class DciReport:
    disentanglement: float
    completeness: float
    informativeness: float
    dc_score: float
    per_code_disentanglement: list
    per_factor_completeness: list
    code_weights: list
    rank: int
    n_codes: int
    n_factors: int
    n_rows: int
    alphas: list
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


DCI_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "disentanglement", "completeness", "informativeness", "dc_score",
        "per_code_disentanglement", "per_factor_completeness", "code_weights",
        "rank", "n_codes", "n_factors", "n_rows", "alphas", "flags",
    ],
    "properties": {
        "disentanglement": {"type": "number", "minimum": 0, "maximum": 1},
        "completeness": {"type": "number", "minimum": 0, "maximum": 1},
        "informativeness": {"type": "number", "minimum": 0},
        "dc_score": {"type": "number", "minimum": 0, "maximum": 1},
        "per_code_disentanglement": {"type": "array", "items": {"type": "number"}},
        "per_factor_completeness": {"type": "array", "items": {"type": "number"}},
        "code_weights": {"type": "array", "items": {"type": "number"}},
        "rank": {"type": "integer", "minimum": 0},
        "n_codes": {"type": "integer", "minimum": 1},
        "n_factors": {"type": "integer", "minimum": 1},
        "n_rows": {"type": "integer", "minimum": 1},
        "alphas": {"type": "array", "items": {"type": "number"}},
        "flags": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


@dataclass
class DciEvaluation:
    """Full pipeline result: the JSON-facing report, the importance matrix R
    (D_codes, K) and the standardized codes and factors it was fitted on."""

    report: DciReport
    importance: np.ndarray
    codes: np.ndarray
    factors: np.ndarray


def run_dci(codes: np.ndarray, factors: np.ndarray, split_seed: int,
            grid=DEFAULT_ALPHA_GRID, folds: int = 10,
            holdout_fraction: float = 0.2) -> DciEvaluation:
    """Run the whole metric pipeline on paired codes (N, D_codes) and factors (N, K).

    Both blocks are standardized with this set's statistics (constant columns
    warn and become zeros), one lasso per factor is fitted on the non-holdout
    rows, R[a, i] = |W[i, a]| is how much code a counts in predicting factor
    i, and informativeness is the mean squared error of the lasso predictions
    on the holdout rows.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must be in (0, 1)")
    codes = np.asarray(codes, dtype=float)
    factors = np.asarray(factors, dtype=float)
    if codes.ndim != 2 or factors.ndim != 2:
        raise ValueError("codes and factors must be 2-d arrays")
    n = codes.shape[0]
    if factors.shape[0] != n:
        raise ValueError(f"row count mismatch: {n} codes vs {factors.shape[0]} factors")
    codes, dead_codes = standardize_columns(codes)
    factors, dead_factors = standardize_columns(factors)
    for name, dead in (("code", dead_codes), ("factor", dead_factors)):
        for idx in np.flatnonzero(dead):
            warnings.warn(f"{name} column {idx} is constant; passed through as zeros")

    holdout_rng, cv_seed_seq = np.random.SeedSequence(split_seed).spawn(2)
    perm = np.random.default_rng(holdout_rng).permutation(n)
    n_hold = max(1, int(round(n * holdout_fraction)))
    if n_hold >= n:
        raise ConfigError("holdout split leaves no rows to fit on")
    hold_idx, fit_idx = perm[:n_hold], perm[n_hold:]
    cv_seed = int(np.random.default_rng(cv_seed_seq).integers(2**31 - 1))
    alphas, weights = lasso_cv(codes[fit_idx], factors[fit_idx], cv_seed, grid, folds)
    R = np.abs(weights).T

    dis = disentanglement(R)
    comp = completeness(R)
    resid = factors[hold_idx] - codes[hold_idx] @ weights.T
    info = float(np.mean(resid**2))

    flags = []
    if dis.degenerate:
        flags.append("zero_importance_matrix")
    for a in np.flatnonzero(R.sum(axis=1) == 0.0):
        flags.append(f"dead_code:{a}")
    for j in np.flatnonzero(R.sum(axis=0) == 0.0):
        flags.append(f"dead_factor:{j}")

    report = DciReport(
        disentanglement=dis.score,
        completeness=comp.score,
        informativeness=info,
        dc_score=dc_score(dis.score, comp.score),
        per_code_disentanglement=dis.per_code.tolist(),
        per_factor_completeness=comp.per_factor.tolist(),
        code_weights=dis.code_weights.tolist(),
        rank=dis.rank,
        n_codes=int(codes.shape[1]),
        n_factors=int(factors.shape[1]),
        n_rows=int(n),
        alphas=alphas.tolist(),
        flags=flags,
    )
    return DciEvaluation(report, R, codes, factors)


# -- heatmaps -------------------------------------------------------------------------


@dataclass
class HeatmapBundle:
    importance: np.ndarray
    histograms: dict  # (code index, factor index) -> (bins, bins) count matrix
    bins: int


def heatmap_export(codes: np.ndarray, factors: np.ndarray, R: np.ndarray,
                   bins: int = 32) -> HeatmapBundle:
    """Joint 2-d histograms of every (code, factor) pair over their observed ranges."""
    codes = np.asarray(codes, dtype=float)
    factors = np.asarray(factors, dtype=float)
    R = _check_importance(R)
    histograms = {}
    for a in range(codes.shape[1]):
        for j in range(factors.shape[1]):
            c_range = _observed_range(codes[:, a])
            z_range = _observed_range(factors[:, j])
            counts, _, _ = np.histogram2d(
                codes[:, a], factors[:, j], bins=bins, range=[c_range, z_range]
            )
            histograms[(a, j)] = counts
    return HeatmapBundle(importance=R, histograms=histograms, bins=bins)


def _observed_range(values: np.ndarray):
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return (lo, hi)


def write_csv_matrix(path, matrix: np.ndarray, header) -> None:
    """UTF-8 comma-separated matrix, header row, floats at 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([FLOAT_FORMAT % v for v in row])


def write_heatmap_bundle(bundle: HeatmapBundle, out_dir) -> list:
    """Write importance.csv plus one CSV per (code, factor) histogram; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    n_factors = bundle.importance.shape[1]
    r_path = out_dir / "importance.csv"
    write_csv_matrix(r_path, bundle.importance, [f"factor_{j}" for j in range(n_factors)])
    paths.append(r_path)
    for (a, j), counts in sorted(bundle.histograms.items()):
        path = out_dir / f"hist_code{a}_factor{j}.csv"
        write_csv_matrix(path, counts, [f"factor_bin_{b}" for b in range(bundle.bins)])
        paths.append(path)
    return paths
