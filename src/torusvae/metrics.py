"""Importance-matrix disentanglement metrics.

One lasso regressor per ground-truth factor maps standardized codes to that
factor; the absolute regression weights form the importance matrix R, from
which the rank-corrected disentanglement, the completeness, the held-out
informativeness and their geometric mean are computed.
"""
from __future__ import annotations

import functools
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, sized_output, write_files

DEFAULT_ALPHA_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 0.8, 1.0)
RANK_REL_TOL = 1e-8
FLOAT_FORMAT = "%.9g"
HISTOGRAM_NAME = re.compile(r"hist_code[0-9]+_factor[0-9]+\.csv")
FINISH_EVERY = 5  # coordinate-descent sweeps between exact finishes of the live problems
FINISH_ROUNDS = 5  # active-set rounds of one finish
FINISH_RESIDUAL = 1e-10  # the largest stationarity residual a finished problem may keep


class ConvergenceWarning(UserWarning):
    """Coordinate descent stopped at max_sweeps with problems still moving."""


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


def _moments(X: np.ndarray, Y: np.ndarray):
    """X'X/n and X'Y/n: the covariance form of a lasso on rows X with targets Y (n, K)."""
    return X.T @ X / len(X), X.T @ Y / len(X)


def _support_solve(G: np.ndarray, c: np.ndarray, x: np.ndarray, alpha: np.ndarray):
    """Exact lasso solutions of P problems on one fold's G, from iterates x (P, D).

    Each problem's support starts as the nonzero coordinates of x, signed as
    x is, and is solved exactly: G restricted to the support times z equals
    c - alpha * sign on it, z is 0 off it. Up to FINISH_ROUNDS rounds, each
    followed by a new solve, drop the coordinates whose solved weight changed
    sign and add those whose correlation |c_j - G_j.z| exceeds alpha, signed
    as that correlation. Returns (z, solved): solved marks the problems whose
    last z meets the lasso's KKT conditions, with the stationarity residual
    on the support within FINISH_RESIDUAL, so that an ill-conditioned solve
    never passes.
    """
    on, sign = x != 0.0, np.sign(x)
    eye = np.eye(G.shape[0], dtype=bool)
    a = alpha[:, None]
    for round_ in range(FINISH_ROUNDS + 1):
        system = np.where(on[:, :, None] & on[:, None, :], G, eye)
        z = np.linalg.solve(system, np.where(on, c - a * sign, 0.0)[..., None])[..., 0]
        corr = c - z @ G
        kept = on & (np.sign(z) == sign)
        added = ~on & (np.abs(corr) > a)
        stable = ~((on ^ kept) | added).any(axis=1)
        if stable.all() or round_ == FINISH_ROUNDS:
            break
        on, sign = kept | added, np.where(added, np.sign(corr), sign)
    residual = np.where(on, np.abs(corr - a * sign), 0.0)
    solved = stable & np.isfinite(z).all(axis=1) & (residual.max(axis=1) <= FINISH_RESIDUAL)
    return z, solved


def lasso_fit(X: np.ndarray, y: np.ndarray, alpha, tol: float = 1e-8,
              max_sweeps: int = 10_000, folds=None) -> np.ndarray:
    """Minimize (1/2n)||y - Xw||^2 + alpha*||w||_1 for a stack of lasso problems.

    Covariance coordinate descent (Friedman, Hastie & Tibshirani 2010): a
    fold's rows give G = X'X/n and c = X'y/n, and coordinate j of every live
    problem moves to soft_threshold(c_j - G_j.w + G_jj w_j, alpha) / G_jj;
    columns with G_jj == 0 stay zero. A problem stops after its first full
    sweep in which no coordinate moved by tol or more, or earlier with an
    exact solution: every FINISH_EVERY sweeps each fold's live problems are
    solved on their supports (_support_solve), and a problem whose solution
    meets the lasso's KKT conditions stops with it; any other goes on from
    its own iterate, as does every problem of a fold whose solve raises
    LinAlgError. So no problem stops later than by descent alone, and
    ConvergenceWarning still means that problems were still moving after
    max_sweeps. y is (N,) or (N, K);
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
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
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
    for sweep in range(1, max_sweeps + 1):
        moved = np.zeros(live.shape)
        for j in range(d):
            old = W[:, j]
            rho = C[:, j] - (G[:, j, None] @ W)[:, 0] + diag[:, j] * old
            new = np.divide(soft_threshold(rho, alphas), diag[:, j], out=old.copy(),
                            where=live & (diag[:, j] != 0.0))
            np.maximum(moved, np.abs(new - old), out=moved)
            W[:, j] = new
        live &= moved >= tol
        if sweep % FINISH_EVERY == 0:
            for g, c, w, fold_live in zip(G, C, W, live):
                problems = np.flatnonzero(fold_live)
                try:
                    x, solved = _support_solve(g, c[:, problems].T, w[:, problems].T,
                                               alphas[problems])
                except np.linalg.LinAlgError:
                    continue
                w[:, problems[solved]] = x[solved].T
                fold_live[problems[solved]] = False
        if not live.any():
            break
    else:
        warnings.warn(
            f"lasso coordinate descent did not converge: {int(live.sum())} of {live.size} "
            f"problems still moved after {max_sweeps} sweeps, by up to {moved[live].max():.3e}",
            ConvergenceWarning,
        )
    lead = () if folds is None else (len(moments),)
    return W.transpose(0, 2, 1).reshape(lead + shape + (d,))


def lasso_cv(X: np.ndarray, Y: np.ndarray, seed: int,
             grid=DEFAULT_ALPHA_GRID, folds: int = 10):
    """Pick alpha by k-fold cross validation, then refit on all rows.

    Folds are contiguous blocks of a seeded shuffle, shared by all columns
    (factors) of an (N, K) Y. One lasso_fit pass solves every (fold, alpha,
    factor) problem, a second refits each factor at its alpha. Ties in mean
    held-out MSE go to the larger (sparser) alpha. Returns (best_alpha,
    weights) of shapes (K,) and (K, D).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if folds < 2:
        raise ConfigError(f"cross validation needs at least 2 folds, got {folds}")
    if n < folds:
        raise ConfigError(f"need at least {folds} rows for {folds}-fold CV, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    blocks = np.array_split(perm, folds)
    grid = np.asarray(sorted(grid), dtype=float)
    W = lasso_fit(X, Y, grid[:, None], folds=[np.delete(np.arange(n), b) for b in blocks])
    mse = np.zeros((grid.size, Y.shape[1]))
    for block, w in zip(blocks, W):  # w: (A, K, D)
        resid = Y[block].T - w @ X[block].T
        mse += (resid * resid).sum(axis=-1) / block.size
    # the index of the largest alpha among those tied at the least error
    best = np.where(mse == mse.min(axis=0), np.arange(grid.size)[:, None], -1).max(axis=0)
    alphas = grid[best]
    return alphas, lasso_fit(X, Y, alphas)


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
        "flags": {"type": "array", "items": {"type": "string", "pattern": (
            r"^(zero_importance_matrix|lasso_not_converged"
            r"|(dead|constant)_(code|factor):(0|[1-9][0-9]*))$"
        )}},
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
    on the holdout rows. What only warns (a constant column, a lasso that did
    not converge) is also kept in the report's flags. holdout_fraction is in
    (0, 1), as the metrics config is checked.
    """
    codes = np.asarray(codes, dtype=float)
    factors = np.asarray(factors, dtype=float)
    if codes.ndim != 2 or factors.ndim != 2:
        raise ValueError("codes and factors must be 2-d arrays")
    n = codes.shape[0]
    if factors.shape[0] != n:
        raise ValueError(f"row count mismatch: {n} codes vs {factors.shape[0]} factors")
    codes, dead_codes = standardize_columns(codes)
    factors, dead_factors = standardize_columns(factors)
    flags = []
    for name, dead in (("code", dead_codes), ("factor", dead_factors)):
        for idx in np.flatnonzero(dead):
            warnings.warn(f"{name} column {idx} is constant; passed through as zeros")
            flags.append(f"constant_{name}:{idx}")

    holdout_rng, cv_seed_seq = np.random.SeedSequence(split_seed).spawn(2)
    perm = np.random.default_rng(holdout_rng).permutation(n)
    n_hold = max(1, int(round(n * holdout_fraction)))
    if n_hold >= n:
        raise ConfigError("holdout split leaves no rows to fit on")
    hold_idx, fit_idx = perm[:n_hold], perm[n_hold:]
    cv_seed = int(np.random.default_rng(cv_seed_seq).integers(2**31 - 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        alphas, weights = lasso_cv(codes[fit_idx], factors[fit_idx], cv_seed, grid, folds)
    for w in caught:
        warnings.warn(w.message, stacklevel=2)
    if any(issubclass(w.category, ConvergenceWarning) for w in caught):
        flags.append("lasso_not_converged")
    R = np.abs(weights).T

    dis = disentanglement(R)
    comp = completeness(R)
    resid = factors[hold_idx] - codes[hold_idx] @ weights.T
    info = float(np.mean(resid**2))

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
    """Joint 2-d histograms of every (code, factor) pair over their observed ranges.

    Each column is binned once, with np.histogramdd's arithmetic: `bins` equal
    bins between the column's min and max (widened by 0.5 each way when they
    are equal), left edges inclusive and the last bin closed on the right.
    Each pair's counts are then one bincount of the joint bin index.
    """
    codes = np.asarray(codes, dtype=float)
    factors = np.asarray(factors, dtype=float)
    R = _check_importance(R)
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    code_bins = [_column_bins(col, bins) for col in codes.T]
    factor_bins = [_column_bins(col, bins) for col in factors.T]
    histograms = {
        (a, j): np.bincount(c * bins + z, minlength=bins * bins).reshape(bins, bins)
        for a, c in enumerate(code_bins) for j, z in enumerate(factor_bins)
    }
    return HeatmapBundle(importance=R, histograms=histograms, bins=bins)


def _column_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """The bin index in [0, bins) of every value, over the column's observed range."""
    lo, hi = float(values.min()), float(values.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"observed range [{lo}, {hi}] is not finite")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    index = np.searchsorted(edges, values, side="right")
    index[values == edges[-1]] -= 1
    return index - 1


def _csv_text(header, rows) -> str:
    """The text csv.writer writes for these rows of fields: comma-separated, each
    row ended by CRLF. Header names and formatted numbers never need quoting."""
    return "".join([",".join(fields) + "\r\n" for fields in (header, *rows)])


def _write_bytes(data: bytes, path) -> None:
    with sized_output(path, len(data)) as fh:
        fh.write(data)


def write_heatmap_bundle(bundle: HeatmapBundle, out_dir) -> list:
    """Write importance.csv plus one CSV per (code, factor) histogram; returns paths.

    All the files are written in one errors.write_files call, so an
    interruption while writing leaves the previous files whole. Only then is
    every other hist_code<a>_factor<j>.csv in out_dir, left by an earlier
    bundle with more codes or factors, removed. Each distinct count is
    formatted once, in a table indexed by the count.
    """
    out_dir = Path(out_dir)
    n_factors = bundle.importance.shape[1]
    files = {"importance.csv": _csv_text(
        [f"factor_{j}" for j in range(n_factors)],
        [[FLOAT_FORMAT % v for v in row] for row in np.atleast_2d(bundle.importance)],
    )}
    histograms = sorted(bundle.histograms.items())
    seen = np.flatnonzero(np.bincount(np.concatenate([[0]] + [c.ravel() for _, c in histograms])))
    table = np.empty(seen[-1] + 1, dtype=object)
    table[seen] = [FLOAT_FORMAT % v for v in seen.tolist()]
    header = [f"factor_bin_{b}" for b in range(bundle.bins)]
    for (a, j), cells in histograms:
        files[f"hist_code{a}_factor{j}.csv"] = _csv_text(header, table[cells].tolist())
    write_files(out_dir, {name: functools.partial(_write_bytes, text.encode("ascii"))
                          for name, text in files.items()})
    with os.scandir(out_dir) as entries:
        stale = [e.path for e in entries if HISTOGRAM_NAME.fullmatch(e.name) and e.name not in files]
    for path in stale:
        os.remove(path)
    return [out_dir / name for name in files]
