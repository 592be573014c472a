"""Shared test helpers: circular error, circle sampling, finite differences, the KKT lasso oracle."""
import itertools

import numpy as np

from torusvae import engine, metrics
from torusvae.autodiff import Tensor


def circular_error(a, b):
    """Elementwise distance on the circle, in [0, pi]."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % (2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


def sample_circles(mu, logvar, noise):
    """(N, 2) unit tuples drawn for one circle by the training latent path.

    Each row is the normalized mu + exp(logvar / 2) * noise; mu and logvar
    are 2-vectors and noise holds one 2-vector per row.
    """
    model = engine.build_vae(engine.LatentSpec(engine.TORUS, 1), 1, (), np.random.default_rng(0))
    noise = np.reshape(np.asarray(noise, dtype=float), (-1, 1, 2))
    row = np.concatenate([np.asarray(mu, dtype=float), np.asarray(logvar, dtype=float)])
    out = Tensor(np.tile(row, (noise.shape[0], 1)), requires_grad=False)
    v, _ = model._posterior(out, noise, 0.0)
    return v.data[:, :2]


def finite_diff_grads(f, arrays, h=1e-5):
    """Central finite differences of scalar f() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        g_flat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            g_flat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic).ravel()
    numeric = np.asarray(numeric).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def kkt_lasso_oracle(X, y, alpha):
    """Exact lasso solution by enumerating all active-set sign patterns.

    For each pattern the stationarity system is solved and the KKT conditions
    checked; the best feasible objective wins. Independent of coordinate
    descent; only viable for a handful of features.
    """
    n, d = X.shape
    best_obj = np.inf
    best_w = np.zeros(d)
    for signs in itertools.product((-1, 0, 1), repeat=d):
        signs = np.array(signs, dtype=float)
        active = signs != 0
        w = np.zeros(d)
        if active.any():
            XA = X[:, active]
            try:
                wa = np.linalg.solve(XA.T @ XA / n, XA.T @ y / n - alpha * signs[active])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(wa) != signs[active]):
                continue
            w[active] = wa
        grad = X.T @ (y - X @ w) / n
        if np.any(np.abs(grad[~active]) > alpha + 1e-9):
            continue
        obj = metrics.lasso_objective(X, y, w, alpha)
        if obj < best_obj:
            best_obj, best_w = obj, w
    return best_obj, best_w
