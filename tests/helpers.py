"""Shared test helpers: circular error, circle sampling, gradient probes, finite
differences, the lasso oracles, crafted checkpoints that loading refuses, code run in a
fresh interpreter, such as a CLI command's traced peak memory, one small config that
all five commands run on, with the hashes of a tree of outputs, and the parameter hash of
a short 2dshapes train, which a spawned worker can compute too."""
import hashlib
import itertools
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from torusvae import datasets, engine, metrics
from torusvae.autodiff import Tensor, node


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
    out = Tensor(np.tile(row, (noise.shape[0], 1)))
    v, _ = model._posterior(out, noise, 0.0)
    return v.data[:, :2]


def grad_probe(data):
    """(a node over a leaf of data, the list its VJP appends its gradient to).

    The tape stores no gradient, so a test that needs the gradient of an
    input puts this node under it; its VJP ends the walk.
    """
    grads = []
    return node(data, Tensor(data), lambda grad: grads.append(np.array(grad))), grads


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


# The row-major product loop and its VJP over (N, 2**a, 2) arrays, kept as the
# oracle for the circle-major code: the layouts differ, the bits may not.


def oracle_products(m):
    n, d = m.shape[0], m.shape[1]
    out = [m[:, 0, :]]
    for a in range(1, d):
        out.append((out[-1].reshape(n, -1, 1) * m[:, a, :].reshape(n, 1, 2)).reshape(n, -1))
    return out


def oracle_embed(m):
    return np.concatenate([oracle_products(m)[-1], m[:, :, 0]], axis=1)


def oracle_embed_vjp(m, grad):
    n, d = m.shape[0], m.shape[1]
    products = oracle_products(m)
    out = np.zeros_like(m)
    gp = grad[:, : 2**d]
    for a in range(d - 1, 0, -1):
        gp = gp.reshape(n, -1, 2)
        out[:, a, :] += (gp * products[a - 1].reshape(n, -1, 1)).sum(axis=1)
        gp = (gp * m[:, a, :].reshape(n, 1, 2)).sum(axis=2)
    out[:, 0, :] += gp
    out[:, :, 0] += grad[:, 2**d :]
    return out


def oracle_posterior(out, mode, noise, beta):
    """(decoder input, KL, VJP) of encoder rows out, as engine.VaeModel._posterior
    once computed them: on mu and logvar views of out whose contiguous runs are
    a circle's 2 values, recomputing the norms and e^logvar in the VJP, and
    adding every gradient term into a zero-filled array. The reference for the
    bits of the posterior that works on contiguous copies.
    """
    n, d = out.shape[0], noise.shape[1]

    def split(a):
        if mode == engine.TORUS:
            blocks = a.reshape(n, d, 4)
            return blocks[:, :, 0:2], blocks[:, :, 2:4]
        return a[:, 0:d], a[:, d : 2 * d]

    def norms(raw):
        return np.sqrt((raw * raw).sum(axis=2, keepdims=True))

    mu, logvar = split(out)
    sigma = np.exp(logvar * 0.5)
    m_hat = mu + sigma * noise
    torus = mode == engine.TORUS
    m = m_hat / norms(m_hat) if torus else None
    v = oracle_embed(m) if torus else m_hat
    kl = float((np.exp(logvar) + mu * mu - logvar - 1.0).sum() * (0.5 / n))

    def vjp(grad):
        g = grad
        if torus:
            g, nrm = oracle_embed_vjp(m, grad), norms(m_hat)
            share = ((-g * m_hat) / (nrm * nrm)).sum(axis=2, keepdims=True) * 0.5 / nrm * m_hat
            g = g / nrm
            g += share
            g += share
        out_grad = np.zeros_like(out)
        mu_grad, logvar_grad = split(out_grad)
        mu_grad += g
        logvar_grad += g * noise * sigma * 0.5
        c = beta * (0.5 / n)
        mu_grad += c * mu
        mu_grad += c * mu
        logvar_grad += c * np.exp(logvar)
        logvar_grad -= c
        return out_grad

    return v, kl, vjp


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


def lasso_objective(X, y, w, alpha):
    """The lasso objective ||y - X w||^2 / (2 N) + alpha * ||w||_1."""
    r = y - X @ w
    return float(r @ r / (2.0 * X.shape[0]) + alpha * np.abs(w).sum())


def null_threshold(X, y):
    """Smallest alpha at which the lasso solution is exactly zero: max_j |X_j.y| / N.

    Evaluated with the same X'y/N expression coordinate descent starts from,
    so `metrics.lasso_fit(X, y, alpha)` returns exact zeros for any alpha at
    or above this value.
    """
    X = np.asarray(X, dtype=float)
    _, c = metrics._moments(X, np.asarray(y, dtype=float).reshape(len(X), -1))
    return float(np.abs(c).max())


def oracle_lasso_cd(X, y, alpha, tol=1e-8, max_sweeps=10_000, folds=None):
    """metrics.lasso_fit as it was before its exact finish: covariance coordinate
    descent alone, in which a problem stops only after a sweep that moved no
    coordinate by tol or more. The reference for the bits of every problem
    that the finish leaves to coordinate descent.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n, d = X.shape
    Y = y.reshape(n, -1)
    shape = np.broadcast_shapes(alpha.shape, y.shape[1:])
    alphas = np.broadcast_to(alpha, shape).ravel()
    factor = np.broadcast_to(np.arange(Y.shape[1]).reshape(y.shape[1:]), shape).ravel()
    moments = [metrics._moments(X[rows], Y[rows])
               for rows in ([slice(None)] if folds is None else folds)]
    G = np.stack([g for g, _ in moments])
    C = np.stack([c[:, factor] for _, c in moments])
    diag = np.diagonal(G, axis1=1, axis2=2)[..., None]
    W = np.zeros(C.shape)
    live = np.ones((C.shape[0], C.shape[2]), dtype=bool)
    for _ in range(max_sweeps):
        moved = np.zeros(live.shape)
        for j in range(d):
            old = W[:, j]
            rho = C[:, j] - (G[:, j, None] @ W)[:, 0] + diag[:, j] * old
            new = np.divide(metrics.soft_threshold(rho, alphas), diag[:, j], out=old.copy(),
                            where=live & (diag[:, j] != 0.0))
            np.maximum(moved, np.abs(new - old), out=moved)
            W[:, j] = new
        live &= moved >= tol
        if not live.any():
            break
    else:
        warnings.warn(f"{int(live.sum())} of {live.size} problems still moved after "
                      f"{max_sweeps} sweeps", metrics.ConvergenceWarning)
    lead = () if folds is None else (len(moments),)
    return W.transpose(0, 2, 1).reshape(lead + shape + (d,))


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
        obj = lasso_objective(X, y, w, alpha)
        if obj < best_obj:
            best_obj, best_w = obj, w
    return best_obj, best_w


# Prints the tracemalloc peak of one CLI command: python -c _TRACED_COMMAND <command> <config>
_TRACED_COMMAND = """
import sys, tracemalloc
from torusvae import cli
tracemalloc.start()
if cli.main([sys.argv[1], "--config", sys.argv[2]]) != 0:
    sys.exit(sys.argv[1] + " failed")
print(tracemalloc.get_traced_memory()[1])
"""


def run_fresh(code, *args) -> str:
    """The stdout of python -c code args in a fresh interpreter that imports this torusvae."""
    package_root = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True).stdout


def traced_peak(command, config) -> int:
    """The tracemalloc peak in bytes of one CLI command on a config file.

    The command runs in a fresh interpreter, so that what the tests before
    it left behind in this process does not count toward it.
    """
    return int(run_fresh(_TRACED_COMMAND, command, config).splitlines()[-1])


def write_checkpoint(path, mode, latent_dim, input_dim, encoder, decoder):
    """A TDVAE1 file of a header and two (fan_in, fan_out, activation) layer
    tables as given, and a zero payload sized to those tables."""
    tags = {"identity": 0, "relu": 1, "tanh": 2}
    header = engine.CHECKPOINT_MAGIC + struct.pack(
        "<BBII", {"torus": 0, "euclidean": 1}[mode], 0, latent_dim, input_dim)
    tables = b"".join(struct.pack("<B", len(specs)) + b"".join(
        struct.pack("<IIB", fan_in, fan_out, tags[act]) for fan_in, fan_out, act in specs)
        for specs in (encoder, decoder))
    Path(path).write_bytes(header + tables + bytes(8 * engine.param_count(encoder + decoder)))


# Checkpoint arguments (mode, latent dim, input width, encoder, decoder) of files
# load_checkpoint refuses, each with a piece of its message. The foreign tables
# chain and match the header's widths but are not the one architecture of a
# 2-circle model of 8x8x3 images and hidden width 12. The oversized latents are
# over engine.MAX_LATENT_DIM: torus dims whose 2**latent_dim + latent_dim decoder
# inputs no u32 fan_in holds, with decoders whose first fan_in covers the latent
# dim and payloads of 48 and 14349 parameters, and a Euclidean dim of 2**31,
# whose 2 * 2**31 encoder outputs no u32 fan_out holds.
REFUSED_CHECKPOINTS = {
    "relu-encoder-output": ("is not the model architecture", (
        engine.TORUS, 2, 192, [(192, 12, "relu"), (12, 8, "relu")],
        [(6, 12, "relu"), (12, 192, "tanh")])),
    "unmirrored-decoder": ("is not the model architecture", (
        engine.TORUS, 2, 192, [(192, 12, "relu"), (12, 8, "identity")],
        [(6, 3, "tanh"), (3, 192, "relu")])),
    "oversized-latent-zero-width-decoder": ("does not fit the decoder", (
        engine.TORUS, 2**32 - 1, 5, [(5, 8, "identity")], [(2**32 - 1, 0, "tanh")])),
    "oversized-latent-wide-decoder": ("does not fit the decoder", (
        engine.TORUS, 14300, 5, [(5, 8, "identity")], [(14300, 1, "tanh")])),
    "oversized-euclidean-latent": ("does not fit the decoder", (
        engine.EUCLIDEAN, 2**31, 5, [(5, 8, "identity")], [(8, 5, "tanh")])),
}


# One small run of all five commands (acceptance criterion 10, the pinned output table).
ALL_COMMANDS = ("generate", "train", "evaluate", "sweep", "traverse")
ALL_COMMANDS_CONFIG = {
    "dataset": {"kind": "2dshapes", "count": 100, "seed": 41,
                "width": 8, "height": 8, "path": "data.tdds"},
    "model": {"mode": "torus", "latent_dim": 2, "beta": 1.0,
              "learning_rate": 2e-3, "batch_size": 25, "epochs": 3,
              "seed": 13, "hidden": [12]},
    "metrics": {"split_seed": 5, "folds": 5},
    "sweep": {"betas": [0.0, 1.0], "dims": [2], "csv": "sweep.csv"},
    "traverse": {"circle": 0, "steps": 4, "prefix": "strip"},
}


def hash_tree(root) -> dict:
    """The sha256 of every file under root, keyed by its path relative to root."""
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


def shapes_train_sha256(seed: int) -> str:
    """The sha256 of the flat parameters after a short 2dshapes train, set up as
    acceptance criterion 8 sets up its 2dshapes trains (torus D=4, hidden 128-64,
    batch 144, unit input scale), on 720 images for 4 epochs."""
    shapes = datasets.shapes_source(720, seed=404, width=16, height=16).render()
    config = engine.TrainConfig(mode="torus", latent_dim=4, beta=1.0, learning_rate=1e-3,
                                batch_size=144, epochs=4, seed=seed, hidden=(128, 64),
                                input_scale=engine.SCALE_UNIT)
    model, _ = engine.train(config, shapes.x)
    return hashlib.sha256(model.flat.tobytes()).hexdigest()
