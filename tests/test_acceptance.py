"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy criteria (8 and 9) train real models; the whole module stays inside
the stated runtime budgets on a desktop CPU.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

from torusvae import cli, datasets as ds, engine, geometry as g, metrics as m
from helpers import (ALL_COMMANDS, ALL_COMMANDS_CONFIG, circular_error, finite_diff_grads,
                     hash_tree, kkt_lasso_oracle, lasso_objective, max_relative_error,
                     null_threshold, sample_circles)


@pytest.fixture
def criterion(capfd):
    """Context manager that prints one uncaptured verdict line per criterion."""

    def announce(line):
        with capfd.disabled():
            print(line, flush=True)

    @contextmanager
    def run(number, title):
        try:
            yield announce
        except BaseException:
            announce(f"ACCEPTANCE {number:02d} [FAIL] {title}")
            raise
        announce(f"ACCEPTANCE {number:02d} [PASS] {title}")

    return run


def test_criterion_1_dc_score_matches_reported_values(criterion):
    with criterion(1, "DC-score consistency with reported value pairs"):
        assert m.dc_score(0.36, 0.43) == pytest.approx(0.39, abs=0.005)
        assert m.dc_score(0.69, 0.61) == pytest.approx(0.65, abs=0.005)


def test_criterion_2_embedding_round_trip(criterion):
    with criterion(2, "embedding round-trip < 1e-9 over 1e4 draws per D in 1..8"):
        start = time.monotonic()
        rng = np.random.default_rng(12345)
        worst = 0.0
        for d in range(1, 9):
            thetas = rng.uniform(0.0, 2.0 * np.pi, size=(10_000, d))
            # pin one coordinate per row to an axis in a quarter of the rows
            n_axis = 2_500
            rows = rng.choice(10_000, size=n_axis, replace=False)
            cols = rng.integers(0, d, size=n_axis)
            thetas[rows, cols] = rng.choice(
                [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], size=n_axis
            )
            recovered = g.recover_angles_batch(g.embed_angles(thetas), d)
            worst = max(worst, float(circular_error(recovered, thetas).max()))
        elapsed = time.monotonic() - start
        assert worst < 1e-9, f"max circular error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_circle_sampling_uniformity(criterion):
    with criterion(3, "KS statistic < 0.02 for angles of prior samples, N=1e5"):
        rng = np.random.default_rng(777)
        noise = rng.standard_normal(size=(100_000, 2))
        points = sample_circles(np.zeros(2), np.zeros(2), noise)
        angles = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * np.pi)
        stat = scipy.stats.kstest(angles / (2.0 * np.pi), "uniform").statistic
        assert stat < 0.02, f"KS statistic {stat:.4f}"


@pytest.mark.parametrize("mode,dim", [("torus", 2), ("euclidean", 2)])
def test_criterion_4_gradient_correctness(mode, dim, criterion):
    label = "circle latent" if mode == "torus" else "euclidean baseline"
    with criterion(4, f"gradients match finite differences < 1e-4 ({label})"):
        start = time.monotonic()
        latent = engine.LatentSpec(mode, dim)
        model = engine.build_vae(latent, 5, [8], np.random.default_rng(3))
        x = np.random.default_rng(11).uniform(-0.8, 0.8, size=(3, 5))
        noise = np.random.default_rng(13).standard_normal(engine._noise_shape(latent, 3))
        engine.elbo_loss(model, x, 0.7, noise)
        analytic_grads = [p.grad.copy() for p in model.parameters()]

        worst = 0.0
        for analytic, param in zip(analytic_grads, model.parameters()):
            numeric = finite_diff_grads(
                lambda: engine.elbo_loss(model, x, 0.7, noise).loss, [param.data]
            )[0]
            worst = max(worst, max_relative_error(analytic, numeric))
        elapsed = time.monotonic() - start
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_lasso_oracle_equivalence(criterion):
    with criterion(5, "coordinate descent matches KKT enumeration on 25 instances"):
        rng = np.random.default_rng(4242)
        for _ in range(25):
            X, _ = m.standardize_columns(rng.standard_normal((20, 5)))
            y = rng.standard_normal(20)
            y = (y - y.mean()) / y.std()
            w = m.lasso_fit(X, y, 0.1)
            obj = lasso_objective(X, y, w, 0.1)
            oracle_obj, _ = kkt_lasso_oracle(X, y, 0.1)
            assert abs(obj - oracle_obj) < 1e-6

            threshold = null_threshold(X, y)
            assert np.array_equal(m.lasso_fit(X, y, threshold), np.zeros(5))
            assert np.array_equal(m.lasso_fit(X, y, 1.3 * threshold), np.zeros(5))


def test_criterion_6_metric_formula_unit_suite(criterion):
    with criterion(6, "metric formulas: hand values plus 100-trial invariances"):
        assert m.disentanglement(np.eye(2)).score == pytest.approx(1.0, abs=1e-12)
        assert m.completeness(np.eye(2)).score == pytest.approx(1.0, abs=1e-12)
        assert m.disentanglement(np.ones((2, 2))).score == pytest.approx(0.0, abs=1e-12)
        assert m.disentanglement(np.array([[1.0, 0.0]])).score == pytest.approx(0.5, abs=1e-12)
        hand = 1.0 + (1.0 + 2 * 0.5 * np.log(0.5) / np.log(3))
        assert m.completeness(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])).score == (
            pytest.approx(hand / 2, abs=1e-6)
        )
        assert hand / 2 == pytest.approx(0.6845, abs=1e-3)

        rng = np.random.default_rng(99)
        for _ in range(100):
            R = rng.uniform(0.0, 1.0, size=(rng.integers(1, 7), rng.integers(1, 7)))
            scale = float(rng.uniform(0.05, 20.0))
            perm = rng.permutation(R.shape[0])
            assert m.disentanglement(scale * R).score == pytest.approx(
                m.disentanglement(R).score, abs=1e-9
            )
            assert m.completeness(scale * R).score == pytest.approx(
                m.completeness(R).score, abs=1e-9
            )
            assert m.disentanglement(R[perm]).score == pytest.approx(
                m.disentanglement(R).score, abs=1e-12
            )
            assert m.completeness(R[perm]).score == pytest.approx(
                m.completeness(R).score, abs=1e-12
            )
            d_score = m.disentanglement(R).score
            c_score = m.completeness(R).score
            assert 0.0 <= d_score <= 1.0 and 0.0 <= c_score <= 1.0
            assert 0.0 <= m.dc_score(d_score, c_score) <= 1.0


def test_criterion_7_identity_pipeline_sanity(criterion):
    with criterion(7, "codes := standardized factors gives D,C > 0.95 and I < 0.01"):
        rng = np.random.default_rng(31337)
        factors = np.column_stack([
            rng.uniform(0, 2 * np.pi, size=2000),
            rng.uniform(20, 40, size=2000),
            rng.standard_normal(2000),
            rng.uniform(-1, 1, size=2000),
        ])
        codes, _ = m.standardize_columns(factors)
        report = m.run_dci(codes, factors, split_seed=99).report
        assert report.disentanglement > 0.95, f"D = {report.disentanglement}"
        assert report.completeness > 0.95, f"C = {report.completeness}"
        assert report.informativeness < 0.01, f"I = {report.informativeness}"


def _train_and_score(mode, dim, seed, dataset, epochs, hidden, input_scale):
    """DC score of a model trained as `train` does, with the helper thread
    when this process has the cores for it, and scored as `evaluate` does."""
    config = engine.TrainConfig(
        mode=mode, latent_dim=dim, beta=1.0, learning_rate=1e-3, batch_size=144,
        epochs=epochs, seed=seed, hidden=hidden, input_scale=input_scale,
    )
    model, _ = engine.train(config, dataset.x, cli._helper_allowed(1))
    settings = cli.MetricsSettings(99, m.DEFAULT_ALPHA_GRID, 10, 0.2, "encoder")
    return cli._validation_dci(model, dataset, config, settings).report.dc_score


def test_criterion_8_torus_beats_euclidean_baseline(criterion):
    with criterion(8, "circle latent beats Euclidean baseline on median DC, both datasets") as announce:
        start = time.monotonic()
        seeds = (1, 2, 3)

        synthetic = ds.make_synthetic_dataset(3, 4000, seed=303)
        torus_dc = [
            _train_and_score("torus", 4, s, synthetic, 100, (64, 32), engine.SCALE_SYMMETRIC)
            for s in seeds
        ]
        eucl_dc = [
            _train_and_score("euclidean", 10, s, synthetic, 100, (64, 32), engine.SCALE_SYMMETRIC)
            for s in seeds
        ]
        announce(f"  synthetic medians: torus {np.median(torus_dc):.3f} vs "
                 f"euclidean {np.median(eucl_dc):.3f}")
        assert np.median(torus_dc) > np.median(eucl_dc)

        shapes = ds.shapes_source(4000, seed=404, width=16, height=16).render()
        torus_dc = [
            _train_and_score("torus", 4, s, shapes, 80, (128, 64), engine.SCALE_UNIT)
            for s in seeds
        ]
        eucl_dc = [
            _train_and_score("euclidean", 10, s, shapes, 80, (128, 64), engine.SCALE_UNIT)
            for s in seeds
        ]
        announce(f"  2dshapes medians: torus {np.median(torus_dc):.3f} vs "
                 f"euclidean {np.median(eucl_dc):.3f}")
        assert np.median(torus_dc) > np.median(eucl_dc)

        elapsed = time.monotonic() - start
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"


def test_criterion_9_ablation_shape(tmp_path, criterion):
    with criterion(9, "sweep: beta=0 is cheapest per D; D=4 reconstructs worst per beta"):
        start = time.monotonic()
        out = tmp_path / "sweep_out"
        config = {
            "out_dir": str(out),
            "dataset": {"kind": "synthetic", "count": 4000, "seed": 505,
                        "factors": 5, "path": "k5.tdds"},
            "model": {"mode": "torus", "latent_dim": 4, "beta": 1.0,
                      "learning_rate": 1e-3, "batch_size": 144, "epochs": 80,
                      "seed": 11, "hidden": [128]},
            "metrics": {"split_seed": 99},
            "sweep": {"betas": [0.0, 1.0, 9.0], "dims": [4, 6], "csv": "sweep.csv"},
        }
        config_path = tmp_path / "sweep_config.json"
        config_path.write_text(json.dumps(config))
        assert cli.main(["generate", "--config", str(config_path)]) == 0
        assert cli.main(["sweep", "--config", str(config_path)]) == 0

        import csv as csv_mod

        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))
        header, cells = rows[0], rows[1:]
        assert len(cells) == 3 * 2
        mse = {}
        for row in cells:
            record = dict(zip(header, row))
            assert record["status"] == "ok"
            mse[(float(record["beta"]), int(record["latent_dim"]))] = float(record["mse"])

        for dim in (4, 6):
            for beta in (1.0, 9.0):
                assert mse[(0.0, dim)] < mse[(beta, dim)], (
                    f"beta=0 not cheapest at D={dim}: {mse[(0.0, dim)]:.4f} "
                    f"vs beta={beta}: {mse[(beta, dim)]:.4f}"
                )
        for beta in (0.0, 1.0, 9.0):
            assert mse[(beta, 4)] > mse[(beta, 6)], (
                f"D=4 not worst at beta={beta}: {mse[(beta, 4)]:.4f} "
                f"vs D=6: {mse[(beta, 6)]:.4f}"
            )
        elapsed = time.monotonic() - start
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"


def test_criterion_10_byte_determinism(tmp_path, criterion):
    with criterion(10, "all commands rerun to byte-identical outputs"):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(ALL_COMMANDS_CONFIG))
        trees = []
        for out_name in ("run_a", "run_b"):
            out = tmp_path / out_name
            for command in ALL_COMMANDS:
                code = cli.main([command, "--config", str(config_path), "--out", str(out)])
                assert code == 0, f"{command} failed in {out_name}"
            # rerun everything in place: outputs must be overwritten identically
            for command in ALL_COMMANDS:
                assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 0
            trees.append(hash_tree(out))
        assert trees[0] == trees[1]
        assert len(trees[0]) >= 10
