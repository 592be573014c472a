import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from torusvae import engine as e
from torusvae import geometry as g
from torusvae.autodiff import Tensor, node
from torusvae.errors import ConfigError, FormatError
from helpers import finite_diff_grads, max_relative_error


def tiny_model(mode="torus", dim=2, input_dim=5, hidden=(8,), seed=3):
    return e.build_vae(e.LatentSpec(mode, dim), input_dim, hidden, np.random.default_rng(seed))


class TestEncodeDecode:
    def test_zero_final_layer_gives_standard_prior(self, rng):
        model = tiny_model()
        model.encoder.weights[-1].data[...] = 0.0
        model.encoder.biases[-1].data[...] = 0.0
        out = model.encode(rng.standard_normal((4, 5)))
        assert np.all(out.mu == 0.0)
        assert np.all(out.logvar == 0.0)

    def test_encode_deterministic(self, rng):
        model = tiny_model()
        x = rng.standard_normal((3, 5))
        a, b = model.encode(x), model.encode(x)
        assert np.array_equal(a.mu, b.mu) and np.array_equal(a.logvar, b.logvar)

    def test_encoder_layout_torus(self, rng):
        # per circle: [mu0, mu1, logvar0, logvar1]
        model = tiny_model(dim=2)
        x = rng.standard_normal((1, 5))
        raw = model.encoder.forward(Tensor(x)).data[0]
        out = model.encode(x)
        assert np.array_equal(out.mu[0, 0], raw[0:2])
        assert np.array_equal(out.logvar[0, 0], raw[2:4])
        assert np.array_equal(out.mu[0, 1], raw[4:6])

    def test_decode_range_is_tanh_bounded(self, rng):
        model = tiny_model(dim=3, input_dim=7)
        v = rng.standard_normal((50, 2**3 + 3)) * 3
        out = model.decode(v)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_shape_errors(self, rng):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.decode(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            model.encode(rng.standard_normal((2, 9)))

    @staticmethod
    def pick(out, index):
        """Scalar node out[index], seeding the one-hot cotangent."""
        seed = np.zeros_like(out.data)
        seed[index] = 1.0
        return node(out.data[index], (out,), lambda grad: (grad * seed,))

    def test_encoder_input_jacobian(self, rng):
        # continuity of the output in one input pixel, against finite differences
        model = tiny_model()
        x = rng.standard_normal((1, 5))

        xt = Tensor(x)
        self.pick(model.encoder.forward(xt), (0, 3)).backward()
        analytic = xt.grad.copy()

        def value():
            return float(model.encoder.forward(Tensor(x)).data[0, 3])

        numeric = finite_diff_grads(value, [x])[0]
        assert max_relative_error(analytic, numeric, floor=1e-6) < 1e-4

    def test_decoder_input_jacobian(self, rng):
        model = tiny_model(dim=2, input_dim=6)
        v = rng.standard_normal((1, 2**2 + 2))

        vt = Tensor(v)
        self.pick(model.decoder.forward(vt), (0, 2)).backward()
        analytic = vt.grad.copy()

        def value():
            return float(model.decoder.forward(Tensor(v)).data[0, 2])

        numeric = finite_diff_grads(value, [v])[0]
        assert max_relative_error(analytic, numeric, floor=1e-6) < 1e-4


class TestElboLoss:
    def test_beta_zero_is_pure_reconstruction(self, rng):
        model = tiny_model()
        x = rng.uniform(-0.5, 0.5, size=(6, 5))
        noise = rng.standard_normal((6, 2, 2))
        res = e.elbo_loss(model, x, 0.0, noise)
        assert res.loss == res.reconstruction

    def test_loss_decomposition_is_exact(self, rng):
        model = tiny_model()
        x = rng.uniform(-0.5, 0.5, size=(6, 5))
        noise = rng.standard_normal((6, 2, 2))
        base = e.elbo_loss(model, x, 0.0, noise)
        for beta in (0.5, 3.0, 9.0):
            res = e.elbo_loss(model, x, beta, noise)
            assert res.loss == pytest.approx(base.loss + beta * res.kl, abs=1e-12)
            assert res.kl == pytest.approx(base.kl, abs=1e-15)

    def test_kl_matches_geometry_formula(self, rng):
        model = tiny_model()
        x = rng.uniform(-0.5, 0.5, size=(3, 5))
        noise = rng.standard_normal((3, 2, 2))
        res = e.elbo_loss(model, x, 1.0, noise)
        enc = model.encode(x)
        # closed form per row: 0.5 * sum(sigma^2 + mu^2 - 1 - ln sigma^2)
        per_row = 0.5 * np.sum(np.exp(enc.logvar) + enc.mu**2 - 1.0 - enc.logvar, axis=(1, 2))
        assert res.kl == pytest.approx(np.mean(per_row), rel=1e-12)

    @pytest.mark.parametrize("mode,dim", [("torus", 2), ("euclidean", 3)])
    def test_gradients_match_finite_differences(self, mode, dim, rng):
        model = tiny_model(mode=mode, dim=dim)
        latent = model.latent
        x = rng.uniform(-0.8, 0.8, size=(3, 5))
        noise = rng.standard_normal(e._noise_shape(latent, 3))
        res = e.elbo_loss(model, x, 0.7, noise)
        arrays = [p.data for p in model.parameters()]

        worst = 0.0
        for analytic, arr in zip(res.grads, arrays):
            numeric = finite_diff_grads(
                lambda: e.elbo_loss(model, x, 0.7, noise).loss, [arr]
            )[0]
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_degenerate_circle_sample(self, rng):
        model = tiny_model()
        model.encoder.weights[-1].data[...] = 0.0
        model.encoder.biases[-1].data[...] = 0.0
        x = rng.uniform(-0.5, 0.5, size=(2, 5))
        noise = np.zeros((2, 2, 2))  # mu = 0, sigma = 1, eps = 0 -> zero tuple
        with pytest.raises(g.DegenerateInputError):
            e.elbo_loss(model, x, 1.0, noise)

    def test_graphs_are_freed_without_the_cycle_collector(self, rng):
        # a step's graph holds its activations and gradients: left to the cyclic
        # collector, peak memory would depend on when that happens to run
        import gc

        model = tiny_model()
        x = rng.uniform(-0.5, 0.5, size=(6, 5))
        noise = rng.standard_normal((6, 2, 2))
        gc.collect()
        gc.disable()
        try:
            e.elbo_loss(model, x, 1.0, noise)
            model.reconstruct_mean(x)
            e.generate(model, [0.5, 1.0])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_latent_invariants_hold_for_any_encoder_output(self, rng):
        # unit-norm product block no matter what the encoder emits
        model = tiny_model(dim=3, input_dim=4)
        mu = rng.standard_normal((10, 3, 2)) * 5
        logvar = rng.uniform(-3, 3, size=(10, 3, 2))
        noise = rng.standard_normal((10, 3, 2))
        out = Tensor(np.concatenate([mu, logvar], axis=2).reshape(10, 12))
        v = model._posterior(out, noise, 1.0)[0].data
        prod, orient = v[:, : 2**3], v[:, 2**3 :]
        assert np.abs(np.linalg.norm(prod, axis=1) - 1.0).max() < 1e-10
        assert np.all(np.abs(orient) <= 1.0 + 1e-12)

    def test_one_call_runs_the_traced_hooks(self, rng, monkeypatch):
        """One elbo_loss call is one Tensor.backward and one forward per network.

        perfbench's traced mode wraps autodiff.Tensor.backward and
        DenseNetwork.forward (named per network by VaeModel.__init__) to time
        a training step's layers, so a change that drops one of these hooks
        fails here, not in a benchmark run.
        """
        from torusvae import autodiff

        calls = []
        backward, forward = autodiff.Tensor.backward, e.DenseNetwork.forward

        def counted_backward(tensor):
            calls.append("backward")
            return backward(tensor)

        def counted_forward(net, x):
            calls.append(net)
            return forward(net, x)

        monkeypatch.setattr(autodiff.Tensor, "backward", counted_backward)
        monkeypatch.setattr(e.DenseNetwork, "forward", counted_forward)
        model = tiny_model()
        x = rng.uniform(-0.5, 0.5, size=(6, 5))
        e.elbo_loss(model, x, 1.0, rng.standard_normal((6, 2, 2)))
        assert calls == [model.encoder, model.decoder, "backward"]


class TestAdam:
    def test_zero_gradient_keeps_params(self, rng):
        params = [type("P", (), {"data": rng.standard_normal((3, 3))})()]
        before = params[0].data.copy()
        state = e.AdamState.for_params(params)
        e.adam_step(params, np.zeros(9), state, lr=0.1)
        assert np.array_equal(params[0].data, before)

    def test_first_step_is_signed_lr(self, rng):
        params = [type("P", (), {"data": rng.standard_normal(5)})()]
        before = params[0].data.copy()
        grad = rng.standard_normal(5)
        state = e.AdamState.for_params(params)
        e.adam_step(params, grad, state, lr=0.01)
        delta = params[0].data - before
        assert np.allclose(delta, -0.01 * np.sign(grad), atol=1e-6)

    def test_deterministic(self, rng):
        grads = [rng.standard_normal((4, 2)) for _ in range(5)]

        def run():
            p = [type("P", (), {"data": np.ones((4, 2))})()]
            s = e.AdamState.for_params(p)
            for grad in grads:
                e.adam_step(p, grad.ravel(), s, lr=0.05)
            return p[0].data

        assert np.array_equal(run(), run())

    def test_non_finite_guard(self):
        params = [type("P", (), {"data": np.ones(2)})()]
        state = e.AdamState.for_params(params)
        with pytest.raises(e.NumericsError):
            e.adam_step(params, np.array([1.0, np.nan]), state, lr=0.1)

    def test_flat_state_matches_per_array_formula_bit_for_bit(self, rng):
        model = tiny_model(hidden=(8, 6))
        params = model.parameters()
        oracle = [p.data.copy() for p in params]
        m = [np.zeros_like(p) for p in oracle]
        v = [np.zeros_like(p) for p in oracle]
        state = e.AdamState.for_params(params)
        b1, b2, eps, lr = e.ADAM_BETA1, e.ADAM_BETA2, e.ADAM_EPS, 3e-3
        for t in range(1, 21):
            flat_grad = rng.standard_normal(model.flat.size) * rng.uniform(1e-3, 1e3)
            e.adam_step(params, flat_grad, state, lr)
            for i, g in enumerate(e.param_views(flat_grad, params)):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                oracle[i] = oracle[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for p, expected in zip(params, oracle):
                assert p.data.tobytes() == expected.tobytes()
        assert state.step == 20


class TestFlatParameters:
    def test_parameters_are_views_of_the_flat_vectors(self):
        model = tiny_model(hidden=(8, 6))
        params = model.parameters()
        assert model.flat.size == sum(p.data.size for p in params)
        model.flat[:] = np.arange(model.flat.size, dtype=float)
        model.flat_grad[:] = -model.flat
        offset = 0
        for p in params:
            size = p.data.size
            assert np.array_equal(p.data.ravel(), np.arange(offset, offset + size))
            assert np.array_equal(p.grad.ravel(), -np.arange(offset, offset + size))
            offset += size

    def test_loaded_parameters_are_views_of_the_payload(self, tmp_path):
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(tiny_model(hidden=(8, 6)), path)
        model = e.load_checkpoint(path)
        for p in model.parameters():
            assert np.shares_memory(p.data, model.flat)
            assert np.shares_memory(p.grad, model.flat_grad)
        assert model.flat.flags.writeable

    def test_initial_weights_are_pinned(self):
        """build_vae draws the same numbers in the same order for a seed and architecture."""
        model = e.build_vae(e.LatentSpec("torus", 3), 7, (8, 5), np.random.default_rng(20240817))
        assert model.flat.size == 352
        assert hashlib.sha256(model.flat.tobytes()).hexdigest() == (
            "c28b6d69d72caa6f254cff522264935e699f3831e708146fb72428e96be11b04")
        assert not model.encoder.biases[0].data.any()

    def test_snapshot_and_restore(self, rng):
        model = tiny_model()
        saved = model.snapshot()
        before = [p.data.copy() for p in model.parameters()]
        model.flat += rng.standard_normal(model.flat.size)
        model.restore(saved)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_elbo_grads_survive_the_next_call(self, rng):
        model = tiny_model()
        x = rng.uniform(-0.5, 0.5, size=(4, 5))
        first = e.elbo_loss(model, x, 1.0, rng.standard_normal((4, 2, 2)))
        kept = [g.copy() for g in first.grads]
        e.elbo_loss(model, x, 1.0, rng.standard_normal((4, 2, 2)))
        for g, k in zip(first.grads, kept):
            assert np.array_equal(g, k)
        for g, p in zip(first.grads, model.parameters()):
            assert g.shape == p.data.shape


class TestTrain:
    def test_empty_dataset_rejected(self):
        cfg = e.TrainConfig("torus", 2, 1.0, 1e-3, 4, 2, seed=1, hidden=(8,))
        with pytest.raises(ConfigError):
            e.train(cfg, np.zeros((0, 5)))

    def test_validation_mse_halves(self, rng):
        from torusvae import datasets as ds

        data = ds.make_synthetic_dataset(2, 600, seed=17)
        cfg = e.TrainConfig("torus", 3, 0.0, 2e-3, 32, 25, seed=4, hidden=(32,))
        _, report = e.train(cfg, data.samples)
        best = report.val_mse[report.best_epoch]
        assert best <= 0.5 * report.val_mse[0]

    def test_validation_mse_halves_on_shape_images(self):
        from torusvae import datasets as ds

        data = ds.make_2dshapes_dataset(2000, seed=51, width=16, height=16)
        cfg = e.TrainConfig("torus", 4, 0.0, 2e-3, 144, 12, seed=4,
                            hidden=(64, 32), input_scale=e.SCALE_UNIT)
        _, report = e.train(cfg, data.samples)
        best = report.val_mse[report.best_epoch]
        assert best <= 0.5 * report.val_mse[0]

    def test_seed_reproducibility(self):
        from torusvae import datasets as ds

        data = ds.make_synthetic_dataset(2, 200, seed=23)
        cfg = e.TrainConfig("torus", 2, 1.0, 1e-3, 32, 3, seed=9, hidden=(16,))
        model_a, report_a = e.train(cfg, data.samples)
        model_b, report_b = e.train(cfg, data.samples)
        assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_single_point_overfit(self):
        x = np.array([[0.3, -0.2, 0.5, 0.0, -0.4]])
        cfg = e.TrainConfig("torus", 2, 0.0, 5e-3, 1, 500, seed=5,
                            hidden=(16,), val_fraction=0.0)
        _, report = e.train(cfg, x)
        assert report.val_mse[report.best_epoch] < 5e-3

    def test_best_epoch_is_argmin(self):
        from torusvae import datasets as ds

        data = ds.make_synthetic_dataset(2, 300, seed=29)
        cfg = e.TrainConfig("euclidean", 4, 1.0, 1e-3, 32, 6, seed=2, hidden=(16,))
        _, report = e.train(cfg, data.samples)
        assert report.best_epoch == int(np.argmin(report.val_mse))


class TestGenerate:
    def test_periodicity(self, rng):
        model = tiny_model(dim=3, input_dim=6)
        theta = rng.uniform(0, 2 * np.pi, size=3)
        shifted = theta.copy()
        shifted[1] += 2 * np.pi
        assert np.abs(e.generate(model, theta) - e.generate(model, shifted)).max() < 1e-9

    def test_traversal_continuity(self, rng):
        model = tiny_model(dim=2, input_dim=6)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        base = e.generate(model, theta)
        for delta in (1e-2, 1e-4, 1e-6):
            stepped = theta.copy()
            stepped[0] += delta
            gap = np.abs(e.generate(model, stepped) - base).max()
            assert gap < 50 * delta

    def test_matches_manual_decode_of_embed(self, rng):
        model = tiny_model(dim=2, input_dim=6)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        manual = model.decode(g.embed_angles(theta[None]))[0]
        assert np.array_equal(e.generate(model, theta), manual)

    def test_codes_reconstruction_and_generate_share_one_geometry(self, rng):
        model = tiny_model(dim=3, input_dim=6)
        x = rng.uniform(-0.5, 0.5, size=(40, 6))
        via_codes = model.decode(g.embed_angles(model.codes(x)))
        assert np.abs(model.reconstruct_mean(x) - via_codes).max() < 1e-12
        theta = rng.uniform(-10.0, 10.0, size=3)
        manual = model.decode(g.embed_angles(theta[None]))[0]
        assert np.array_equal(e.generate(model, theta), manual)

    def test_needs_torus_mode(self):
        model = tiny_model(mode="euclidean", dim=3)
        with pytest.raises(ConfigError):
            e.generate(model, [0.0, 0.0, 0.0])


class TestCodes:
    def test_torus_codes_are_mean_angles(self, rng):
        model = tiny_model(dim=2)
        x = rng.uniform(-0.5, 0.5, size=(8, 5))
        codes = model.codes(x)
        enc = model.encode(x)
        expected = np.mod(np.arctan2(enc.mu[:, :, 1], enc.mu[:, :, 0]), 2 * np.pi)
        assert np.array_equal(codes, expected)
        assert np.all((codes >= 0) & (codes < 2 * np.pi))

    def test_zero_mean_tuple_names_its_rows(self, rng):
        # codes and the training latent share one zero-tuple check
        model = tiny_model(dim=2)
        model.encoder.weights[-1].data[:, 4:6] = 0.0
        model.encoder.biases[-1].data[4:6] = 0.0  # circle 1's mu is zero in every row
        x = rng.uniform(-0.5, 0.5, size=(3, 5))
        with pytest.raises(g.DegenerateInputError, match=r"in rows \[0, 1, 2\]"):
            model.codes(x)
        with pytest.raises(g.DegenerateInputError, match=r"in rows \[0, 1, 2\]"):
            model.reconstruct_mean(x)

    def test_euclidean_codes_are_means(self, rng):
        model = tiny_model(mode="euclidean", dim=4)
        x = rng.uniform(-0.5, 0.5, size=(8, 5))
        assert np.array_equal(model.codes(x), model.encode(x).mu)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = tiny_model(dim=3, input_dim=7, hidden=(8, 4))
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        loaded = e.load_checkpoint(path)
        assert loaded.latent.mode == model.latent.mode
        assert loaded.latent.dim == model.latent.dim
        assert loaded.input_scale == model.input_scale
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(pa.data, pb.data)
        x = rng.uniform(-0.5, 0.5, size=(4, 7))
        assert np.array_equal(model.codes(x), loaded.codes(x))

    def test_save_is_deterministic(self, tmp_path):
        model = tiny_model()
        e.save_checkpoint(model, tmp_path / "a")
        e.save_checkpoint(model, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_save_writes_the_flat_vector_uncopied(self, tmp_path):
        import tracemalloc

        model = tiny_model(input_dim=300, hidden=(200,))
        path = tmp_path / "model.tdvae"
        tracemalloc.start()
        try:
            e.save_checkpoint(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_bytes().endswith(model.flat.tobytes())
        assert peak < 0.25 * model.flat.nbytes

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(tiny_model(), path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(e.np.random, "default_rng", no_rng)
        e.load_checkpoint(path)

    def test_load_peak_memory(self, tmp_path):
        """The file is read once, and its payload becomes the model's flat vector."""
        import tracemalloc

        path = tmp_path / "model.tdvae"
        e.save_checkpoint(tiny_model(input_dim=300, hidden=(64, 32)), path)
        e.load_checkpoint(path)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            e.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * path.stat().st_size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOTAVAE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            e.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            e.load_checkpoint(path)

    def test_oversized_header_fails_before_allocating(self, tmp_path):
        import tracemalloc

        # one 2^20 x 2^20 encoder layer and a 1 x 4 decoder layer, no payload
        blob = (e.CHECKPOINT_MAGIC + struct.pack("<BBII", 0, 0, 1, 2**20)
                + struct.pack("<BIIB", 1, 2**20, 2**20, 0)
                + struct.pack("<BIIB", 1, 6, 4, 2))
        path = tmp_path / "huge.tdvae"
        path.write_bytes(blob)
        assert len(blob) < 100
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                e.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_layers_that_do_not_chain(self, tmp_path):
        model = tiny_model(hidden=(8, 4))
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # second encoder layer: fan_in 8 -> 7
        at = len(e.CHECKPOINT_MAGIC) + struct.calcsize("<BBII") + 1 + 9
        blob[at : at + 4] = struct.pack("<I", 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="chain"):
            e.load_checkpoint(path)

    def test_zero_width_layer(self, tmp_path):
        # a 5 -> 0 -> 8 encoder whose payload matches its declared sizes
        blob = (e.CHECKPOINT_MAGIC + struct.pack("<BBII", 0, 0, 2, 5)
                + struct.pack("<BIIBIIB", 2, 5, 0, 1, 0, 8, 0)
                + struct.pack("<BIIB", 1, 6, 5, 2) + b"\x00" * 8 * (8 + 35))
        path = tmp_path / "zero.tdvae"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="zero-width"):
            e.load_checkpoint(path)

    @pytest.mark.parametrize("latent_dim", [0, 3, 2**32 - 1])
    def test_latent_dim_that_does_not_fit_the_layers(self, tmp_path, latent_dim):
        model = tiny_model()
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(e.CHECKPOINT_MAGIC) + 2, latent_dim)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            e.load_checkpoint(path)

    def test_decoder_output_must_match_the_input(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # one decoder output unit fewer, with the payload cut to match
        at = len(e.CHECKPOINT_MAGIC) + struct.calcsize("<BBII") + 1 + 2 * 9 + 1 + 9 + 4
        assert struct.unpack_from("<I", blob, at) == (5,)
        struct.pack_into("<I", blob, at, 4)
        path.write_bytes(bytes(blob[: len(blob) - 8 * (8 + 1)]))
        with pytest.raises(FormatError, match="decoder output"):
            e.load_checkpoint(path)

    def test_network_without_layers(self, tmp_path):
        path = tmp_path / "empty.tdvae"
        path.write_bytes(e.CHECKPOINT_MAGIC + struct.pack("<BBII", 0, 0, 1, 5) + b"\x00\x00")
        with pytest.raises(FormatError, match="without layers"):
            e.load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            e.load_checkpoint(path)
