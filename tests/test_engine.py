import dataclasses
import hashlib
import multiprocessing
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from torusvae import datasets as ds
from torusvae import engine as e
from torusvae import geometry as g
from torusvae.autodiff import Tensor, node
from torusvae.errors import ConfigError, FormatError, NumericsError
from helpers import (REFUSED_CHECKPOINTS, assert_same_bits, finite_diff_grads, grad_probe,
                     max_relative_error, oracle_posterior, shapes_train_sha256,
                     write_checkpoint)


# A Euclidean L=10 checkpoint kept in the repository, trained at an earlier commit.
COMMITTED_CHECKPOINT = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                        / "evaluate_euclidean.tdvae")


def tiny_model(mode="torus", dim=2, input_dim=5, hidden=(8,), seed=3):
    return e.build_vae(e.LatentSpec(mode, dim), input_dim, hidden, np.random.default_rng(seed))


def decode_angles(model, theta):
    """The decoder on the embedding of one row of angles, as traverse renders a frame."""
    return model.decode(g.embed_angles(np.asarray(theta, dtype=float)[None, :]))[0]


def layer_views(model):
    """(data, grad) of each weight and bias of a model, in flat order."""
    return [pair for net in (model.encoder, model.decoder)
            for w, b, wg, bg in zip(net.weights, net.biases, net.weight_grads, net.bias_grads)
            for pair in ((w, wg), (b, bg))]


def posterior_params(model, x):
    """(mu, logvar) of the encoder output on rows x, as the training step splits it."""
    return model._split(model.encoder.forward(Tensor(x)).data)


def stand_in(data, grad=None):
    """A parameter Tensor over data whose .grad is grad (zeros if not given)."""
    p = Tensor(data)
    p.grad = np.zeros_like(p.data) if grad is None else np.asarray(grad, dtype=float)
    return p


class TestEncodeDecode:
    def test_zero_final_layer_gives_standard_prior(self, rng):
        model = tiny_model()
        model.encoder.weights[-1][...] = 0.0
        model.encoder.biases[-1][...] = 0.0
        x = rng.standard_normal((4, 5))
        mu, logvar = posterior_params(model, x)
        assert np.all(model.encode(x) == 0.0) and np.all(mu == 0.0)
        assert np.all(logvar == 0.0)

    def test_encode_deterministic(self, rng):
        model = tiny_model()
        x = rng.standard_normal((3, 5))
        assert np.array_equal(model.encode(x), model.encode(x))

    def test_encoder_layout_torus(self, rng):
        # per circle: [mu0, mu1, logvar0, logvar1]
        model = tiny_model(dim=2)
        x = rng.standard_normal((1, 5))
        raw = model.encoder.forward(Tensor(x)).data[0]
        mu, logvar = posterior_params(model, x)
        assert np.array_equal(model.encode(x), mu)
        assert np.array_equal(mu[0, 0], raw[0:2])
        assert np.array_equal(logvar[0, 0], raw[2:4])
        assert np.array_equal(mu[0, 1], raw[4:6])

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
        return node(out.data[index], out, lambda grad: grad * seed)

    def test_encoder_input_jacobian(self, rng):
        # continuity of the output in one input pixel, against finite differences
        model = tiny_model()
        x = rng.standard_normal((1, 5))

        xt, grads = grad_probe(x)
        self.pick(model.encoder.forward(xt), (0, 3)).backward()
        (analytic,) = grads

        def value():
            return float(model.encoder.forward(Tensor(x)).data[0, 3])

        numeric = finite_diff_grads(value, [x])[0]
        assert max_relative_error(analytic, numeric, floor=1e-6) < 1e-4

    def test_decoder_input_jacobian(self, rng):
        model = tiny_model(dim=2, input_dim=6)
        v = rng.standard_normal((1, 2**2 + 2))

        vt, grads = grad_probe(v)
        self.pick(model.decoder.forward(vt), (0, 2)).backward()
        (analytic,) = grads

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
        mu, logvar = posterior_params(model, x)
        # closed form per row: 0.5 * sum(sigma^2 + mu^2 - 1 - ln sigma^2)
        per_row = 0.5 * np.sum(np.exp(logvar) + mu**2 - 1.0 - logvar, axis=(1, 2))
        assert res.kl == pytest.approx(np.mean(per_row), rel=1e-12)

    @pytest.mark.parametrize("mode,dim", [("torus", 2), ("euclidean", 3)])
    def test_gradients_match_finite_differences(self, mode, dim, rng):
        model = tiny_model(mode=mode, dim=dim)
        latent = model.latent
        x = rng.uniform(-0.8, 0.8, size=(3, 5))
        noise = rng.standard_normal(e._noise_shape(latent, 3))
        e.elbo_loss(model, x, 0.7, noise)
        analytic_grads = [p.grad.copy() for p in model.parameters()]
        arrays = [p.data for p in model.parameters()]

        worst = 0.0
        for analytic, arr in zip(analytic_grads, arrays):
            numeric = finite_diff_grads(
                lambda: e.elbo_loss(model, x, 0.7, noise).loss, [arr]
            )[0]
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_degenerate_circle_sample(self, rng):
        model = tiny_model()
        model.encoder.weights[-1][...] = 0.0
        model.encoder.biases[-1][...] = 0.0
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
            decode_angles(model, [0.5, 1.0])
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

    @pytest.mark.parametrize("n", [1, 7, 144])
    @pytest.mark.parametrize("mode,dim", [("torus", 1), ("torus", 2), ("torus", 4), ("torus", 8),
                                          ("euclidean", 1), ("euclidean", 3)])
    def test_posterior_keeps_the_strided_oracles_bits(self, mode, dim, n, rng):
        """The posterior's decoder input, KL and VJP equal oracle_posterior's
        bit for bit, on fresh buffers and on buffers sized for more rows and
        left dirty by a call on other rows. Whole rows of -0.0 and of 0.0 in
        the incoming gradient, with beta 0, check the sign of the zeros that
        a zero-filled gradient used to give."""
        latent = e.LatentSpec(mode, dim)
        model = e.build_vae(latent, 3, (4,), np.random.default_rng(0))

        def inputs(rows):
            out = rng.standard_normal((rows, latent.encoder_out_dim))
            out[rng.random(out.shape) < 0.1] = 0.0
            grad = rng.standard_normal((rows, latent.decoder_in_dim))
            grad[rng.random(grad.shape) < 0.2] = -0.0
            grad[rng.random(rows) < 0.3] = -0.0
            grad[rng.random(rows) < 0.2] = 0.0
            return out, rng.standard_normal(e._noise_shape(latent, rows)), grad

        shared = g.RowBuffers(n + 5)
        out, noise, grad = inputs(n + 5)
        model._posterior(Tensor(out), noise, 0.7, shared)[0].vjp(grad)
        out, noise, grad = inputs(n)
        for beta in (0.0, 0.7):
            expected_v, expected_kl, expected_vjp = oracle_posterior(out, mode, noise, beta)
            for buffers in (None, shared):
                v, kl = model._posterior(Tensor(out), noise, beta, buffers)
                assert_same_bits(v.data, expected_v)
                assert np.float64(kl).tobytes() == np.float64(expected_kl).tobytes()
                assert_same_bits(v.vjp(grad.copy()), expected_vjp(grad.copy()))

    def test_one_call_runs_the_traced_hooks(self, rng, monkeypatch):
        """One elbo_loss call is one Tensor.backward, one forward per network
        and 5 Tensors; one encode call is one forward and 2 Tensors.

        perfbench's traced mode wraps autodiff.Tensor.backward and
        DenseNetwork.forward (named per network by VaeModel.__init__) to time
        a training step's layers, and counts Tensor.__init__ per step, so a
        change that drops one of these hooks or puts more nodes on the
        chain fails here, not in a benchmark run.
        """
        from torusvae import autodiff

        calls = []
        backward, forward = autodiff.Tensor.backward, e.DenseNetwork.forward
        init = autodiff.Tensor.__init__

        def counted_backward(tensor):
            calls.append("backward")
            return backward(tensor)

        def counted_forward(net, x):
            calls.append(net)
            return forward(net, x)

        def counted_init(tensor, *args, **kwargs):
            calls.append("tensor")
            init(tensor, *args, **kwargs)

        model = tiny_model()
        monkeypatch.setattr(autodiff.Tensor, "backward", counted_backward)
        monkeypatch.setattr(e.DenseNetwork, "forward", counted_forward)
        monkeypatch.setattr(autodiff.Tensor, "__init__", counted_init)
        x = rng.uniform(-0.5, 0.5, size=(6, 5))
        e.elbo_loss(model, x, 1.0, rng.standard_normal((6, 2, 2)))
        assert [c for c in calls if c != "tensor"] == [model.encoder, model.decoder, "backward"]
        assert calls.count("tensor") == 5
        calls.clear()
        model.encode(x)
        assert calls == ["tensor", model.encoder, "tensor"]

    def test_three_training_steps_are_pinned(self):
        """Three elbo_loss + adam_step steps give the same parameter bytes for
        a seed, so a change to the order of any VJP's terms fails here."""
        expected = {
            "torus": "df3b4df98decfa9f12e9d19cf7193fdc324d113dda1528e821ed98e44e9ee92f",
            "euclidean": "94b24e199ad18053590c37d9b5a4999d7130b2fd76e2cae257fdba17ecc5465e",
        }
        for mode, dim in (("torus", 2), ("euclidean", 3)):
            model = e.build_vae(e.LatentSpec(mode, dim), 5, (8, 6), np.random.default_rng(11))
            rng = np.random.default_rng(12)
            params = model.parameters()
            state = e.AdamState.for_params(params)
            for _ in range(3):
                x = rng.uniform(-0.8, 0.8, size=(7, 5))
                noise = rng.standard_normal(e._noise_shape(model.latent, 7))
                e.elbo_loss(model, x, 0.5, noise)
                e.adam_step(params, state, 1e-2)
            assert hashlib.sha256(model.flat.tobytes()).hexdigest() == expected[mode]

    def test_three_float32_training_steps_are_pinned(self):
        """The float32 twin of the test above, as train steps: a float32 model
        over float32 batches and noise, rounded from the same float64 draws."""
        expected = {
            "torus": "97e81c2ad1813f476fc872a8730a146e2d59c2df68e5b39581a97b45943dd518",
            "euclidean": "398251ea9aa66a26b32f29eaf7e72707ca0fece2488fc40e64fa43b61cfdff85",
        }
        for mode, dim in (("torus", 2), ("euclidean", 3)):
            model = e.build_vae(e.LatentSpec(mode, dim), 5, (8, 6), np.random.default_rng(11),
                                dtype=np.float32)
            rng = np.random.default_rng(12)
            params = model.parameters()
            state = e.AdamState.for_params(params)
            for _ in range(3):
                x = rng.uniform(-0.8, 0.8, size=(7, 5)).astype(np.float32)
                noise = rng.standard_normal(e._noise_shape(model.latent, 7)).astype(np.float32)
                e.elbo_loss(model, x, 0.5, noise)
                e.adam_step(params, state, 1e-2)
            assert model.flat.dtype == np.float32
            assert hashlib.sha256(model.flat.tobytes()).hexdigest() == expected[mode]

    def test_latent_arrays_are_reused_across_steps(self, rng):
        """At D=8, batch 144, a step's latent product lives in the run's buffers.

        On shared buffers, the posterior node's forward and VJP, and
        embed_parts with embed_vjp alone, never hold more new memory at once
        than one (144, 2**8) float64 array, 288 KiB, on any step after the
        first, a full batch after a short one included; made afresh, their
        arrays are about 1.7 MB a step. What they still allocate are the
        (144, 8, 2) arrays of the posterior's sample, 18 KiB each, and the
        64 KiB buffer numpy's iterator takes for a broadcasting multiply.
        """
        import tracemalloc

        d = 8
        model = e.build_vae(e.LatentSpec("torus", d), 5, (8,), np.random.default_rng(0))
        buffers = g.RowBuffers(144)

        def peak_rise(step, n):
            out = Tensor(rng.standard_normal((n, 4 * d)) * 0.5)
            noise = rng.standard_normal((n, d, 2))
            grad = rng.standard_normal((n, 2**d + d))
            m = g.unit_tuples(out.data.reshape(n, d, 4)[:, :, :2])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            step(m, out, noise, grad)
            return tracemalloc.get_traced_memory()[1] - base

        def embed_step(m, out, noise, grad):
            g.embed_vjp(*g.embed_parts(m, buffers)[1:], grad, buffers)

        def posterior_step(m, out, noise, grad):
            model._posterior(out, noise, 1.0, buffers)[0].vjp(grad)

        tracemalloc.start()
        try:
            rises = [peak_rise(step, n) for step in (embed_step, posterior_step)
                     for n in (144, 144, 80, 144)]
        finally:
            tracemalloc.stop()
        assert max(rises[1:]) < 144 * 2**d * 8, rises


class TestAdam:
    def test_zero_gradient_keeps_params(self, rng):
        params = [stand_in(rng.standard_normal((3, 3)))]
        before = params[0].data.copy()
        state = e.AdamState.for_params(params)
        e.adam_step(params, state, lr=0.1)
        assert np.array_equal(params[0].data, before)

    def test_first_step_is_signed_lr(self, rng):
        data = rng.standard_normal(5)
        before = data.copy()
        grad = rng.standard_normal(5)
        params = [stand_in(data, grad)]
        state = e.AdamState.for_params(params)
        e.adam_step(params, state, lr=0.01)
        delta = params[0].data - before
        assert np.allclose(delta, -0.01 * np.sign(grad), atol=1e-6)

    def test_deterministic(self, rng):
        grads = [rng.standard_normal((4, 2)) for _ in range(5)]

        def run():
            p = [stand_in(np.ones((4, 2)))]
            s = e.AdamState.for_params(p)
            for grad in grads:
                p[0].grad[...] = grad
                e.adam_step(p, s, lr=0.05)
            return p[0].data

        assert np.array_equal(run(), run())

    def test_non_finite_guard(self, monkeypatch):
        # a NaN in the last element is found before the first block changes
        monkeypatch.setattr(e, "ADAM_BLOCK", 2)
        params = [stand_in(np.ones(5), [1.0, 2.0, 3.0, 4.0, np.nan])]
        state = e.AdamState.for_params(params)
        with pytest.raises(e.NumericsError):
            e.adam_step(params, state, lr=0.1)
        assert np.array_equal(params[0].data, np.ones(5)) and state.step == 0

    def test_flat_state_matches_per_array_formula_bit_for_bit(self, rng):
        """Adam over the model's one flat parameter updates each weight and
        bias as the textbook update of that array alone would."""
        model = tiny_model(hidden=(8, 6))
        self._matches_per_array_formula(model.parameters(), layer_views(model), rng)

    def test_blocks_of_one_parameter_match_bit_for_bit(self, rng, monkeypatch):
        """A 17-element parameter in blocks of 4 elements, the last one short:
        every block, its moments and its scratch take their own slice."""
        monkeypatch.setattr(e, "ADAM_BLOCK", 4)
        params = [stand_in(rng.standard_normal(17))]
        self._matches_per_array_formula(params, [(p.data, p.grad) for p in params], rng)

    @pytest.mark.parametrize("block", [4, 17, 1 << 14])
    def test_float32_blocks_match_bit_for_bit(self, block, rng, monkeypatch):
        """Over a float32 parameter, as train steps it, each block is the
        textbook update computed in float32, for short, whole and single blocks."""
        monkeypatch.setattr(e, "ADAM_BLOCK", block)
        params = [stand_in(rng.standard_normal(17).astype(np.float32))]
        params[0].grad = np.zeros(17, np.float32)
        self._matches_per_array_formula(params, [(p.data, p.grad) for p in params], rng)
        state = e.AdamState.for_params(params)
        assert all(a.dtype == np.float32 for a in (state.m, state.v, state.update, state.scratch))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_gradient_after_a_step_changes_nothing(self, dtype, bad, rng):
        """A non-finite value in the last block of a later step's gradient
        raises NumericsError with the parameter, moments and step as they were."""
        size = 4 * e.ADAM_BLOCK + 5
        params = [stand_in(rng.standard_normal(size).astype(dtype))]
        params[0].grad = rng.standard_normal(size).astype(dtype)
        state = e.AdamState.for_params(params)
        e.adam_step(params, state, 1e-3)
        before = [a.tobytes() for a in (params[0].data, state.m, state.v)]
        params[0].grad[-1] = bad
        with pytest.raises(NumericsError, match="non-finite gradient"):
            e.adam_step(params, state, 1e-3)
        assert [a.tobytes() for a in (params[0].data, state.m, state.v)] == before
        assert state.step == 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_float32_gradient_whose_square_overflows_changes_nothing(self, sign, rng):
        """A finite float32 gradient of 2e19, over sqrt(float32 max) = 1.84e19,
        would make the second moment inf and freeze its weights at update 0:
        it raises NumericsError naming its size, with nothing changed."""
        size = 4 * e.ADAM_BLOCK + 5
        params = [stand_in(rng.standard_normal(size).astype(np.float32))]
        params[0].grad = rng.standard_normal(size).astype(np.float32)
        state = e.AdamState.for_params(params)
        e.adam_step(params, state, 1e-3)
        before = [a.tobytes() for a in (params[0].data, state.m, state.v)]
        params[0].grad[-1] = sign * 2e19
        with pytest.raises(NumericsError, match=r"gradient of magnitude 2e\+19: its square "
                                                r"overflows float32"):
            e.adam_step(params, state, 1e-3)
        assert [a.tobytes() for a in (params[0].data, state.m, state.v)] == before
        assert state.step == 1

    def test_float32_gradient_under_the_bound_steps_without_a_warning(self, rng):
        """1.8e19 is under the bound: a first step of it keeps every moment
        finite (pytest turns an overflow RuntimeWarning into an error)."""
        params = [stand_in(rng.standard_normal(5).astype(np.float32))]
        params[0].grad = np.full(5, 1.8e19, np.float32)
        state = e.AdamState.for_params(params)
        e.adam_step(params, state, 1e-3)
        assert all(np.isfinite(a).all() for a in (params[0].data, state.m, state.v))

    @staticmethod
    def _matches_per_array_formula(params, arrays, rng):
        """Twenty adam_steps against the textbook per-array update, byte for byte.

        arrays holds (data, grad) views that tile the parameters in order.
        """
        oracle = [data.copy() for data, _ in arrays]
        m = [np.zeros_like(a) for a in oracle]
        v = [np.zeros_like(a) for a in oracle]
        state = e.AdamState.for_params(params)
        b1, b2, eps, lr = e.ADAM_BETA1, e.ADAM_BETA2, e.ADAM_EPS, 3e-3
        for t in range(1, 21):
            for p in params:
                p.grad[...] = rng.standard_normal(p.grad.shape) * rng.uniform(1e-3, 1e3)
            e.adam_step(params, state, lr)
            for i, (_, grad) in enumerate(arrays):
                m[i] = b1 * m[i] + (1.0 - b1) * grad
                v[i] = b2 * v[i] + (1.0 - b2) * grad * grad
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                oracle[i] = oracle[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for (data, _), expected in zip(arrays, oracle):
                assert data.tobytes() == expected.tobytes()
        assert state.step == 20


class TestFlatParameters:
    def test_parameters_are_views_of_the_flat_vectors(self):
        model = tiny_model(hidden=(8, 6))
        (param,) = model.parameters()
        assert param.data is model.flat and param.grad is model.flat_grad
        model.flat[:] = np.arange(model.flat.size, dtype=float)
        model.flat_grad[:] = -model.flat
        offset = 0
        for data, grad in layer_views(model):
            size = data.size
            assert np.array_equal(data.ravel(), np.arange(offset, offset + size))
            assert np.array_equal(grad.ravel(), -np.arange(offset, offset + size))
            offset += size
        assert offset == model.flat.size

    def test_loaded_parameters_are_views_of_the_payload(self, tmp_path):
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(tiny_model(hidden=(8, 6)), path)
        model = e.load_checkpoint(path)
        assert model.parameters()[0].data is model.flat
        for data, grad in layer_views(model):
            assert np.shares_memory(data, model.flat)
            assert grad is None  # a loaded model only infers: it has no gradient vector
        assert model.flat_grad is None and model.parameters()[0].grad is None
        assert model.flat.flags.writeable

    def test_initial_weights_are_pinned(self):
        """build_vae draws the same numbers in the same order for a seed and architecture."""
        model = e.build_vae(e.LatentSpec("torus", 3), 7, (8, 5), np.random.default_rng(20240817))
        assert model.flat.size == 352
        assert hashlib.sha256(model.flat.tobytes()).hexdigest() == (
            "c28b6d69d72caa6f254cff522264935e699f3831e708146fb72428e96be11b04")
        assert not model.encoder.biases[0].any()

    def test_snapshot_is_a_copy(self, rng):
        model = tiny_model()
        saved = model.snapshot()
        before = saved.copy()
        model.flat += rng.standard_normal(model.flat.size)
        assert np.array_equal(saved, before) and not np.array_equal(model.flat, saved)


class TestTrain:
    def test_empty_dataset_rejected(self):
        cfg = e.TrainConfig("torus", 2, 1.0, 1e-3, 4, 2, seed=1, hidden=(8,))
        with pytest.raises(ConfigError):
            e.train(cfg, np.zeros((0, 5)))

    def test_validation_mse_halves(self, rng):
        from torusvae import datasets as ds

        data = ds.make_synthetic_dataset(2, 600, seed=17)
        cfg = e.TrainConfig("torus", 3, 0.0, 2e-3, 32, 25, seed=4, hidden=(32,))
        _, report = e.train(cfg, data.x)
        best = report.val_mse[report.best_epoch]
        assert best <= 0.5 * report.val_mse[0]

    def test_validation_mse_halves_on_shape_images(self):
        from torusvae import datasets as ds

        data = ds.shapes_source(2000, seed=51, width=16, height=16).render()
        cfg = e.TrainConfig("torus", 4, 0.0, 2e-3, 144, 12, seed=4,
                            hidden=(64, 32), input_scale=e.SCALE_UNIT)
        _, report = e.train(cfg, data.x)
        best = report.val_mse[report.best_epoch]
        assert best <= 0.5 * report.val_mse[0]

    @pytest.mark.parametrize("kind", ["2dshapes", "synthetic"])
    def test_float32_view_and_float64_samples_train_alike(self, tmp_path, kind):
        """Training on a loaded dataset's float32 view gives the bytes and the
        report of training on its float64 samples, for both input scales."""
        from torusvae import datasets as ds

        if kind == "2dshapes":
            data, scale = ds.shapes_source(300, seed=8).render(), e.SCALE_UNIT
        else:
            data, scale = ds.make_synthetic_dataset(3, 300, seed=8), e.SCALE_SYMMETRIC
        ds.save_dataset(data, tmp_path / "data.tdds")
        loaded = ds.load_dataset(tmp_path / "data.tdds")
        assert loaded.x.dtype == np.float32
        cfg = e.TrainConfig("torus", 2, 1.0, 2e-3, 32, 3, seed=6, hidden=(16,),
                            input_scale=scale)
        model_a, report_a = e.train(cfg, loaded.x)
        model_b, report_b = e.train(cfg, loaded.x.astype(np.float64))
        assert model_a.flat.tobytes() == model_b.flat.tobytes()
        assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)

    def test_seed_reproducibility(self):
        from torusvae import datasets as ds

        data = ds.make_synthetic_dataset(2, 200, seed=23)
        cfg = e.TrainConfig("torus", 2, 1.0, 1e-3, 32, 3, seed=9, hidden=(16,))
        model_a, report_a = e.train(cfg, data.x)
        model_b, report_b = e.train(cfg, data.x)
        assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_adam_step_gets_the_whole_flat_vector(self, monkeypatch):
        """Every adam_step call of train gets a list of parameters whose data
        sizes sum to the model's flat vector.

        perfbench's traced mode sizes each adam_step span as the summed
        .data.size of its first argument, so a change to that argument
        fails here, not in a benchmark run.
        """
        from torusvae import datasets as ds

        calls = []
        adam_step = e.adam_step

        def recording(*args, **kwargs):
            calls.append(args[0])
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(e, "adam_step", recording)
        data = ds.make_synthetic_dataset(2, 100, seed=3)
        cfg = e.TrainConfig("torus", 2, 1.0, 1e-3, 32, 1, seed=1, hidden=(8,))
        model, _ = e.train(cfg, data.x)
        assert len(calls) == 3  # 80 training rows in batches of 32
        for params in calls:
            assert isinstance(params, list)
            assert sum(p.data.size for p in params) == model.flat.size

    def test_short_last_batch_train_is_pinned(self, monkeypatch):
        """A D=8 train of 10 rows in batches of 4 (the last one short) keeps
        its bytes, and builds the latent products once per step plus once
        per validation pass, whose 10 rows outnumber a batch."""
        calls = []
        products = g._products

        def counted(*args):
            calls.append(args[0].shape[2])
            return products(*args)

        monkeypatch.setattr(g, "_products", counted)
        x = np.random.default_rng(5).uniform(-0.9, 0.9, size=(10, 5))
        cfg = e.TrainConfig("torus", 8, 1.0, 1e-2, 4, 2, seed=13, hidden=(8,), val_fraction=0.0)
        model, _ = e.train(cfg, x)
        assert (hashlib.sha256(model.flat.tobytes()).hexdigest()
                == "763240a8485588bff586f33f73ccbaa1c439c2c793ae03726e6f33239c62b87c")
        assert calls == [4, 4, 2, 10] * 2

    def test_a_step_computes_the_tuple_norms_once(self, monkeypatch):
        """The posterior's VJP reads the norms its forward computed, so a train
        computes tuple norms once per step plus once per validation pass."""
        calls = []
        norms = g.tuple_norms

        def counted(raw):
            calls.append(raw.shape[0])
            return norms(raw)

        monkeypatch.setattr(g, "tuple_norms", counted)
        monkeypatch.setattr(e, "tuple_norms", counted)
        x = np.random.default_rng(5).uniform(-0.9, 0.9, size=(10, 5))
        e.train(e.TrainConfig("torus", 3, 1.0, 1e-2, 4, 2, seed=13, hidden=(8,),
                              val_fraction=0.0), x)
        assert calls == [4, 4, 2, 10] * 2

    def test_batch_size_above_the_row_count(self):
        """A batch holds at most the training rows, and so do the run's buffers."""
        x = np.random.default_rng(5).uniform(-0.9, 0.9, size=(10, 5))
        huge = e.TrainConfig("torus", 8, 1.0, 1e-2, 2**40, 2, seed=13, hidden=(8,),
                             val_fraction=0.0)
        whole = dataclasses.replace(huge, batch_size=10)
        assert e.train(huge, x)[0].flat.tobytes() == e.train(whole, x)[0].flat.tobytes()

    def test_numerics_error_names_epoch_and_step(self):
        x = np.random.default_rng(2).uniform(-0.5, 0.5, size=(40, 5))
        cfg = e.TrainConfig("torus", 2, 1.0, 1e-3, 4, 2, seed=3, hidden=(8,))
        # the first epoch's row order, from the same split and shuffle stream as train
        train_rows, _ = e.split_rows(cfg.seed, 40, cfg.val_fraction)
        shuffle_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[2])
        x[train_rows[shuffle_rng.permutation(train_rows.size)][2 * 4 + 1]] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
                NumericsError, match=r"^epoch 0, step 2: non-finite loss"):
            e.train(cfg, x)

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
        _, report = e.train(cfg, data.x)
        assert report.best_epoch == int(np.argmin(report.val_mse))

    def test_one_blas_thread_spawn_worker_trains_the_same_bits(self, monkeypatch):
        """A train in a spawned worker with one BLAS thread gives the parameter
        bytes of the same train in this process with its default BLAS threads,
        so the acceptance trains may run in such workers without moving a bit."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            in_worker = pool.apply_async(shapes_train_sha256, (1,)).get(timeout=120)
        assert in_worker == shapes_train_sha256(1)


class TestTrainPrecision:
    """train steps in e.TRAIN_DTYPE (float32) and hands back a float64 model."""

    @pytest.mark.parametrize("mode,dim", [("torus", 3), ("euclidean", 3)])
    def test_a_float32_step_stays_float32(self, mode, dim, monkeypatch):
        """Every array of a float32 model's step is float32: the parameters,
        their gradient, Adam's moments, the run's buffers, and the data and
        VJP result of each tape node but the loss, whose scalar is the
        reported term and is summed in float64."""
        nodes, vjps = [], []
        make_node = e.node

        def recording(data, parent, vjp):
            def traced(grad):
                out = vjp(grad)
                vjps.append(None if out is None else out.dtype)
                return out

            out = make_node(data, parent, traced)
            nodes.append(out.data)
            return out

        monkeypatch.setattr(e, "node", recording)
        model = e.build_vae(e.LatentSpec(mode, dim), 6, (8, 5), np.random.default_rng(2),
                            dtype=np.float32)
        buffers = g.RowBuffers(9, np.float32)
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, size=(9, 6)).astype(np.float32)
        noise = rng.standard_normal(e._noise_shape(model.latent, 9)).astype(np.float32)
        result = e.elbo_loss(model, x, 1.0, noise, buffers)
        params = model.parameters()
        state = e.AdamState.for_params(params)
        e.adam_step(params, state, 1e-3)
        *rows, loss = nodes
        assert len(rows) == 3 and all(a.dtype == np.float32 for a in rows)
        assert loss.dtype == np.float64 and float(loss) == result.reconstruction
        # the loss, decoder and posterior VJPs; the encoder's, over the batch, returns None
        assert vjps == [np.float32] * 3 + [None]
        arrays = [model.flat, model.flat_grad, state.m, state.v, state.update, state.scratch,
                  *buffers._arrays.values()]
        assert all(a.dtype == np.float32 for a in arrays)
        assert len(buffers._arrays) == (5 if mode == "torus" else 0)

    @pytest.mark.parametrize("hidden", [(), (8,), (128, 64)], ids=["none", "8", "128-64"])
    @pytest.mark.parametrize("mode", ["torus", "euclidean"])
    def test_float32_weights_are_the_rounded_float64_draws(self, mode, hidden):
        """build_vae draws the same float64 weights whatever its dtype and
        rounds them once; a new float32 model's gradient is float32 zeros."""
        latent = e.LatentSpec(mode, 3)
        double = e.build_vae(latent, 7, hidden, np.random.default_rng(5))
        single = e.build_vae(latent, 7, hidden, np.random.default_rng(5), dtype=np.float32)
        assert single.flat.dtype == np.float32
        assert single.flat.tobytes() == double.flat.astype(np.float32).tobytes()
        assert single.flat_grad.dtype == np.float32 and not single.flat_grad.any()

    @pytest.mark.parametrize("mode", ["torus", "euclidean"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_and_join_keep_the_dtype(self, dtype, mode, rng):
        """_split copies (mu, logvar) out of encoder rows in their own dtype
        (a circle's pairs as complex64 for float32), and _join puts them back
        bit for bit; float32 rows split to the rounding of their float64 split."""
        model = e.VaeModel(e.LatentSpec(mode, 3), 5, (8,), dtype=dtype)
        out = rng.standard_normal((6, model.latent.encoder_out_dim)).astype(dtype)
        mu, logvar = model._split(out)
        assert mu.dtype == logvar.dtype == dtype
        assert model._join(mu, logvar).tobytes() == out.tobytes()
        wide = model._split(out.astype(np.float64))
        assert mu.tobytes() == wide[0].astype(dtype).tobytes()
        assert logvar.tobytes() == wide[1].astype(dtype).tobytes()

    @pytest.mark.parametrize("scale", [e.SCALE_SYMMETRIC, e.SCALE_UNIT])
    def test_scale_in_rounds_once(self, scale, rng):
        """scale_in to float32 maps in float64 and rounds once, so a float32
        array and its float64 copy scale to the same float32 bits."""
        x = rng.uniform(0.0, 1.0, size=(9, 4)).astype(np.float32)
        single = e.scale_in(x, scale, np.float32)
        assert single.dtype == np.float32
        assert single.tobytes() == e.scale_in(x.astype(np.float64), scale, np.float32).tobytes()
        assert single.tobytes() == e.scale_in(x, scale).astype(np.float32).tobytes()

    def test_train_starts_no_thread(self, monkeypatch):
        """The step runs on the caller's thread alone: a train in which
        starting a thread fails still trains."""
        def refuse(self):
            raise AssertionError(f"train started thread {self.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        data = ds.shapes_source(300, seed=8, width=16, height=16).render()
        cfg = e.TrainConfig("torus", 4, 1.0, 1e-3, 144, 2, seed=3, hidden=(128, 64),
                            input_scale=e.SCALE_UNIT)
        model, report = e.train(cfg, data.x)
        assert model.flat.dtype == np.float64 and len(report.val_mse) == 2

    @pytest.mark.parametrize("case", ["readme-2dshapes", "synthetic-d8"])
    def test_float32_tracks_the_float64_train(self, case, monkeypatch):
        """Per-epoch validation MSE of a float32 train is within 1e-2 relative
        of the same train in float64, on the README model and on a D=8 model."""
        if case == "readme-2dshapes":
            data = ds.shapes_source(720, seed=404, width=16, height=16).render()
            cfg = e.TrainConfig("torus", 4, 1.0, 1e-3, 144, 4, seed=7, hidden=(128, 64),
                                input_scale=e.SCALE_UNIT)
        else:
            data = ds.make_synthetic_dataset(5, 1000, seed=505)
            cfg = e.TrainConfig("torus", 8, 1.0, 1e-3, 144, 12, seed=7, hidden=(128,))
        single = e.train(cfg, data.x)[1].val_mse
        monkeypatch.setattr(e, "TRAIN_DTYPE", np.float64)
        double = e.train(cfg, data.x)[1].val_mse
        assert single != double  # the two dtypes did run
        np.testing.assert_allclose(single, double, rtol=1e-2)

    def test_train_returns_the_float64_upcast(self, tmp_path):
        """train's model is float64, infers only, and holds float32 values; its
        checkpoint loads back to the same flat bytes and the same codes."""
        data = ds.shapes_source(300, seed=8).render()
        cfg = e.TrainConfig("torus", 3, 1.0, 2e-3, 32, 2, seed=6, hidden=(16,),
                            input_scale=e.SCALE_UNIT)
        model, _ = e.train(cfg, data.x)
        assert model.flat.dtype == np.float64 and model.flat_grad is None
        assert model.flat.astype(np.float32).astype(np.float64).tobytes() == model.flat.tobytes()
        e.save_checkpoint(model, tmp_path / "model.tdvae")
        loaded = e.load_checkpoint(tmp_path / "model.tdvae")
        assert loaded.flat.tobytes() == model.flat.tobytes()
        x = e.scale_in(data.x, cfg.input_scale)
        assert loaded.codes(x).tobytes() == model.codes(x).tobytes()


class TestGenerate:
    """Images generated from explicit angles: the decoder on their embedding."""

    def test_periodicity(self, rng):
        model = tiny_model(dim=3, input_dim=6)
        theta = rng.uniform(0, 2 * np.pi, size=3)
        shifted = theta.copy()
        shifted[1] += 2 * np.pi
        assert np.abs(decode_angles(model, theta) - decode_angles(model, shifted)).max() < 1e-9

    def test_traversal_continuity(self, rng):
        model = tiny_model(dim=2, input_dim=6)
        theta = rng.uniform(0, 2 * np.pi, size=2)
        base = decode_angles(model, theta)
        for delta in (1e-2, 1e-4, 1e-6):
            stepped = theta.copy()
            stepped[0] += delta
            gap = np.abs(decode_angles(model, stepped) - base).max()
            assert gap < 50 * delta

    def test_codes_reconstruction_and_generate_share_one_geometry(self, rng):
        model = tiny_model(dim=3, input_dim=6)
        x = rng.uniform(-0.5, 0.5, size=(40, 6))
        via_codes = model.decode(g.embed_angles(model.codes(x)))
        assert np.abs(model.reconstruct_mean(x) - via_codes).max() < 1e-12


class TestCodes:
    def test_torus_codes_are_mean_angles(self, rng):
        model = tiny_model(dim=2)
        x = rng.uniform(-0.5, 0.5, size=(8, 5))
        codes = model.codes(x)
        mu = model.encode(x)
        expected = np.mod(np.arctan2(mu[:, :, 1], mu[:, :, 0]), 2 * np.pi)
        assert np.array_equal(codes, expected)
        assert np.all((codes >= 0) & (codes < 2 * np.pi))

    def test_zero_mean_tuple_names_its_rows(self, rng):
        # codes and the training latent share one zero-tuple check
        model = tiny_model(dim=2)
        model.encoder.weights[-1][:, 4:6] = 0.0
        model.encoder.biases[-1][4:6] = 0.0  # circle 1's mu is zero in every row
        x = rng.uniform(-0.5, 0.5, size=(3, 5))
        with pytest.raises(g.DegenerateInputError, match=r"in rows \[0, 1, 2\]"):
            model.codes(x)
        with pytest.raises(g.DegenerateInputError, match=r"in rows \[0, 1, 2\]"):
            model.reconstruct_mean(x)

    def test_angle_just_below_zero_is_zero(self):
        # arctan2(-1e-17, 1) is -1e-17, and a bare mod by 2 pi rounds it up to 2 pi
        model = tiny_model(dim=1)
        model.encoder.weights[-1][...] = 0.0
        model.encoder.biases[-1][...] = [1.0, -1e-17, 0.0, 0.0]
        codes = model.codes(np.zeros((2, 5)))
        assert np.array_equal(codes, np.zeros((2, 1)))

    def test_euclidean_codes_are_means(self, rng):
        model = tiny_model(mode="euclidean", dim=4)
        x = rng.uniform(-0.5, 0.5, size=(8, 5))
        assert np.array_equal(model.codes(x), model.encode(x))


class TestCheckpoint:
    @pytest.mark.parametrize("hidden", [(), (8,), (8, 4)], ids=["none", "8", "8-4"])
    @pytest.mark.parametrize("mode", ["torus", "euclidean"])
    def test_round_trip(self, tmp_path, rng, mode, hidden):
        model = tiny_model(mode=mode, dim=3, input_dim=7, hidden=hidden)
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        loaded = e.load_checkpoint(path)
        assert loaded.latent.mode == model.latent.mode
        assert loaded.latent.dim == model.latent.dim
        assert loaded.input_scale == model.input_scale
        assert (loaded.input_dim, loaded.hidden) == (7, hidden)
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(pa.data, pb.data)
        x = rng.uniform(-0.5, 0.5, size=(4, 7))
        assert np.array_equal(model.codes(x), loaded.codes(x))

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 4), (300, 2, 7)],
                             ids=["none", "8", "8-4", "300-2-7"])
    @pytest.mark.parametrize("mode,scale", [("torus", e.SCALE_SYMMETRIC),
                                            ("euclidean", e.SCALE_UNIT)])
    def test_header_is_written_once_and_read_back_byte_for_byte(self, tmp_path, mode, scale,
                                                                hidden):
        model = e.build_vae(e.LatentSpec(mode, 3), 7, hidden, np.random.default_rng(5), scale)
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob == e._header(model.latent, scale, 7, hidden) + model.flat.tobytes()
        e.save_checkpoint(e.load_checkpoint(path), tmp_path / "again.tdvae")
        assert (tmp_path / "again.tdvae").read_bytes() == blob

    def test_committed_checkpoint_resaves_to_its_bytes(self, tmp_path):
        blob = COMMITTED_CHECKPOINT.read_bytes()
        model = e.load_checkpoint(COMMITTED_CHECKPOINT)
        assert blob.startswith(e._header(model.latent, model.input_scale, model.input_dim,
                                         model.hidden))
        e.save_checkpoint(model, tmp_path / "again.tdvae")
        assert (tmp_path / "again.tdvae").read_bytes() == blob

    def test_header_layout_is_pinned(self):
        """Tags are the indices of (torus, euclidean), (symmetric, unit) and
        (identity, relu, tanh); every field is little-endian."""
        def table(*rows):
            return struct.pack("<B", len(rows)) + b"".join(struct.pack("<IIB", *r) for r in rows)

        torus = e._header(e.LatentSpec(e.TORUS, 2), e.SCALE_SYMMETRIC, 5, (8,))
        assert torus == (e.CHECKPOINT_MAGIC + struct.pack("<BBII", 0, 0, 2, 5)
                         + table((5, 8, 1), (8, 8, 0)) + table((6, 8, 1), (8, 5, 2)))
        euclidean = e._header(e.LatentSpec(e.EUCLIDEAN, 3), e.SCALE_UNIT, 5, ())
        assert euclidean == (e.CHECKPOINT_MAGIC + struct.pack("<BBII", 1, 1, 3, 5)
                             + table((5, 6, 0)) + table((3, 5, 2)))

    @pytest.mark.parametrize("mode,limit", [(e.TORUS, 31), (e.EUCLIDEAN, 2**31 - 1)])
    def test_latent_bound_is_the_widest_header(self, mode, limit):
        """The largest latent dim of a mode has a header (no width overflows a
        u32); one more is refused before 2^dim is computed."""
        assert e.MAX_LATENT_DIM[mode] == limit
        e._header(e.LatentSpec(mode, limit), e.SCALE_SYMMETRIC, 5, (4,))
        for dim in (limit + 1, 10**18):
            with pytest.raises(ConfigError, match=rf"^latent_dim .* latent dim {dim} does not "
                                                  r"fit the decoder$"):
                e.LatentSpec(mode, dim)

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

    def test_committed_checkpoint_loads_in_about_its_file_size(self):
        """A loaded model only infers: the file's buffer, whose float64 payload
        becomes flat aligned and uncopied, is all the memory a load holds. A
        gradient vector would add another 1.0x, and a finite check of an
        unaligned payload numpy's 64 KiB iterator buffer (2.12x before both)."""
        import tracemalloc

        e.load_checkpoint(COMMITTED_CHECKPOINT)  # first-call imports and caches stay out
        tracemalloc.start()
        try:
            model = e.load_checkpoint(COMMITTED_CHECKPOINT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.flat_grad is None and model.flat.flags.aligned
        assert peak <= 1.15 * COMMITTED_CHECKPOINT.stat().st_size

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
        """The header is compared with the one its fixed fields and hidden widths
        make before the payload is sized."""
        import tracemalloc

        # one 2^20 x 2^20 encoder layer and a 6 x 4 decoder layer, no payload
        blob = (e.CHECKPOINT_MAGIC + struct.pack("<BBII", 0, 0, 1, 2**20)
                + struct.pack("<BIIB", 1, 2**20, 2**20, 0)
                + struct.pack("<BIIB", 1, 6, 4, 2))
        path = tmp_path / "huge.tdvae"
        path.write_bytes(blob)
        assert len(blob) < 100
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="is not the model architecture"):
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
        # second encoder layer: fan_in 8 -> 7, with the payload cut to match
        at = len(e.CHECKPOINT_MAGIC) + struct.calcsize("<BBII") + 1 + 9
        blob[at : at + 4] = struct.pack("<I", 7)
        path.write_bytes(bytes(blob[: len(blob) - 8 * 4]))
        with pytest.raises(FormatError, match="is not the model architecture"):
            e.load_checkpoint(path)

    def test_zero_width_layer(self, tmp_path):
        # a 5 -> 0 -> 8 encoder whose payload matches its declared sizes
        blob = (e.CHECKPOINT_MAGIC + struct.pack("<BBII", 0, 0, 2, 5)
                + struct.pack("<BIIBIIB", 2, 5, 0, 1, 0, 8, 0)
                + struct.pack("<BIIB", 1, 6, 5, 2) + b"\x00" * 8 * (8 + 35))
        path = tmp_path / "zero.tdvae"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="is not the model architecture"):
            e.load_checkpoint(path)

    @pytest.mark.parametrize("latent_dim", [0, 3, 32, 2**32 - 1])
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
        with pytest.raises(FormatError, match="is not the model architecture"):
            e.load_checkpoint(path)

    @pytest.mark.parametrize("name", list(REFUSED_CHECKPOINTS))
    def test_refused_layer_table(self, tmp_path, name):
        """A table with a payload sized to it that is not the one architecture,
        or whose torus latent dim no decoder can hold."""
        message, args = REFUSED_CHECKPOINTS[name]
        path = tmp_path / "model.tdvae"
        write_checkpoint(path, *args)
        with pytest.raises(FormatError, match=message):
            e.load_checkpoint(path)

    def test_non_finite_payload(self, tmp_path):
        model = tiny_model()
        model.flat[:] = np.nan
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        with pytest.raises(FormatError, match="non-finite parameter"):
            e.load_checkpoint(path)
        model.flat[:] = 0.0
        model.flat[-1] = -np.inf
        e.save_checkpoint(model, path)
        with pytest.raises(FormatError, match="non-finite parameter"):
            e.load_checkpoint(path)

    def test_network_without_layers(self, tmp_path):
        """An empty table is one more table that is not the model architecture."""
        path = tmp_path / "empty.tdvae"
        path.write_bytes(e.CHECKPOINT_MAGIC + struct.pack("<BBII", 0, 0, 1, 5) + b"\x00\x00")
        with pytest.raises(FormatError, match="is not the model architecture"):
            e.load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.tdvae"
        e.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            e.load_checkpoint(path)
