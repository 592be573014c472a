import numpy as np
import pytest

from torusvae import engine, geometry
from torusvae.autodiff import Tensor, node
from conftest import finite_diff_grads, max_relative_error


def sum_of_squares(t):
    """Scalar node sum(t * t), the readout that seeds each graph's cotangent."""
    return node((t.data * t.data).sum(), (t,), lambda grad: (2.0 * grad * t.data,))


def total(t):
    """Scalar node sum(t)."""
    return node(t.data.sum(), (t,), lambda grad: (grad * np.ones_like(t.data),))


def check_scalar_graph(build, arrays, tol=1e-6):
    """build(tensors) -> scalar Tensor; compare backward grads to finite differences."""
    tensors = [Tensor(a) for a in arrays]
    out = build(tensors)
    out.backward()
    analytic = [t.grad.copy() for t in tensors]

    def value():
        fresh = [Tensor(a) for a in arrays]
        return float(build(fresh).data)

    numeric = finite_diff_grads(value, arrays)
    for a, n in zip(analytic, numeric):
        assert max_relative_error(a, n) < tol


def check_vjp(f, vjp, x, rng, tol=1e-6):
    """vjp(x, w) against finite differences of <w, f(x)> for a random cotangent w."""
    w = rng.standard_normal(f(x).shape)
    analytic = vjp(x, w)
    numeric = finite_diff_grads(lambda: float(np.sum(w * f(x))), [x])[0]
    assert max_relative_error(analytic, numeric) < tol


# -- the tape's own ops --------------------------------------------------------------


def test_add_broadcast(rng):
    arrays = [rng.standard_normal((4, 3)), rng.standard_normal(3)]
    check_scalar_graph(lambda t: sum_of_squares(t[0] + t[1]), arrays)


def test_matmul(rng):
    arrays = [rng.standard_normal((5, 4)), rng.standard_normal((4, 3))]
    check_scalar_graph(lambda t: sum_of_squares(t[0].matmul(t[1])), arrays)


def test_tanh_relu(rng):
    arrays = [rng.uniform(-1.2, 1.2, size=(4, 4)) + 0.05]
    check_scalar_graph(lambda t: total(t[0].tanh() + t[0].relu()), arrays)


def test_value_reuse_accumulates(rng):
    x = Tensor(rng.standard_normal(4))
    total(x.tanh() + x).backward()
    assert np.allclose(x.grad, 2.0 - np.tanh(x.data) ** 2)


def test_backward_requires_scalar(rng):
    with pytest.raises(ValueError):
        Tensor(rng.standard_normal(3)).backward()


def test_constant_leaf_gets_no_gradient(rng):
    x = Tensor(rng.standard_normal((3, 2)))
    c = Tensor(rng.standard_normal((4, 3)), requires_grad=False)
    d = Tensor(rng.standard_normal((4, 2)), requires_grad=False)
    total(c.matmul(x) + d).backward()
    assert c.grad is None and d.grad is None
    assert np.array_equal(x.grad, c.data.T @ np.ones((4, 2)))


def test_node_of_constants_only_gets_no_gradient(rng):
    x = Tensor(rng.standard_normal(3))
    c = Tensor(rng.standard_normal(3), requires_grad=False)
    folded = c + c
    custom = node(c.data * 2.0, (c,), lambda grad: (grad * 2.0,))
    assert not folded.requires_grad and not custom.requires_grad
    total((x + folded) + custom).backward()
    assert folded.grad is None and custom.grad is None and c.grad is None
    assert np.array_equal(x.grad, np.ones(3))


def test_diamond_self_add(rng):
    arrays = [rng.standard_normal((3, 4))]
    check_scalar_graph(lambda t: sum_of_squares(t[0] + t[0]), arrays)


def test_diamond_sum_times_operand(rng):
    arrays = [rng.standard_normal((4, 4)), rng.standard_normal((4, 4))]
    check_scalar_graph(lambda t: sum_of_squares((t[0] + t[1]).matmul(t[0])), arrays)


def test_shared_first_gradient_is_not_aliased(rng):
    # a and b both take their first gradient from one add node; a then
    # receives more, which must not leak into b
    arrays = [rng.standard_normal(4), rng.standard_normal(4)]
    check_scalar_graph(lambda t: sum_of_squares((t[0] + t[1]) + t[0].tanh()), arrays)
    check_scalar_graph(lambda t: sum_of_squares((t[0] + t[1]) + t[0]), arrays)


def test_dense_layer_hands_its_gradient_to_the_matmul(rng, monkeypatch):
    # the add node of h.matmul(w) + b passes its spent gradient on to the
    # matmul node, its first parent, instead of copying it
    adds = []
    plain_add = Tensor.__add__

    def recording_add(self, other):
        adds.append(plain_add(self, other))
        return adds[-1]

    monkeypatch.setattr(Tensor, "__add__", recording_add)
    model = engine.build_vae(engine.LatentSpec("torus", 2), 6, (5, 4), np.random.default_rng(0))
    noise = rng.standard_normal(engine._noise_shape(model.latent, 3))
    engine.elbo_loss(model, rng.uniform(-0.5, 0.5, size=(3, 6)), 1.0, noise)
    assert len(adds) == 6  # three encoder and three decoder layers
    for add in adds:
        assert np.shares_memory(add._parents[0].grad, add.grad)


# -- the hand-written VJPs ------------------------------------------------------------


def test_normalization_chain(rng):
    # the per-circle normalization pattern used by the engine
    raw = rng.uniform(0.3, 1.5, size=(4, 3, 2))
    check_vjp(geometry.unit_tuples, geometry.unit_tuples_vjp, raw, rng)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_embed_vjp(d, rng):
    # the product block and the cosine block both read m: per-circle slices
    # feed the partial products, and one column of every circle the cosines
    m = rng.standard_normal((3, d, 2))
    check_vjp(geometry.embed, geometry.embed_vjp, m, rng)


def posterior_value(model, out, noise, beta, w):
    """<w, decoder input> + beta * KL of encoder output rows out."""
    v, kl = model._posterior(Tensor(out, requires_grad=False), noise, beta)
    return float(np.sum(w * v.data)) + beta * kl


def test_diamond_slice_and_whole(rng):
    # the posterior node reads the encoder output through its mu and logvar
    # slices, and each slice feeds both the sample and the KL
    for mode, dim in (("torus", 1), ("torus", 3), ("euclidean", 2)):
        latent = engine.LatentSpec(mode, dim)
        model = engine.build_vae(latent, 1, (), np.random.default_rng(0))
        out = rng.standard_normal((3, latent.encoder_out_dim))
        noise = rng.standard_normal(engine._noise_shape(latent, 3))
        w = rng.standard_normal((3, latent.decoder_in_dim))
        for beta in (0.0, 0.7):
            leaf = Tensor(out)
            v, _ = model._posterior(leaf, noise, beta)
            node(np.sum(w * v.data), (v,), lambda grad: (grad * w,)).backward()
            numeric = finite_diff_grads(
                lambda: posterior_value(model, out, noise, beta, w), [out])[0]
            assert max_relative_error(leaf.grad, numeric) < 1e-6


def test_reconstruction_loss_node(rng):
    x = rng.standard_normal((4, 5))
    recon = rng.standard_normal((4, 5))
    check_scalar_graph(lambda t: engine._reconstruction_loss(t[0], x), [recon])
