import numpy as np
import pytest

from torusvae import engine, geometry
from torusvae.autodiff import Tensor, node
from helpers import finite_diff_grads, grad_probe, max_relative_error


def sum_of_squares(t):
    """Scalar node sum(t * t), the readout that seeds each chain's cotangent."""
    return node((t.data * t.data).sum(), t, lambda grad: 2.0 * grad * t.data)


def check_vjp(f, vjp, x, rng, tol=1e-6):
    """vjp(x, w) against finite differences of <w, f(x)> for a random cotangent w."""
    w = rng.standard_normal(f(x).shape)
    analytic = vjp(x, w)
    numeric = finite_diff_grads(lambda: float(np.sum(w * f(x))), [x])[0]
    assert max_relative_error(analytic, numeric) < tol


# -- the chain and the dense node ----------------------------------------------------


def check_dense_node(specs, x_data, rng, tol=1e-6):
    """The dense node's input and parameter gradients against finite differences.

    Returns the network, its input node, the input's gradient and its output
    node after backward from sum(out * out), for exact checks on top.
    """
    size = engine.param_count(specs)
    flat, flat_grad = rng.uniform(-1.0, 1.0, size), np.zeros(size)
    net = engine.DenseNetwork(specs, flat, flat_grad)
    x, grads = grad_probe(x_data)
    out = net.forward(x)
    assert out.parent is x
    sum_of_squares(out).backward()
    (x_grad,) = grads
    analytic = [x_grad, flat_grad.copy()]

    def value():
        return float(np.sum(net.forward(Tensor(x.data)).data ** 2))

    numeric = finite_diff_grads(value, [x.data, flat])
    for a, n in zip(analytic, numeric):
        assert max_relative_error(a, n) < tol
    return net, x, x_grad, out


def test_dense_node_matches_finite_differences(rng):
    # one node for a relu, a tanh and an identity layer: its VJP fills every
    # weight and bias gradient view and returns the input's gradient
    specs = [(4, 5, "relu"), (5, 3, "tanh"), (3, 2, "identity")]
    check_dense_node(specs, rng.uniform(-1.0, 1.0, size=(6, 4)), rng)


def test_add_broadcast(rng):
    # the bias is added to every row of the batch, so its gradient is the
    # output cotangent summed over the rows
    net, _, _, out = check_dense_node([(4, 3, "identity")], rng.standard_normal((5, 4)), rng)
    assert np.allclose(net.bias_grads[0], (2.0 * out.data).sum(axis=0))


def test_matmul(rng):
    # the layer's x @ w: the weight gradient is x.T @ g and the input's g @ w.T
    net, x, x_grad, out = check_dense_node([(4, 3, "identity")], rng.standard_normal((5, 4)),
                                           rng)
    g = 2.0 * out.data
    assert np.allclose(net.weight_grads[0], x.data.T @ g)
    assert np.allclose(x_grad, g @ net.weights[0].T)


def test_tanh_relu(rng):
    for act in ("tanh", "relu"):
        check_dense_node([(4, 4, act)], rng.uniform(-1.2, 1.2, size=(4, 4)) + 0.05, rng)


def test_backward_requires_scalar(rng):
    with pytest.raises(ValueError):
        Tensor(rng.standard_normal(3)).backward()


def test_constant_leaf_gets_no_gradient(rng):
    # over a leaf, such as the batch, the dense node still fills its
    # parameter gradients but computes no input gradient, and backward
    # stores a gradient on no tensor
    specs = [(3, 2, "relu")]
    size = engine.param_count(specs)
    net = engine.DenseNetwork(specs, rng.standard_normal(size), np.zeros(size))
    c = Tensor(rng.standard_normal((4, 3)))
    out = net.forward(c)
    assert out.vjp(2.0 * out.data) is None
    expected = c.data.T @ (2.0 * out.data * (out.data > 0.0))
    assert np.array_equal(net.weight_grads[0], expected)
    net.weight_grads[0][...] = 0.0
    sum_of_squares(out).backward()
    assert np.array_equal(net.weight_grads[0], expected)
    assert c.grad is None and out.grad is None


def test_node_of_constants_only_gets_no_gradient(rng):
    # backward runs a leaf's node's VJP once and stores what it returns
    # nowhere, on the node or the leaf; a VJP returning None ends the walk
    # before the nodes below
    c = Tensor(rng.standard_normal(3))
    seen = []
    custom = node(c.data * 2.0, c, lambda grad: seen.append(grad) or grad * 2.0)
    sum_of_squares(custom).backward()
    assert len(seen) == 1 and np.array_equal(seen[0], 2.0 * custom.data)
    assert custom.grad is None and c.grad is None

    below = []
    inner = node(c.data + 1.0, c, lambda grad: below.append(grad) or grad)
    outer = node(inner.data * 3.0, inner, lambda grad: None)
    sum_of_squares(outer).backward()
    assert below == []
    assert outer.grad is None and inner.grad is None and c.grad is None


# -- the hand-written VJPs ------------------------------------------------------------


def test_normalization_chain(rng):
    # the per-circle normalization pattern used by the engine
    raw = rng.uniform(0.3, 1.5, size=(4, 3, 2))
    check_vjp(geometry.unit_tuples,
              lambda raw, w: geometry.unit_tuples_vjp(raw, geometry.tuple_norms(raw), w), raw, rng)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_embed_vjp(d, rng):
    # the product block and the cosine block both read m: per-circle slices
    # feed the partial products, and one column of every circle the cosines
    m = rng.standard_normal((3, d, 2))
    check_vjp(geometry.embed, lambda m, w: geometry.embed_vjp(*geometry.embed_parts(m)[1:], w),
              m, rng)


def posterior_value(model, out, noise, beta, w):
    """<w, decoder input> + beta * KL of encoder output rows out."""
    v, kl = model._posterior(Tensor(out), noise, beta)
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
            probe, grads = grad_probe(out)
            v, _ = model._posterior(probe, noise, beta)
            node(np.sum(w * v.data), v, lambda grad: grad * w).backward()
            numeric = finite_diff_grads(
                lambda: posterior_value(model, out, noise, beta, w), [out])[0]
            assert max_relative_error(grads[0], numeric) < 1e-6


def test_reconstruction_loss_node(rng):
    x = rng.standard_normal((4, 5))
    recon = rng.standard_normal((4, 5))
    probe, grads = grad_probe(recon)
    engine._reconstruction_loss(probe, x).backward()
    numeric = finite_diff_grads(
        lambda: float(engine._reconstruction_loss(Tensor(recon), x).data), [recon])[0]
    assert max_relative_error(grads[0], numeric) < 1e-6
