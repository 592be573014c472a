import numpy as np
import pytest

from torusvae.autodiff import Tensor, concat
from conftest import finite_diff_grads, max_relative_error


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


def test_add_broadcast(rng):
    arrays = [rng.standard_normal((4, 3)), rng.standard_normal(3)]
    check_scalar_graph(lambda t: (t[0] + t[1]).square().sum(), arrays)


def test_mul_broadcast_3d(rng):
    arrays = [rng.standard_normal((2, 4, 1)), rng.standard_normal((2, 1, 3))]
    check_scalar_graph(lambda t: (t[0] * t[1]).sum(), arrays)


def test_matmul(rng):
    arrays = [rng.standard_normal((5, 4)), rng.standard_normal((4, 3))]
    check_scalar_graph(lambda t: t[0].matmul(t[1]).square().sum(), arrays)


def test_div_and_sqrt(rng):
    arrays = [rng.uniform(0.5, 2.0, size=(3, 3)), rng.uniform(0.5, 2.0, size=(3, 3))]
    check_scalar_graph(lambda t: (t[0] / t[1].sqrt()).sum(), arrays)


def test_exp_tanh_relu(rng):
    arrays = [rng.uniform(-1.2, 1.2, size=(4, 4)) + 0.05]
    check_scalar_graph(lambda t: (t[0].exp().tanh() + t[0].relu()).sum(), arrays)


def test_sum_axis_keepdims(rng):
    arrays = [rng.standard_normal((3, 5))]
    check_scalar_graph(
        lambda t: (t[0].sum(axis=1, keepdims=True) * t[0]).sum(), arrays
    )


def test_getitem_and_reshape(rng):
    arrays = [rng.standard_normal((4, 6))]
    check_scalar_graph(
        lambda t: (t[0][:, 1:4].reshape(2, 6) * 2.0).square().sum(), arrays
    )


def test_concat(rng):
    arrays = [rng.standard_normal((3, 2)), rng.standard_normal((3, 4))]
    check_scalar_graph(lambda t: concat(t, axis=1).square().sum(), arrays)


def test_normalization_chain(rng):
    # the per-circle normalization pattern used by the engine
    arrays = [rng.uniform(0.3, 1.5, size=(4, 3, 2))]

    def build(t):
        norm = t[0].square().sum(axis=2, keepdims=True).sqrt()
        return (t[0] / norm).sum()

    check_scalar_graph(build, arrays)


def test_value_reuse_accumulates(rng):
    x = Tensor(rng.standard_normal(4))
    y = (x * x + x).sum()
    y.backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


def test_backward_requires_scalar(rng):
    with pytest.raises(ValueError):
        Tensor(rng.standard_normal(3)).backward()


def test_constant_leaf_gets_no_gradient(rng):
    x = Tensor(rng.standard_normal(4))
    c = Tensor(rng.standard_normal(4), requires_grad=False)
    loss = ((x * c + c) * 2.0 - c).sum()
    loss.backward()
    assert c.grad is None
    assert np.array_equal(x.grad, 2.0 * c.data)


def test_node_of_constants_only_gets_no_gradient(rng):
    x = Tensor(rng.standard_normal(3))
    c = Tensor(rng.standard_normal(3), requires_grad=False)
    folded = -c
    assert not folded.requires_grad
    (x - c).sum().backward()
    assert folded.grad is None and c.grad is None
    assert np.array_equal(x.grad, np.ones(3))


def test_diamond_self_add(rng):
    arrays = [rng.standard_normal((3, 4))]
    check_scalar_graph(lambda t: (t[0] + t[0]).square().sum(), arrays)


def test_diamond_sum_times_operand(rng):
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]
    check_scalar_graph(lambda t: ((t[0] + t[1]) * t[0]).sum(), arrays)


def test_diamond_slice_and_whole(rng):
    arrays = [rng.standard_normal((4, 5))]
    check_scalar_graph(
        lambda t: (t[0][:, 1:3].square().sum() + (t[0] * t[0][:, 2:3]).sum()), arrays
    )


def test_shared_first_gradient_is_not_aliased(rng):
    # a and b both take their first gradient from one add node; a then
    # receives more, which must not leak into b
    arrays = [rng.standard_normal(4), rng.standard_normal(4)]
    check_scalar_graph(lambda t: ((t[0] * 3.0) + (t[0] + t[1]).tanh()).square().sum(), arrays)
    check_scalar_graph(lambda t: ((t[0] + t[1]) + t[0].reshape(2, 2).reshape(4)).square().sum(),
                       arrays)
