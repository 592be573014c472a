"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray, remembers the tensors it was computed from and a
closure that routes the output gradient back to them. backward() replays the
closures in reverse topological order, passing each its output node: a
closure that captured the node itself would make every node a reference
cycle, so graphs would wait for the cyclic garbage collector and peak memory
would depend on its timing. Only the operations the networks in
this package need are implemented; accumulation order is fixed by graph
construction order, so gradients are bit-reproducible.

Constants (a leaf made with requires_grad=False, such as the data batch, the
sampling noise or a scalar an operation wraps) never receive a gradient, and
neither does a node computed from constants only. A tensor's .grad is None
until its first gradient contribution arrives.
"""
from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _constant(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value, requires_grad=False)


class Tensor:
    """An array on the tape. requires_grad is set for leaves; a node requires
    a gradient when any of its parents does."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), requires_grad=True):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = (
            any(p.requires_grad for p in parents) if parents else requires_grad
        )
        self._parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray, owned: bool = True) -> None:
        """Add one gradient contribution.

        The first contribution becomes .grad itself when the caller owns it
        (a freshly computed array); an array that aliases another tensor's
        gradient, or a broadcast view, is copied first.
        """
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _constant(other)
        out = Tensor(self.data + other.data, (self, other))

        def backward(out):
            for t in (self, other):
                if t.requires_grad:
                    g = _unbroadcast(out.grad, t.data.shape)
                    t._accumulate(g, owned=g is not out.grad)

        out._backward = backward
        return out

    def __mul__(self, other):
        other = _constant(other)
        out = Tensor(self.data * other.data, (self, other))

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = backward
        return out

    def __neg__(self):
        return self * Tensor(-1.0, requires_grad=False)

    def __sub__(self, other):
        return self + (-_constant(other))

    def __truediv__(self, other):
        other = _constant(other)
        out = Tensor(self.data / other.data, (self, other))

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -out.grad * self.data / (other.data * other.data), other.data.shape
                ))

        out._backward = backward
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data @ other.data, (self, other))

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ out.grad)

        out._backward = backward
        return out

    def square(self):
        return self * self

    def sqrt(self):
        out = Tensor(np.sqrt(self.data), (self,))

        def backward(out):
            self._accumulate(out.grad * 0.5 / out.data)

        out._backward = backward
        return out

    def exp(self):
        out = Tensor(np.exp(self.data), (self,))

        def backward(out):
            self._accumulate(out.grad * out.data)

        out._backward = backward
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), (self,))

        def backward(out):
            self._accumulate(out.grad * (self.data > 0.0))

        out._backward = backward
        return out

    def tanh(self):
        out = Tensor(np.tanh(self.data), (self,))

        def backward(out):
            self._accumulate(out.grad * (1.0 - out.data * out.data))

        out._backward = backward
        return out

    # -- shape manipulation --------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape), owned=False)

        out._backward = backward
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))

        def backward(out):
            self._accumulate(out.grad.reshape(self.data.shape), owned=False)

        out._backward = backward
        return out

    def __getitem__(self, key):
        out = Tensor(self.data[key], (self,))

        def backward(out):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += out.grad

        out._backward = backward
        return out


def concat(tensors, axis=1):
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(out.grad[tuple(index)], owned=False)

    out._backward = backward
    return out
