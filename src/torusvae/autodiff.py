"""A coarse reverse-mode tape over numpy arrays.

A Tensor wraps an ndarray, remembers the tensors it was computed from and a
vector-Jacobian product (VJP) that maps the output gradient to one gradient
per parent. backward() runs the VJPs in reverse topological order. The tape
knows only the dense-layer ops (+, matmul, relu, tanh); every other step of
the model is one node() whose VJP is written by hand. A VJP captures its
parents' arrays, never its own output node, so graphs hold no reference
cycles and are freed as soon as the last reference goes. Accumulation order
is fixed by graph construction order, so gradients are bit-reproducible.

Constants (a leaf made with requires_grad=False, such as the data batch)
never receive a gradient, and neither does a node computed from constants
only. A tensor's .grad is None until its first gradient contribution arrives.
A node's .grad is read only by its own VJP, so once that has run the array
passes to the first parent it is returned for without a copy; only leaf
gradients are meaningful after backward().
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

    def _accumulate(self, grad: np.ndarray, owned: bool) -> None:
        """Add one gradient contribution.

        The first contribution becomes .grad itself when the caller hands it
        over (a freshly computed array, or a node's spent gradient passed to
        its first parent); any other array is copied first, so no two
        tensors share one gradient.
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
            if node._backward is None or node.grad is None:
                continue
            handed = False
            for parent, grad in zip(node._parents, node._backward(node.grad)):
                if grad is not None and parent.requires_grad:
                    spent = grad is node.grad
                    parent._accumulate(grad, owned=not (spent and handed))
                    handed = handed or spent

    # -- the dense-layer ops ----------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        def backward(grad):
            return tuple(_unbroadcast(grad, t.data.shape) if t.requires_grad else None
                         for t in (self, other))

        return node(self.data + other.data, (self, other), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        def backward(grad):
            return (grad @ other.data.T if self.requires_grad else None,
                    self.data.T @ grad if other.requires_grad else None)

        return node(self.data @ other.data, (self, other), backward)

    def relu(self) -> "Tensor":
        return node(np.maximum(self.data, 0.0), (self,),
                    lambda grad: (grad * (self.data > 0.0),))

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        return node(y, (self,), lambda grad: (grad * (1.0 - y * y),))


def node(data, parents, backward) -> Tensor:
    """A tape node holding data, computed from the parents Tensors.

    backward(grad) is the node's VJP: given the gradient of data it returns
    one gradient per parent, in order, or None for a parent that needs none.
    A returned array may be grad itself; the tape hands it to the first
    parent it is returned for and copies it for any other.
    """
    out = Tensor(data, tuple(parents))
    out._backward = backward
    return out
