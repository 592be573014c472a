"""A chain-shaped reverse-mode tape over numpy arrays.

A Tensor wraps an ndarray and, when it is a node, remembers the one tensor it
was computed from and a hand-written vector-Jacobian product (VJP) that maps
the gradient of its data to the gradient of its parent's. A training step is
one chain: batch -> encoder -> posterior -> decoder -> reconstruction loss.
backward() walks it from the loss down and sets only the leaf's .grad; a VJP
with side effects (a dense network's writes its weight and bias gradients into
the model's flat gradient vector) does them as it runs. A VJP captures its
parent's arrays, never its own node, so a chain holds no reference cycle and
is freed as soon as the last reference goes.

A leaf made with requires_grad=False, such as the data batch, is a constant:
its .grad stays None, and a VJP may return None for it, which ends the walk.
"""
from __future__ import annotations

import numpy as np


class Tensor:
    """An array on the tape: a leaf (parent None) or a node with a VJP."""

    __slots__ = ("data", "grad", "requires_grad", "parent", "vjp")

    def __init__(self, data, requires_grad=True):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = requires_grad
        self.parent = None
        self.vjp = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        tensor, grad = self, np.ones_like(self.data)
        while tensor.parent is not None and grad is not None:
            grad = tensor.vjp(grad)
            tensor = tensor.parent
        if grad is not None and tensor.requires_grad:
            tensor.grad = grad


def node(data, parent: Tensor, vjp) -> Tensor:
    """A tape node holding data, computed from parent.

    vjp(grad) maps the gradient of data to the gradient of parent.data, or
    to None when parent is a constant and nothing below it needs one.
    """
    out = Tensor(data)
    out.parent = parent
    out.vjp = vjp
    return out
