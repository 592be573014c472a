"""A chain-shaped reverse-mode tape over numpy arrays.

A Tensor wraps an ndarray and, when it is a node, remembers the one tensor it
was computed from and a hand-written vector-Jacobian product (VJP) that maps
the gradient of its data to the gradient of its parent's. A training step is
one chain: batch -> encoder -> posterior -> decoder -> reconstruction loss.
backward() walks it from the loss down to the leaf, a constant such as the
data batch, and stores no gradient: a VJP does its work as it runs (a dense
network's writes its weight and bias gradients into the model's flat
gradient vector), and one that returns None ends the walk. A VJP captures
its parent's arrays, never its own node, so a chain holds no reference cycle
and is freed as soon as the last reference goes.
"""
from __future__ import annotations

import numpy as np


class Tensor:
    """An array on the tape: a leaf (parent None) or a node with a VJP. Only a
    model's parameter, never on the tape, has a grad (see engine.VaeModel)."""

    __slots__ = ("data", "grad", "parent", "vjp")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.parent = None
        self.vjp = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        tensor, grad = self, np.ones_like(self.data)
        while tensor.parent is not None and grad is not None:
            grad, tensor = tensor.vjp(grad), tensor.parent


def node(data, parent: Tensor, vjp) -> Tensor:
    """A tape node holding data, computed from parent.

    vjp(grad) maps the gradient of data to the gradient of parent.data, or
    to None when parent is a leaf and nothing below it needs one.
    """
    out = Tensor(data)
    out.parent = parent
    out.vjp = vjp
    return out
