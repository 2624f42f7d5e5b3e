"""Minimal reverse-mode autodiff engine on float64 numpy arrays.

Every op builds a node in a DAG; ``Tensor.backward()`` runs a topological
sweep and accumulates gradients into leaf tensors that have
``requires_grad`` set.  Gradients accumulate across backward calls until
``ParamSet.zero_grad()`` resets them, so multi-term losses compose by
plain addition.
"""

from __future__ import annotations

import numpy as np

LOG_EPS = 1e-12


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def is_leaf(self):
        return not self._parents

    @staticmethod
    def _node(data, parents, backward):
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    # ---- graph traversal ------------------------------------------------

    def backward(self):
        """Backpropagate from a scalar loss into requires-grad leaves."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        # Depth-first post-order with an explicit stack: parents before
        # children, in the same order a recursive walk gives.  No closure
        # refers to itself, so the graph is freed by reference counting as
        # soon as the caller drops the loss, not at the next cyclic GC.
        topo, seen, stack = [], set(), []
        if self.requires_grad:
            seen.add(id(self))
            stack.append((self, iter(self._parents)))
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen and p.requires_grad:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(node)
        # Interior grads are scratch space for this sweep; leaves accumulate.
        for node in topo:
            if node._parents or node.grad is None:
                node.grad = np.zeros_like(node.data)
        if self.requires_grad:
            self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        data = self.data + other.data

        def bw(g):
            _accum(self, _unbroadcast(g, self.data.shape))
            _accum(other, _unbroadcast(g, other.data.shape))

        return Tensor._node(data, (self, other), bw)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._lift(other)
        data = self.data * other.data

        def bw(g):
            _accum(self, _unbroadcast(g * other.data, self.data.shape))
            _accum(other, _unbroadcast(g * self.data, other.data.shape))

        return Tensor._node(data, (self, other), bw)

    __rmul__ = __mul__

    def __neg__(self):
        return self * Tensor(-1.0)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __truediv__(self, other):
        other = Tensor._lift(other)
        data = self.data / other.data

        def bw(g):
            _accum(self, _unbroadcast(g / other.data, self.data.shape))
            _accum(other, _unbroadcast(-g * self.data / other.data ** 2, other.data.shape))

        return Tensor._node(data, (self, other), bw)

    # ---- shape ops ------------------------------------------------------

    def reshape(self, *shape):
        data = self.data.reshape(*shape)

        def bw(g):
            _accum(self, g.reshape(self.data.shape))

        return Tensor._node(data, (self,), bw)

    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(self, np.broadcast_to(g, self.data.shape).copy())

        return Tensor._node(data, (self,), bw)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * Tensor(1.0 / n)

    # ---- nonlinearities -------------------------------------------------

    def relu(self):
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def bw(g):
            _accum(self, g * mask)

        return Tensor._node(data, (self,), bw)

    def log(self, eps=LOG_EPS):
        # clamp keeps MI terms finite when an expert gets zero mass;
        # the clamped region is flat, so its gradient is zero
        clamped = np.maximum(self.data, eps)
        live = self.data > eps
        data = np.log(clamped)

        def bw(g):
            _accum(self, g * live / clamped)

        return Tensor._node(data, (self,), bw)

    def softmax(self, axis=-1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def bw(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            _accum(self, y * (g - inner))

        return Tensor._node(y, (self,), bw)

    # ---- batch row routing ----------------------------------------------

    def take_rows(self, idx):
        """Select rows along axis 0; backward scatter-adds."""
        idx = np.asarray(idx, dtype=np.intp)
        data = self.data[idx]

        def bw(g):
            acc = np.zeros_like(self.data)
            np.add.at(acc, idx, g)
            _accum(self, acc)

        return Tensor._node(data, (self,), bw)

    def scatter_rows(self, idx, n):
        """Place this tensor's rows at positions ``idx`` of a zero (n, ...) tensor."""
        idx = np.asarray(idx, dtype=np.intp)
        data = np.zeros((n,) + self.data.shape[1:], dtype=np.float64)
        data[idx] = self.data

        def bw(g):
            _accum(self, g[idx])

        return Tensor._node(data, (self,), bw)


def _accum(node, g):
    if node.requires_grad or node._parents:
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
        node.grad += g


def _unbroadcast(g, shape):
    """Reduce gradient g back to the operand's pre-broadcast shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---- layers -------------------------------------------------------------


def dense(x, weights, bias):
    """Affine map per row: (N, F) @ (F, K) + (K,)."""
    if x.data.ndim != 2 or weights.data.ndim != 2:
        raise ShapeError("dense expects 2-D input and weights")
    if x.data.shape[1] != weights.data.shape[0]:
        raise ShapeError(
            f"dense inner dimensions disagree: input has {x.data.shape[1]} "
            f"features, weights expect {weights.data.shape[0]}"
        )
    if bias.data.shape != (weights.data.shape[1],):
        raise ShapeError(
            f"dense bias shape {bias.data.shape} does not match "
            f"output width {weights.data.shape[1]}"
        )
    data = x.data @ weights.data + bias.data

    def bw(g):
        _accum(x, g @ weights.data.T)
        _accum(weights, x.data.T @ g)
        _accum(bias, g.sum(axis=0))

    return Tensor._node(data, (x, weights, bias), bw)


def conv2d(x, kernel, bias, stride=1, padding=0):
    """2-D cross-correlation, NCHW input, OIKhKw kernel, zero padding."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIKhKw kernel")
    n, cin, h, w = x.data.shape
    cout, kin, kh, kw = kernel.data.shape
    if cin != kin:
        raise ShapeError(
            f"conv2d channel mismatch: input has {cin} channels, kernel expects {kin}"
        )
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {bias.data.shape}, expected ({cout},)")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"conv2d spatial extent {h}x{w} (+pad {padding}) smaller than kernel {kh}x{kw}"
        )
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, cin, kh, kw, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride]
    data = np.tensordot(kernel.data, cols, axes=([1, 2, 3], [1, 2, 3]))
    data = data.transpose(1, 0, 2, 3) + bias.data[None, :, None, None]

    def bw(g):
        _accum(bias, g.sum(axis=(0, 2, 3)))
        # g: (n, cout, oh, ow), cols: (n, cin, kh, kw, oh, ow)
        _accum(kernel, np.tensordot(g, cols, axes=([0, 2, 3], [0, 4, 5])))
        gc = np.tensordot(kernel.data, g, axes=([0], [1]))  # (cin, kh, kw, n, oh, ow)
        gc = gc.transpose(3, 0, 1, 2, 4, 5)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += gc[:, :, i, j]
        if padding:
            gxp = gxp[:, :, padding:-padding, padding:-padding]
        _accum(x, gxp)

    return Tensor._node(data, (x, kernel, bias), bw)


def global_avg_pool(x):
    """(N, C, H, W) -> (N, C) spatial mean."""
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool expects an NCHW tensor")
    n, c, h, w = x.data.shape
    data = x.data.mean(axis=(2, 3))

    def bw(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).copy())

    return Tensor._node(data, (x,), bw)


def cross_entropy(logits, targets):
    """Mean cross-entropy of integer class targets against row logits."""
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy expects (N, K) logits")
    targets = np.asarray(targets, dtype=np.intp)
    n, k = logits.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy targets shape {targets.shape}, expected ({n},)")
    if targets.min() < 0 or targets.max() >= k:
        bad = targets[(targets < 0) | (targets >= k)][0]
        raise ValueError(f"cross_entropy class index {bad} out of range [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    data = np.mean(lse - logits.data[np.arange(n), targets])

    def bw(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        _accum(logits, g * p / n)

    return Tensor._node(data, (logits, ), bw)


# ---- parameters ---------------------------------------------------------


class ParamSet:
    """Ordered map from parameter path to leaf tensor."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, path, tensor):
        if path in self._params:
            raise ValueError(f"duplicate parameter path {path!r}")
        if not tensor.is_leaf():
            raise ValueError(f"parameter {path!r} is not a leaf tensor")
        tensor.requires_grad = True
        self._params[path] = tensor
        return tensor

    def __getitem__(self, path):
        return self._params[path]

    def __contains__(self, path):
        return path in self._params

    def __len__(self):
        return len(self._params)

    def items(self):
        return self._params.items()

    def paths(self):
        return list(self._params)

    def zero_grad(self):
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)

    def grads(self):
        """Gradient map; unused leaves report exact zeros."""
        return {
            path: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for path, t in self._params.items()
        }
