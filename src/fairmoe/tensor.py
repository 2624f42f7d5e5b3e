"""Minimal reverse-mode autodiff engine on float64 numpy arrays.

Every op builds a node in a DAG; ``Tensor.backward()`` runs a topological
sweep and accumulates gradients into leaf tensors that have
``requires_grad`` set.  Gradients accumulate across backward calls until
``ParamSet.zero_grad()`` resets them, so multi-term losses compose by
plain addition.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LOG_EPS = 1e-12

_grad_enabled = True  # read by Tensor._node; set only by no_grad()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


@contextmanager
def no_grad():
    """Inside the block ops build no graph: results never require grad and keep no parents."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


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

    @staticmethod
    def _node(data, parents, backward):
        out = Tensor(data)
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
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
            self.grad += 1.0
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

    def __mul__(self, other):
        other = Tensor._lift(other)
        data = self.data * other.data

        def bw(g):
            _accum(self, _unbroadcast(g * other.data, self.data.shape))
            _accum(other, _unbroadcast(g * self.data, other.data.shape))

        return Tensor._node(data, (self, other), bw)

    def __sub__(self, other):
        other = Tensor._lift(other)
        data = self.data - other.data

        def bw(g):
            _accum(self, _unbroadcast(g, self.data.shape))
            _accum(other, _unbroadcast(-g, other.data.shape))

        return Tensor._node(data, (self, other), bw)

    def __truediv__(self, other):
        other = Tensor._lift(other)
        data = self.data / other.data

        def bw(g):
            _accum(self, _unbroadcast(g / other.data, self.data.shape))
            _accum(other, _unbroadcast(-g * self.data / other.data ** 2, other.data.shape))

        return Tensor._node(data, (self, other), bw)

    # ---- shape ops ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(self, np.broadcast_to(g, self.data.shape).copy())

        return Tensor._node(data, (self,), bw)

    # ---- nonlinearities -------------------------------------------------

    def relu(self):
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def bw(g):
            _accum(self, g * mask)

        return Tensor._node(data, (self,), bw)

    def log(self):
        # clamp keeps MI terms finite when an expert gets zero mass;
        # the clamped region is flat, so its gradient is zero
        clamped = np.maximum(self.data, LOG_EPS)
        live = self.data > LOG_EPS
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


def _accum(node, g):
    # backward() has given every requires-grad node it reaches a grad array
    if node.requires_grad:
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


def matmul(a, b):
    """Matrix product a @ b; gradients flow only into operands that require them."""
    a, b = Tensor._lift(a), Tensor._lift(b)
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return Tensor._node(data, (a, b), bw)


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
    return matmul(x, weights) + bias


def conv2d(x, kernel, bias, stride=1, padding=0):
    """2-D cross-correlation, NCHW input, OIKhKw kernel, zero padding."""
    return expert_conv2d(x, [(kernel, bias)], None, stride, padding)


def expert_conv2d(x, experts, chosen, stride=1, padding=0):
    """``conv2d`` where row i of x runs ``experts[chosen[i]]``, a (kernel, bias) pair.

    One node: x is unfolded once; each expert contracts only its own rows.
    ``chosen=None`` runs one expert on all rows.
    """
    if not experts:
        raise ValueError("expert_conv2d needs at least one expert")
    kernel, bias = experts[0]
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIKhKw kernel")
    n, cin, h, w = x.data.shape
    cout, kin, kh, kw = kernel.data.shape
    if cin != kin:
        raise ShapeError(f"conv2d channel mismatch: input has {cin} channels, kernel expects {kin}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {bias.data.shape}, expected ({cout},)")
    if any(k.shape != kernel.shape or b.shape != bias.shape for k, b in experts):
        raise ShapeError(f"every expert needs kernel {kernel.shape} and bias {bias.shape}")
    if chosen is None and len(experts) != 1:
        raise ValueError(f"{len(experts)} experts need a chosen expert per row")
    if chosen is not None:
        chosen = np.asarray(chosen)
        if chosen.shape != (n,) or chosen.dtype.kind not in "iu":
            raise ShapeError(f"chosen must be ({n},) ints, got {chosen.dtype} {chosen.shape}")
        bad = np.flatnonzero((chosen < 0) | (chosen >= len(experts)))
        if bad.size:
            raise ValueError(
                f"row {bad[0]} chose expert {chosen[bad[0]]}, not in [0, {len(experts)})"
            )
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"conv2d spatial extent {h}x{w} (+pad {padding}) smaller than kernel {kh}x{kw}"
        )
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    def unfold(rows):  # contiguous (nk, cin, kh, kw, oh, ow), the GEMM's operand
        win = sliding_window_view(rows, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3))

    # later reductions sum in memory order, so each output layout is part of the bits:
    # one expert keeps the GEMM's (cout, n, oh, ow)-major memory, dispatch is C-ordered
    if chosen is None:
        runs = [(slice(None), kernel, bias, unfold(xp))]
    else:
        rows = (np.flatnonzero(chosen == e) for e in range(len(experts)))
        runs = [(idx, k, b, unfold(xp[idx])) for idx, (k, b) in zip(rows, experts) if idx.size]
        data = np.empty((n, cout, oh, ow), dtype=np.float64)
    for idx, k, b, ck in runs:
        y = np.tensordot(k.data, ck, axes=([1, 2, 3], [1, 2, 3])).transpose(1, 0, 2, 3)
        y = y + b.data[None, :, None, None]
        if chosen is None:
            data = y
        else:
            data[idx] = y

    def bw(g):
        gcols = np.empty((cin, kh, kw, n, oh, ow), dtype=np.float64) if x.requires_grad else None
        for idx, k, b, ck in runs:
            # (cout, nk, oh, ow): each bias gradient sums one contiguous block, whatever g's layout
            gk = np.ascontiguousarray(g.transpose(1, 0, 2, 3)[:, idx])
            _accum(b, gk.sum(axis=(1, 2, 3)))
            _accum(k, np.tensordot(gk, ck, axes=([1, 2, 3], [0, 4, 5])))
            if gcols is not None:
                gcols[:, :, :, idx] = np.tensordot(k.data, gk, axes=([0], [0]))
        if gcols is None:
            return
        gc = gcols.transpose(3, 0, 1, 2, 4, 5)
        gxp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=np.float64)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += gc[:, :, i, j]
        _accum(x, gxp[:, :, padding : padding + h, padding : padding + w])

    return Tensor._node(data, (x, *(t for _, k, b, _ in runs for t in (k, b))), bw)


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
    """Ordered map from parameter path to leaf tensor, built once from (path, tensor) pairs.

    ``data`` and ``grad`` hold every parameter in path order in one float64
    array each; every tensor's ``data`` and ``grad`` are reshaped views of
    them.  So parameters are written in place (``t.data[...] = v``); a rebound
    ``t.data`` or ``t.grad`` would no longer be seen by the optimizer.
    """

    def __init__(self, pairs):
        self._params: dict[str, Tensor] = {}
        path_of = {}  # id(tensor) -> its path, so one tensor cannot sit under two paths
        for path, tensor in pairs:
            if path in self._params:
                raise ValueError(f"duplicate parameter path {path!r}")
            if id(tensor) in path_of:
                raise ValueError(f"parameters {path_of[id(tensor)]!r} and {path!r} are one tensor")
            if tensor._parents:
                raise ValueError(f"parameter {path!r} is not a leaf tensor")
            self._params[path] = tensor
            path_of[id(tensor)] = path
        tensors = self._params.values()
        self.data = np.concatenate([np.zeros(0), *(t.data.ravel() for t in tensors)])
        self.grad = np.zeros(self.data.size)
        ends = np.cumsum([t.data.size for t in tensors])
        for t, data, grad in zip(tensors, np.split(self.data, ends), np.split(self.grad, ends)):
            t.data, t.grad, t.requires_grad = data.reshape(t.shape), grad.reshape(t.shape), True

    def __getitem__(self, path):
        return self._params[path]

    def items(self):
        return self._params.items()

    def paths(self):
        return list(self._params)

    def zero_grad(self):
        self.grad.fill(0.0)
