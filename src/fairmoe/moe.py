"""Group-tied mixture-of-experts conv layer with size-balanced soft routing.

Each layer carries m expert convolutions (one per demographic group) and a
small router: 1x1 conv -> relu -> global average pool -> dense -> softmax.
Routing is hard-forward: exactly one expert runs per sample, chosen from
selection probabilities that reweight the router's confidence scores by
inverse group size.  The expert is sampled from those probabilities
(``sample``), taken as their argmax (``argmax``), or set to the sample's
true group with the router bypassed (``group``).  Each layer's decisions
for a batch come back as one columnar ``RoutingBatch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor, conv2d, dense, global_avg_pool


@dataclass(frozen=True)
class GroupStats:
    """Group sizes with derived priors and inverse-size balance weights."""

    sizes: np.ndarray
    priors: np.ndarray = field(init=False)
    alphas: np.ndarray = field(init=False)

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.float64)
        if sizes.ndim != 1 or len(sizes) < 1:
            raise ValueError("group sizes must be a non-empty 1-D array")
        if np.any(sizes <= 0):
            raise ValueError(f"all group sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "priors", sizes / sizes.sum())
        object.__setattr__(self, "alphas", 1.0 / sizes)

    @property
    def m(self):
        return len(self.sizes)

    @classmethod
    def from_labels(cls, groups, m):
        counts = np.bincount(np.asarray(groups, dtype=np.intp), minlength=m)
        return cls(counts)


ROUTING_MODES = ("sample", "argmax", "group")


@dataclass(frozen=True, eq=False)
class RoutingBatch:
    """One layer's routing decisions for a batch, one row per sample.

    ``sample_ids``, ``chosen`` are (N,) integer arrays; ``scores`` (raw
    router scores) and ``probabilities`` (balanced selection
    probabilities) are (N, m).  Ranges and simplex sums are checked once
    for the whole batch.
    """

    sample_ids: np.ndarray
    layer_index: int
    mode: str
    chosen: np.ndarray
    scores: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        m = self.scores.shape[1]
        bad = np.flatnonzero((self.chosen < 0) | (self.chosen >= m))
        if bad.size:
            raise ValueError(f"chosen expert {self.chosen[bad[0]]} out of range [0, {m})")
        for name, mat in (("scores", self.scores), ("probabilities", self.probabilities)):
            err = np.abs(mat.sum(axis=1) - 1.0)
            if err.size and err.max() > 1e-9:
                row = int(np.argmax(err))
                raise ValueError(f"{name} must sum to 1, got {mat[row].sum()!r} in row {row}")

    def __len__(self):
        return len(self.chosen)


class MoEConvLayer:
    """m identically-shaped expert convs plus a router over the layer input."""

    def __init__(self, layer_index, experts, router, stride, padding):
        self.layer_index = layer_index
        self.experts = experts  # list of (kernel, bias) Tensor pairs
        self.router = router  # (conv_kernel, conv_bias, dense_w, dense_b)
        self.stride = stride
        self.padding = padding
        shapes = {(e[0].shape, e[1].shape) for e in experts}
        if len(shapes) != 1:
            raise ValueError("experts of one layer must share kernel/bias shapes")
        if self.router_param_count() >= self.expert_param_count():
            raise ValueError(
                f"router has {self.router_param_count()} parameters, not smaller "
                f"than one expert's {self.expert_param_count()}"
            )
        if router[2].shape[1] != self.m or router[3].shape != (self.m,):
            raise ValueError("router head width must equal the expert count")

    @property
    def m(self):
        return len(self.experts)

    def expert_param_count(self):
        k, b = self.experts[0]
        return k.data.size + b.data.size

    def router_param_count(self):
        return sum(t.data.size for t in self.router)


def route_scores(x, layer):
    """Differentiable softmax router scores, shape (N, m)."""
    rk, rb, dw, db = layer.router
    h = conv2d(x, rk, rb, stride=1, padding=0).relu()
    logits = dense(global_avg_pool(h), dw, db)
    return logits.softmax(axis=1)


def selection_probabilities(scores, stats):
    """Balance router scores by inverse group size: p_k = a_k s_k / sum_j a_j s_j."""
    s = scores.data if isinstance(scores, Tensor) else np.asarray(scores, dtype=np.float64)
    if s.shape[-1] != stats.m:
        raise ShapeError(f"score width {s.shape[-1]} != group count {stats.m}")
    if np.any(s < -1e-12):
        raise ValueError("scores must be nonnegative")
    if not isinstance(scores, Tensor):
        scores = Tensor(s)
    weighted = scores * Tensor(stats.alphas)
    denom = weighted.sum(axis=-1, keepdims=True)
    if np.any(denom.data <= 0):
        raise ValueError("all balanced scores vanished; cannot normalize")
    return weighted / denom


def select_expert(probabilities, mode, rng=None):
    """Expert indices for (..., m) probability rows: sampled, or argmax (low-index ties).

    Sampling draws one ``rng.random`` per row and inverts each row's CDF
    with the arithmetic of ``Generator.choice``, so it returns, and leaves
    ``rng`` in, exactly what one ``rng.choice(m, p=row / row.sum())`` per
    row would.  The result has shape ``probabilities.shape[:-1]``.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if mode == "argmax":
        chosen = np.argmax(p, axis=-1)
    elif mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs a random generator")
        total = p.sum(axis=-1, keepdims=True)
        if not np.all(np.isfinite(p)) or np.any(p < 0) or np.any(total <= 0):
            raise ValueError("probabilities must be finite, nonnegative and not all zero")
        cdf = np.cumsum(p / total, axis=-1)
        cdf /= cdf[..., -1:]
        u = rng.random(p.shape[:-1])
        chosen = np.sum(cdf <= u[..., None], axis=-1)
    else:
        raise ValueError(f"unknown routing mode {mode!r}")
    return np.asarray(chosen, dtype=np.intp)


def moe_forward(x, layer, stats, mode, rng=None, sample_ids=None, groups=None):
    """Hard forward through one expert per sample.

    Returns (output, batch, probs): ``batch`` is the layer's
    ``RoutingBatch`` and probs the differentiable (N, m)
    selection-probability tensor feeding the specialization loss.  In
    ``group`` mode the router is bypassed and the expert is the true group
    label.
    """
    n = x.data.shape[0]
    scores = route_scores(x, layer)
    probs = selection_probabilities(scores, stats)

    if mode == "group":
        if groups is None:
            raise ValueError("group mode needs per-sample group labels")
        chosen = np.asarray(groups, dtype=np.intp)
    else:
        chosen = select_expert(probs.data, mode, rng)

    out = None
    for k, (kern, bias) in enumerate(layer.experts):
        idx = np.flatnonzero(chosen == k)
        if idx.size == 0:
            continue
        yk = conv2d(x.take_rows(idx), kern, bias, stride=layer.stride, padding=layer.padding)
        part = yk.scatter_rows(idx, n)
        out = part if out is None else out + part

    batch = RoutingBatch(
        sample_ids=np.arange(n) if sample_ids is None else np.asarray(sample_ids),
        layer_index=layer.layer_index,
        mode=mode,
        chosen=chosen,
        scores=scores.data,
        probabilities=probs.data,
    )
    return out, batch, probs
