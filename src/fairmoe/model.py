"""Backbone assembly and checkpoint serialization.

A model is a stack of conv blocks (plain or mixture-of-experts) followed
by global average pooling and a dense classifier head.  Checkpoints are
a versioned little-endian binary ("FMCK") carrying configs, group stats,
step counter, RNG state, and every parameter array in declaration order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .moe import GroupStats, MoEConvLayer, moe_forward
from .tensor import ParamSet, Tensor, conv2d, dense, global_avg_pool

CKPT_MAGIC = b"FMCK"
CKPT_VERSION = 1

DEFAULT_BLOCKS = (
    {"out_channels": 8, "kernel": 3, "stride": 2, "padding": 1},
    {"out_channels": 16, "kernel": 3, "stride": 2, "padding": 1},
    {"out_channels": 32, "kernel": 3, "stride": 2, "padding": 1},
    {"out_channels": 64, "kernel": 3, "stride": 2, "padding": 1},
)


@dataclass
class ModelConfig:
    blocks: tuple = DEFAULT_BLOCKS
    moe_flags: tuple = (False, False, False, False)
    m: int = 2
    router_width: int = 8
    n_classes: int = 4
    in_channels: int = 1

    def __post_init__(self):
        self.blocks = tuple(dict(b) for b in self.blocks)
        self.moe_flags = tuple(bool(f) for f in self.moe_flags)
        if len(self.blocks) < 1:
            raise ValueError("model needs at least one conv block")
        if len(self.moe_flags) != len(self.blocks):
            raise ValueError("one MoE flag per conv block is required")

    def to_dict(self):
        return {
            "blocks": [dict(b) for b in self.blocks],
            "moe_flags": list(self.moe_flags),
            "m": self.m,
            "router_width": self.router_width,
            "n_classes": self.n_classes,
            "in_channels": self.in_channels,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            blocks=tuple(d["blocks"]),
            moe_flags=tuple(d["moe_flags"]),
            m=d["m"],
            router_width=d["router_width"],
            n_classes=d["n_classes"],
            in_channels=d["in_channels"],
        )


class PlainConvLayer:
    def __init__(self, layer_index, kernel, bias, stride, padding):
        self.layer_index = layer_index
        self.kernel = kernel
        self.bias = bias
        self.stride = stride
        self.padding = padding


class Model:
    def __init__(self, config, params, layers, head_w, head_b):
        self.config = config
        self.params = params
        self.layers = layers
        self.head_w = head_w
        self.head_b = head_b

    @property
    def moe_layer_indices(self):
        return tuple(i for i, l in enumerate(self.layers) if isinstance(l, MoEConvLayer))

    def forward(self, x, stats=None, mode="argmax", rng=None, sample_ids=None, groups=None):
        """Returns (logits, routing batches, probs-by-layer) for a batch tensor.

        The routing batches are one ``RoutingBatch`` per MoE layer, in layer order.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        batches, probs_by_layer = [], {}
        for layer in self.layers:
            if isinstance(layer, MoEConvLayer):
                if stats is None:
                    raise ValueError("MoE layers need group stats to route")
                x, batch, probs = moe_forward(
                    x, layer, stats, mode, rng=rng, sample_ids=sample_ids, groups=groups
                )
                batches.append(batch)
                probs_by_layer[layer.layer_index] = probs
            else:
                x = conv2d(x, layer.kernel, layer.bias, stride=layer.stride, padding=layer.padding)
            x = x.relu()
        feats = global_avg_pool(x)
        logits = dense(feats, self.head_w, self.head_b)
        return logits, batches, probs_by_layer


def _he_conv(rng, cout, cin, k):
    fan_in = cin * k * k
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, k, k))


def build_model(config, seed):
    """Instantiate parameters; flagged blocks become MoE layers.

    Experts of a layer start from one shared draw so early routing, not
    initialization luck, drives specialization; the router head is
    zero-initialized so step-0 scores are exactly uniform.
    """
    rng = np.random.default_rng(seed)
    params = ParamSet()
    layers = []
    cin = config.in_channels
    for i, block in enumerate(config.blocks):
        cout, k = block["out_channels"], block["kernel"]
        stride, padding = block["stride"], block.get("padding", 1)
        kern0 = _he_conv(rng, cout, cin, k)
        if config.moe_flags[i]:
            experts = []
            for e in range(config.m):
                kern = params.add(f"layer{i}.expert{e}.kernel", Tensor(kern0.copy()))
                bias = params.add(f"layer{i}.expert{e}.bias", Tensor(np.zeros(cout)))
                experts.append((kern, bias))
            r = config.router_width
            router = (
                params.add(f"layer{i}.router.conv.kernel", Tensor(_he_conv(rng, r, cin, 1))),
                params.add(f"layer{i}.router.conv.bias", Tensor(np.zeros(r))),
                params.add(f"layer{i}.router.dense.weights", Tensor(np.zeros((r, config.m)))),
                params.add(f"layer{i}.router.dense.bias", Tensor(np.zeros(config.m))),
            )
            layers.append(MoEConvLayer(i, experts, router, stride, padding))
        else:
            kern = params.add(f"layer{i}.kernel", Tensor(kern0))
            bias = params.add(f"layer{i}.bias", Tensor(np.zeros(cout)))
            layers.append(PlainConvLayer(i, kern, bias, stride, padding))
        cin = cout
    head_w = params.add(
        "head.weights", Tensor(rng.normal(0.0, np.sqrt(1.0 / cin), size=(cin, config.n_classes)))
    )
    head_b = params.add("head.bias", Tensor(np.zeros(config.n_classes)))
    return Model(config, params, layers, head_w, head_b)


# ---- checkpoint io -------------------------------------------------------


class CheckpointFormatError(ValueError):
    pass


def _write_blob(f, payload: bytes):
    f.write(struct.pack("<I", len(payload)))
    f.write(payload)


def save_checkpoint(path, model, stats, step, rng_state, train_config=None):
    meta = {
        "model_config": model.config.to_dict(),
        "train_config": train_config,
        "group_sizes": [float(v) for v in stats.sizes],
        "step": int(step),
        "rng_state": rng_state,
        "param_order": model.params.paths(),
        "param_shapes": {p: list(t.shape) for p, t in model.params.items()},
    }
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<H", CKPT_VERSION))
        _write_blob(f, json.dumps(meta, sort_keys=True).encode())
        for _, t in model.params.items():
            f.write(t.data.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (model, stats, step, rng_state, train_config).

    Any malformed file raises ``CheckpointFormatError``.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CKPT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 10:
        raise CheckpointFormatError(f"{path}: {len(raw)}-byte file cut inside the 10-byte header")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != CKPT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    (meta_len,) = struct.unpack_from("<I", raw, 6)
    if 10 + meta_len > len(raw):
        raise CheckpointFormatError(
            f"{path}: truncated: {meta_len}-byte metadata overruns the {len(raw)}-byte file"
        )
    try:
        meta = json.loads(raw[10 : 10 + meta_len].decode())
        model = build_model(ModelConfig.from_dict(meta["model_config"]), seed=0)
        stats = GroupStats(np.asarray(meta["group_sizes"], dtype=np.float64))
        param_order, step, rng_state = meta["param_order"], meta["step"], meta["rng_state"]
        train_config = meta.get("train_config")
    except (ValueError, KeyError, TypeError, AttributeError, IndexError, ArithmeticError) as exc:
        raise CheckpointFormatError(f"{path}: bad metadata: {exc!r}") from exc
    if model.params.paths() != param_order:
        raise CheckpointFormatError(f"{path}: parameter order mismatch")
    if model.moe_layer_indices and model.config.m != stats.m:
        raise CheckpointFormatError(
            f"{path}: {model.config.m} experts per MoE layer but {stats.m} group sizes"
        )
    offset = 10 + meta_len
    for p, t in model.params.items():
        n = t.data.size
        if offset + 8 * n > len(raw):
            raise CheckpointFormatError(f"{path}: truncated in parameter {p} at byte {offset}")
        t.data = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(t.shape).copy()
        offset += 8 * n
    if offset != len(raw):
        raise CheckpointFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return model, stats, step, rng_state, train_config
