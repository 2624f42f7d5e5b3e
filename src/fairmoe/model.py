"""Backbone assembly and checkpoint serialization.

A model is a stack of conv blocks (plain or mixture-of-experts) followed
by global average pooling and a dense classifier head.  Checkpoints are
a versioned little-endian binary ("FMCK") carrying configs, group stats,
step counter, RNG state, and every parameter array in declaration order.
"""

from __future__ import annotations

import json
import struct
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .moe import GroupStats, moe_forward
from .tensor import ParamSet, Tensor, conv2d, dense, global_avg_pool

CKPT_MAGIC = b"FMCK"
CKPT_VERSION = 1
CKPT_HEADER = struct.Struct("<4sHI")  # magic, version, metadata byte count

BLOCK_KEYS = ("out_channels", "kernel", "stride", "padding")

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
        for flag in self.moe_flags:
            if not isinstance(flag, (bool, np.bool_)):
                raise ValueError(f"model moe_flags must be bools, got {flag!r}")
        self.moe_flags = tuple(bool(f) for f in self.moe_flags)
        for name in ("m", "router_width", "n_classes", "in_channels"):
            check_int(f"model {name}", getattr(self, name))
        if len(self.blocks) < 1:
            raise ValueError("model needs at least one conv block")
        if len(self.moe_flags) != len(self.blocks):
            raise ValueError("one MoE flag per conv block is required")
        cin, r, m = self.in_channels, self.router_width, self.m
        for i, block in enumerate(self.blocks):
            _check_block(i, block)
            cout, k = block["out_channels"], block["kernel"]
            # router: 1x1 conv to r channels, then dense to m scores
            router, expert = r * cin + r + r * m + m, cout * cin * k * k + cout
            if self.moe_flags[i] and router >= expert:
                raise ValueError(
                    f"block {i} router has {router} parameters, not smaller "
                    f"than one expert's {expert}"
                )
            cin = cout

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; a missing field raises ``KeyError``."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def check_int(what, value, low=1):
    """``value`` is an int (a bool is not) of at least ``low``; the message names ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{what} must be an int >= {low}, got {value!r}")


def _check_block(i, block):
    """Conv geometry: positive int channels, kernel and stride; non-negative int padding."""
    for key in block:
        if key not in BLOCK_KEYS:
            raise ValueError(f"block {i} has unknown key {key!r}; expected {BLOCK_KEYS}")
    for key in BLOCK_KEYS:
        if key not in block:
            raise ValueError(f"block {i} is missing key {key!r}")
        check_int(f"block {i} {key}", block[key], low=0 if key == "padding" else 1)


# One conv block: ``experts`` is a list of (kernel, bias) Tensor pairs and
# ``router`` the (conv_kernel, conv_bias, dense_w, dense_b) Tensors of a MoE
# layer; a plain block is one expert with ``router=None``.
ConvLayer = namedtuple("ConvLayer", "layer_index experts router stride padding")


class Model:
    def __init__(self, config, params, layers, head_w, head_b):
        self.config = config
        self.params = params
        self.layers = layers
        self.head_w = head_w
        self.head_b = head_b

    @property
    def moe_layer_indices(self):
        return tuple(i for i, flag in enumerate(self.config.moe_flags) if flag)

    def forward(self, x, stats=None, mode="argmax", rng=None, sample_ids=None, groups=None):
        """Returns (logits, routing batches, probs-by-layer) for a batch tensor.

        The routing batches are one ``RoutingBatch`` per MoE layer, in layer order.
        """
        x = Tensor._lift(x)
        batches, probs_by_layer = [], {}
        for layer in self.layers:
            if layer.router is not None:
                if stats is None:
                    raise ValueError("MoE layers need group stats to route")
                x, batch, probs = moe_forward(
                    x, layer, stats, mode, rng=rng, sample_ids=sample_ids, groups=groups
                )
                batches.append(batch)
                probs_by_layer[layer.layer_index] = probs
            else:
                x = conv2d(x, *layer.experts[0], stride=layer.stride, padding=layer.padding)
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
    pairs, layers, cin = [], [], config.in_channels

    def param(path, data):
        pairs.append((path, Tensor(data)))
        return pairs[-1][1]

    for i, block in enumerate(config.blocks):
        cout, k = block["out_channels"], block["kernel"]
        stride, padding = block["stride"], block["padding"]
        kern0 = _he_conv(rng, cout, cin, k)
        if config.moe_flags[i]:
            experts = [
                (param(f"layer{i}.expert{e}.kernel", kern0),
                 param(f"layer{i}.expert{e}.bias", np.zeros(cout)))
                for e in range(config.m)
            ]
            r = config.router_width
            router = (
                param(f"layer{i}.router.conv.kernel", _he_conv(rng, r, cin, 1)),
                param(f"layer{i}.router.conv.bias", np.zeros(r)),
                param(f"layer{i}.router.dense.weights", np.zeros((r, config.m))),
                param(f"layer{i}.router.dense.bias", np.zeros(config.m)),
            )
        else:
            experts = [(param(f"layer{i}.kernel", kern0), param(f"layer{i}.bias", np.zeros(cout)))]
            router = None
        layers.append(ConvLayer(i, experts, router, stride, padding))
        cin = cout
    head_w = param("head.weights", rng.normal(0.0, np.sqrt(1.0 / cin), size=(cin, config.n_classes)))
    head_b = param("head.bias", np.zeros(config.n_classes))
    return Model(config, ParamSet(pairs), layers, head_w, head_b)


# ---- checkpoint io -------------------------------------------------------


class CheckpointFormatError(ValueError):
    pass


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
    blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, len(blob)) + blob)
        f.write(model.params.data.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (model, stats, step, rng_state, train_config).

    Any malformed file raises ``CheckpointFormatError``.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CKPT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {raw[:4]!r}")
    head = CKPT_HEADER.size
    if len(raw) < head:
        raise CheckpointFormatError(f"{path}: {len(raw)}-byte file cut inside the {head}-byte header")
    _, version, meta_len = CKPT_HEADER.unpack_from(raw)
    if version != CKPT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    if head + meta_len > len(raw):
        raise CheckpointFormatError(
            f"{path}: truncated: {meta_len}-byte metadata overruns the {len(raw)}-byte file"
        )
    try:
        meta = json.loads(raw[head : head + meta_len].decode())
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
    offset, end = head + meta_len, head + meta_len + 8 * model.params.data.size
    if len(raw) < end:
        for p, t in model.params.items():
            if offset + 8 * t.data.size > len(raw):
                raise CheckpointFormatError(f"{path}: truncated in parameter {p} at byte {offset}")
            offset += 8 * t.data.size
    if len(raw) > end:
        raise CheckpointFormatError(f"{path}: {len(raw) - end} trailing bytes")
    model.params.data[:] = np.frombuffer(raw, dtype="<f8", offset=offset)
    return model, stats, step, rng_state, train_config
