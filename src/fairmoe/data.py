"""Deterministic synthetic group-structured image data.

Each sample carries a continuous attribute t in [0, 1]; the binary group
label thresholds t, so samples near the threshold are genuine boundary
cases.  Rendering blends two class-template banks across t and scales by
an attribute-dependent gain, so the optimal decision rule shifts with t
and group-specific experts have something real to specialize on.

On disk a dataset is a directory holding ``data.fmds`` (fixed-endian
binary, bit-exact round trips) plus a human-readable ``manifest.csv``.
"""

from __future__ import annotations

import csv
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .moe import GroupStats

MAGIC = b"FMDS"
VERSION = 1
HEADER_BYTES = 22  # magic, <H version, <4I n, c, h, w
N_GROUPS = 2  # the attribute threshold splits samples into groups 0 and 1


@dataclass
class Sample:
    image: np.ndarray  # (C, H, W) float64 in [0, 1]
    label: int
    group: int
    attribute: float


@dataclass
class SynthConfig:
    n_samples: int = 2000
    channels: int = 1
    height: int = 16
    width: int = 16
    n_classes: int = 4
    threshold: float = 0.5
    boundary_halfwidth: float = 0.1
    class_priors: tuple = ((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4))
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        priors = np.asarray(self.class_priors, dtype=np.float64)
        if priors.shape != (N_GROUPS, self.n_classes):
            raise ValueError(
                f"class_priors must be {N_GROUPS} x {self.n_classes}, got shape {priors.shape}"
            )
        if np.any(priors < 0) or np.max(np.abs(priors.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("each group's class priors must be a distribution")
        if not self.boundary_halfwidth < self.threshold:
            raise ValueError("boundary halfwidth must be smaller than the threshold")


def gain(t):
    return 0.5 + t


def class_templates(config):
    """Two fixed template banks, (K, C, H, W) each.

    The low-attribute bank puts each class's blob in its own image region;
    the high-attribute bank is the same patterns under a cyclic class
    shift, so a rule learned on one end of the attribute range actively
    misleads on the other.
    """
    k, c, h, w = config.n_classes, config.channels, config.height, config.width
    low = np.zeros((k, c, h, w))
    for y in range(k):
        rows = slice(0, h // 2) if y % 2 == 0 else slice(h // 2, h)
        cols = slice(0, w // 2) if (y // 2) % 2 == 0 else slice(w // 2, w)
        region = np.zeros((h, w))
        region[rows, cols] = 1.0
        # stripe phase separates classes sharing a quadrant when K > 4
        phase = y // 4
        stripes = (np.arange(h)[:, None] + phase) % 2
        low[y] = 0.25 + 0.5 * region * (0.5 + 0.5 * stripes)
    high = low[(np.arange(k) + 1) % k]
    return low, high


def generate(config):
    """Draw a dataset from the config; identical config+seed is bit-identical."""
    rng = np.random.default_rng(config.seed)
    low, high = class_templates(config)
    t = rng.uniform(0.0, 1.0, size=config.n_samples)
    groups = (t >= config.threshold).astype(np.intp)
    priors = np.asarray(config.class_priors)
    samples = []
    for i in range(config.n_samples):
        y = int(rng.choice(config.n_classes, p=priors[groups[i]]))
        base = (1.0 - t[i]) * low[y] + t[i] * high[y]
        noise = rng.uniform(-config.noise_sigma, config.noise_sigma, size=base.shape)
        img = np.clip(gain(t[i]) * base + noise, 0.0, 1.0)
        samples.append(Sample(image=img, label=y, group=int(groups[i]), attribute=float(t[i])))
    stats = GroupStats.from_labels([s.group for s in samples], m=N_GROUPS)
    return samples, stats


# ---- on-disk format ------------------------------------------------------


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the failing byte offset."""


def record_dtype(c, h, w):
    """One ``FMDS`` sample record, packed little-endian; n of them follow the header."""
    return np.dtype(
        [("attribute", "<f8"), ("label", "<u2"), ("group", "<u2"), ("image", "<f8", (c, h, w))]
    )


def save(samples, dirpath):
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    c, h, w = samples[0].image.shape
    if any(s.image.shape != (c, h, w) for s in samples):
        raise ValueError("all samples must share one image shape")
    records = np.empty(len(samples), dtype=record_dtype(c, h, w))
    records["attribute"] = [s.attribute for s in samples]
    records["image"] = [s.image for s in samples]
    for name in ("label", "group"):  # as Python ints, which raise out of <u2 range, not wrap
        records[name] = [operator.index(getattr(s, name)) for s in samples]
    with open(dirpath / "data.fmds", "wb") as f:
        f.write(MAGIC + struct.pack("<H4I", VERSION, len(samples), c, h, w))
        f.write(records.tobytes())
    with open(dirpath / "manifest.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "label", "group", "t"])
        writer.writerows([i, s.label, s.group, repr(s.attribute)] for i, s in enumerate(samples))


def load(dirpath):
    dirpath = Path(dirpath)
    path = dirpath / "data.fmds"
    raw = path.read_bytes()
    if len(raw) < HEADER_BYTES:
        raise DatasetFormatError(
            f"{path}: truncated inside the {HEADER_BYTES}-byte header at byte {len(raw)}"
        )
    if raw[:4] != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {raw[:4]!r} at byte 0")
    version, n, c, h, w = struct.unpack_from("<H4I", raw, 4)
    if version != VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version} at byte 4")
    size = record_dtype(0, 0, 0).itemsize + 8 * c * h * w  # the fixed fields, then pixels
    whole = (len(raw) - HEADER_BYTES) // size
    if whole < n:
        raise DatasetFormatError(
            f"{path}: truncated while reading sample {whole} at byte {HEADER_BYTES + whole * size}"
        )
    end = HEADER_BYTES + n * size
    if end != len(raw):
        raise DatasetFormatError(f"{path}: {len(raw) - end} trailing bytes at byte {end}")

    manifest = dirpath / "manifest.csv"
    if manifest.exists():
        with open(manifest, newline="") as f:
            rows = csv.reader(f)
            next(rows, None)  # the header; like DictReader, count the non-blank rows after it
            count = sum(1 for row in rows if row)
        if count != n:
            raise DatasetFormatError(
                f"{manifest}: manifest has {count} rows but header declares {n} samples"
            )
    if n == 0:  # a header alone, whose c, h and w need not fit a dtype
        return []
    if max(c, h, w) >= 2**31:  # a dtype's shape holds C ints; only pixel-free images get here
        raise DatasetFormatError(f"{path}: image shape {(c, h, w)} too large at byte 10")

    records = np.frombuffer(raw, record_dtype(c, h, w), n, HEADER_BYTES)
    bad = np.flatnonzero(records["group"] >= N_GROUPS)
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(
            f"{path}: sample {i} has group {records['group'][i]}, not in [0, {N_GROUPS}), "
            f"at byte {HEADER_BYTES + i * size + records.dtype.fields['group'][1]}"
        )
    columns = (records[name].tolist() for name in ("label", "group", "attribute"))
    return [
        Sample(image=image, label=label, group=group, attribute=t)
        for image, label, group, t in zip(records["image"].copy(), *columns)
    ]


def split(samples, train_fraction, seed):
    """Deterministic split stratified by (group, class); disjoint and exhaustive."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    strata = {}
    for i, s in enumerate(samples):
        strata.setdefault((s.group, s.label), []).append(i)

    target = round(train_fraction * len(samples))
    quota, remainders = {}, []
    for key, idx in sorted(strata.items()):
        exact = train_fraction * len(idx)
        quota[key] = int(np.floor(exact))
        remainders.append((exact - quota[key], key))
    short = target - sum(quota.values())
    for _, key in sorted(remainders, reverse=True)[:short]:
        quota[key] += 1

    train_idx, test_idx = [], []
    for key, idx in sorted(strata.items()):
        perm = rng.permutation(len(idx))
        take = quota[key]
        train_idx.extend(idx[j] for j in perm[:take])
        test_idx.extend(idx[j] for j in perm[take:])
    train_idx.sort()
    test_idx.sort()
    return [samples[i] for i in train_idx], [samples[i] for i in test_idx]


def stack(samples):
    """(images (N,C,H,W), labels, groups, attributes) arrays from a sample list."""
    images = np.stack([s.image for s in samples])
    labels = np.array([s.label for s in samples], dtype=np.intp)
    groups = np.array([s.group for s in samples], dtype=np.intp)
    attrs = np.array([s.attribute for s in samples])
    return images, labels, groups, attrs
