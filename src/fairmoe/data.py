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
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .moe import GroupStats

MAGIC = b"FMDS"
VERSION = 1
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


def save(samples, dirpath):
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    c, h, w = samples[0].image.shape
    with open(dirpath / "data.fmds", "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        f.write(struct.pack("<4I", len(samples), c, h, w))
        for s in samples:
            if s.image.shape != (c, h, w):
                raise ValueError("all samples must share one image shape")
            f.write(struct.pack("<d", s.attribute))
            f.write(struct.pack("<2H", s.label, s.group))
            f.write(s.image.astype("<f8").tobytes())
    with open(dirpath / "manifest.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "label", "group", "t"])
        for i, s in enumerate(samples):
            writer.writerow([i, s.label, s.group, repr(s.attribute)])


def load(dirpath):
    dirpath = Path(dirpath)
    path = dirpath / "data.fmds"
    raw = path.read_bytes()

    def need(offset, count, what):
        if offset + count > len(raw):
            raise DatasetFormatError(
                f"{path}: truncated while reading {what} at byte {offset}"
            )

    need(0, 4, "magic")
    if raw[:4] != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {raw[:4]!r} at byte 0")
    need(4, 2, "version")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version} at byte 4")
    need(6, 16, "header counts")
    n, c, h, w = struct.unpack_from("<4I", raw, 6)
    pix = c * h * w
    offset = 22
    samples = []
    for _ in range(n):
        need(offset, 12 + 8 * pix, f"sample {len(samples)}")
        (t,) = struct.unpack_from("<d", raw, offset)
        label, group = struct.unpack_from("<2H", raw, offset + 8)
        if group >= N_GROUPS:
            raise DatasetFormatError(
                f"{path}: sample {len(samples)} has group {group}, not in [0, {N_GROUPS}), "
                f"at byte {offset + 10}"
            )
        img = np.frombuffer(raw, dtype="<f8", count=pix, offset=offset + 12)
        samples.append(
            Sample(image=img.reshape(c, h, w).copy(), label=label, group=group, attribute=t)
        )
        offset += 12 + 8 * pix
    if offset != len(raw):
        raise DatasetFormatError(f"{path}: {len(raw) - offset} trailing bytes at byte {offset}")

    manifest = dirpath / "manifest.csv"
    if manifest.exists():
        with open(manifest, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != n:
            raise DatasetFormatError(
                f"{manifest}: manifest has {len(rows)} rows but header declares {n} samples"
            )
    return samples


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
