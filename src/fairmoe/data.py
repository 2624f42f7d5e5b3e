"""Deterministic synthetic group-structured image data.

Each sample carries a continuous attribute t in [0, 1]; the binary group
label thresholds t, so samples near the threshold are genuine boundary
cases.  Rendering blends two class-template banks across t and scales by
an attribute-dependent gain, so the optimal decision rule shifts with t
and group-specific experts have something real to specialize on.

In memory a dataset is one ``Dataset`` of columns whose images live in
one shared array, so slices and splits copy no pixels.  On disk it is a
directory holding ``data.fmds`` (fixed-endian binary, bit-exact round
trips) plus a human-readable ``manifest.csv``.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import check_int, is_real
from .moe import GroupStats

MAGIC = b"FMDS"
VERSION = 1
FMDS_HEADER = struct.Struct("<4sH4I")  # magic, version, n, c, h, w
N_GROUPS = 2  # the attribute threshold splits samples into groups 0 and 1
CHUNK = 256  # samples per block of draws in ``generate``; bounds its temporaries


class Sample(NamedTuple):
    """One row of a ``Dataset``."""

    image: np.ndarray  # (C, H, W) float64 in [0, 1], a view of the dataset's pixels
    label: int
    group: int
    attribute: float


class Dataset:
    """A dataset as columns, one entry per row; the images stay in one shared array.

    ``pixels`` is an (M, C, H, W) float64 array that every slice and split
    of a dataset shares, and ``rows`` (N,) picks this dataset's images from
    it.  ``labels`` and ``groups`` are (N,) intp, ``attributes`` (N,)
    float64.  An int index returns a ``Sample``; a slice, an index array or
    a mask returns a ``Dataset`` over the same pixels.  Iteration yields
    ``Sample`` rows.
    """

    def __init__(self, pixels, labels, groups, attributes, rows=None):
        self.pixels = pixels
        self.rows = np.arange(len(pixels)) if rows is None else np.asarray(rows, dtype=np.intp)
        self.labels = np.asarray(labels, dtype=np.intp)
        self.groups = np.asarray(groups, dtype=np.intp)
        self.attributes = np.asarray(attributes, dtype=np.float64)
        if not len(self.rows) == len(self.labels) == len(self.groups) == len(self.attributes):
            raise ValueError("rows, labels, groups and attributes must have one entry per row")

    def __len__(self):
        return len(self.rows)

    def images(self, idx=slice(None)):
        """The images of the rows ``idx`` picks, gathered into one new (n, C, H, W) array."""
        return self.pixels[self.rows[idx]]

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return Sample(self.pixels[self.rows[idx]], int(self.labels[idx]),
                          int(self.groups[idx]), float(self.attributes[idx]))
        return Dataset(self.pixels, self.labels[idx], self.groups[idx], self.attributes[idx],
                       rows=self.rows[idx])

    def __iter__(self):
        columns = (self.labels.tolist(), self.groups.tolist(), self.attributes.tolist())
        return (Sample(self.pixels[r], *row) for r, *row in zip(self.rows.tolist(), *columns))


@dataclass
class SynthConfig:
    n_samples: int = 2000
    channels: int = 1
    height: int = 16
    width: int = 16
    n_classes: int = 4
    threshold: float = 0.5
    class_priors: tuple = ((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4))
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "channels", "height", "width", "n_classes"):
            check_int(f"synth {name}", getattr(self, name))
        check_int("synth seed", self.seed, low=0)
        sigma = self.noise_sigma
        if not (is_real(sigma) and np.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"synth noise_sigma must be finite and >= 0, got {sigma!r}")
        priors = np.asarray(self.class_priors)
        if priors.dtype.kind not in "iuf":  # strings, bools and None are not priors
            raise ValueError(f"class_priors must be numbers, got {self.class_priors!r}")
        if priors.shape != (N_GROUPS, self.n_classes):
            raise ValueError(
                f"class_priors must be {N_GROUPS} x {self.n_classes}, got shape {priors.shape}"
            )
        if np.any(priors < 0) or np.max(np.abs(priors.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("each group's class priors must be a distribution")
        if not (is_real(self.threshold) and 0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold!r}")


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
    """Draw a ``Dataset`` from the config; identical config+seed is bit-identical.

    The stream is that of a per-sample loop of ``rng.choice(K, p=prior)``
    and ``rng.uniform(lo, hi, (C, H, W))``, taken one ``rng.random`` block
    per ``CHUNK`` samples.
    """
    rng = np.random.default_rng(config.seed)
    low, high = class_templates(config)
    n, shape = config.n_samples, low.shape[1:]
    t = rng.uniform(0.0, 1.0, size=n)
    groups = (t >= config.threshold).astype(np.intp)
    cdf = np.cumsum(np.asarray(config.class_priors, dtype=np.float64), axis=1)
    cdf /= cdf[:, -1:]
    lo, hi = -config.noise_sigma, config.noise_sigma
    labels = np.empty(n, dtype=np.intp)
    images = np.empty((n, *shape))
    for start in range(0, n, CHUNK):
        rows = slice(start, min(start + CHUNK, n))
        u = rng.random((rows.stop - start, 1 + low[0].size))
        # choice's cdf.searchsorted(u, side="right"), and uniform's lo + (hi - lo) * u
        labels[rows] = (u[:, :1] >= cdf[groups[rows]]).sum(axis=1)
        y, tt = labels[rows], t[rows, None, None, None]
        base = (1.0 - tt) * low[y] + tt * high[y]
        noise = lo + (hi - lo) * u[:, 1:].reshape(-1, *shape)
        np.clip(gain(tt) * base + noise, 0.0, 1.0, out=images[rows])
    return Dataset(images, labels, groups, t), GroupStats.from_labels(groups, m=N_GROUPS)


# ---- on-disk format ------------------------------------------------------


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the failing byte offset."""


def record_dtype(c, h, w):
    """One ``FMDS`` sample record, packed little-endian; n of them follow the header."""
    return np.dtype(
        [("attribute", "<f8"), ("label", "<u2"), ("group", "<u2"), ("image", "<f8", (c, h, w))]
    )


def save(ds, dirpath):
    """Write ``data.fmds`` and ``manifest.csv``.

    Before writing, names the first sample whose label the ``<u2`` field
    cannot hold (``OverflowError``) or whose group ``load`` would refuse
    (``ValueError``).
    """
    for name, limit, error in (("label", 2**16, OverflowError), ("group", N_GROUPS, ValueError)):
        values = getattr(ds, name + "s")
        bad = np.flatnonzero((values < 0) | (values >= limit))
        if bad.size:
            i = bad[0]
            raise error(f"sample {i} has {name} {values[i]}, not in [0, {limit})")
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    c, h, w = ds.pixels.shape[1:]
    records = np.empty(len(ds), dtype=record_dtype(c, h, w))
    records["attribute"] = ds.attributes
    records["label"] = ds.labels
    records["group"] = ds.groups
    records["image"] = ds.images()
    with open(dirpath / "data.fmds", "wb") as f:
        f.write(FMDS_HEADER.pack(MAGIC, VERSION, len(ds), c, h, w))
        f.write(records.tobytes())
    with open(dirpath / "manifest.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "label", "group", "t"])
        writer.writerows(zip(range(len(ds)), ds.labels.tolist(), ds.groups.tolist(),
                             map(repr, ds.attributes.tolist())))


def load(dirpath):
    dirpath = Path(dirpath)
    path = dirpath / "data.fmds"
    raw, head = path.read_bytes(), FMDS_HEADER.size
    if len(raw) < head:
        raise DatasetFormatError(
            f"{path}: truncated inside the {head}-byte header at byte {len(raw)}"
        )
    magic, version, n, c, h, w = FMDS_HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r} at byte 0")
    if version != VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version} at byte 4")
    size = record_dtype(0, 0, 0).itemsize + 8 * c * h * w  # the fixed fields, then pixels
    whole = (len(raw) - head) // size
    if whole < n:
        raise DatasetFormatError(
            f"{path}: truncated while reading sample {whole} at byte {head + whole * size}"
        )
    end = head + n * size
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
        return Dataset(np.empty((0, c, h, w)), [], [], [])
    if max(c, h, w) >= 2**31:  # a dtype's shape holds C ints; only pixel-free images get here
        raise DatasetFormatError(f"{path}: image shape {(c, h, w)} too large at byte 10")

    records = np.frombuffer(raw, record_dtype(c, h, w), n, head)
    bad = np.flatnonzero(records["group"] >= N_GROUPS)
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(
            f"{path}: sample {i} has group {records['group'][i]}, not in [0, {N_GROUPS}), "
            f"at byte {head + i * size + records.dtype.fields['group'][1]}"
        )
    return Dataset(records["image"].copy(), records["label"], records["group"],
                   records["attribute"].copy())


def split(ds, train_fraction, seed):
    """Deterministic split stratified by (group, class); disjoint and exhaustive.

    One ``rng.permutation`` per stratum, in sorted (group, class) order;
    both parts keep ``ds``'s row order and share its pixels.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = np.lexsort((ds.labels, ds.groups))  # stable: by (group, class), then by row
    g, y = ds.groups[order], ds.labels[order]
    members = np.split(order, np.flatnonzero((np.diff(g) != 0) | (np.diff(y) != 0)) + 1)

    exact = [train_fraction * len(idx) for idx in members]
    quota = [int(np.floor(e)) for e in exact]
    short = round(train_fraction * len(ds)) - sum(quota)
    remainders = sorted(((e - q, k) for k, (e, q) in enumerate(zip(exact, quota))), reverse=True)
    for _, k in remainders[:short]:
        quota[k] += 1

    in_train = np.zeros(len(ds), dtype=bool)
    for idx, take in zip(members, quota):
        in_train[idx[rng.permutation(len(idx))[:take]]] = True
    return ds[np.flatnonzero(in_train)], ds[np.flatnonzero(~in_train)]


def stack(ds):
    """(images (N,C,H,W), labels, groups, attributes): images gathered, columns as they are."""
    return ds.images(), ds.labels, ds.groups, ds.attributes
