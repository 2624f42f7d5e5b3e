import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmoe import data as dm
from fairmoe.data import DatasetFormatError, SynthConfig, generate, load, save, split
from reference_data import generate_rows, split_indices


def datasets_equal(a, b):
    if len(a) != len(b):
        return False
    for s, t in zip(a, b):
        if s.image.tobytes() != t.image.tobytes():
            return False
        if (s.label, s.group) != (t.label, t.group) or s.attribute != t.attribute:
            return False
    return True


def test_generation_is_deterministic():
    cfg = SynthConfig(n_samples=200, seed=11)
    a, _ = generate(cfg)
    b, _ = generate(cfg)
    assert datasets_equal(a, b)


def test_group_fraction_near_threshold():
    samples, stats = generate(SynthConfig(n_samples=10_000, seed=1))
    frac0 = np.mean([s.group == 0 for s in samples])
    assert abs(frac0 - 0.5) < 0.015
    assert stats.sizes.sum() == 10_000


def test_boundary_band_mass():
    cfg = SynthConfig(n_samples=10_000, seed=2)
    samples, _ = generate(cfg)
    in_band = np.mean([abs(s.attribute - 0.5) < 0.1 for s in samples])
    assert abs(in_band - 0.2) < 0.012


def test_group_label_is_pure_function_of_attribute():
    samples, _ = generate(SynthConfig(n_samples=500, seed=3))
    for s in samples:
        assert s.group == (0 if s.attribute < 0.5 else 1)


def test_pixels_in_unit_interval():
    samples, _ = generate(SynthConfig(n_samples=100, seed=4))
    for s in samples:
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


@pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_threshold_outside_the_unit_interval_rejected(threshold):
    with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\)"):
        SynthConfig(threshold=threshold)


@pytest.mark.parametrize("field, value, rule", [
    ("n_samples", 2.5, "an int >= 1"), ("n_samples", 0, "an int >= 1"),
    ("channels", 0, "an int >= 1"), ("height", 1.5, "an int >= 1"),
    ("width", True, "an int >= 1"), ("n_classes", 4.0, "an int >= 1"),
    ("seed", -1, "an int >= 0"), ("seed", 0.5, "an int >= 0"),
    ("noise_sigma", -1.0, "finite and >= 0"), ("noise_sigma", float("nan"), "finite and >= 0"),
    ("noise_sigma", float("inf"), "finite and >= 0"),
])
def test_synth_config_rejects_bad_values(field, value, rule):
    with pytest.raises(ValueError, match=f"synth {field} must be {rule}, got {value!r}"):
        SynthConfig(**{field: value})


def test_invalid_priors_rejected():
    with pytest.raises(ValueError, match="distribution"):
        SynthConfig(class_priors=((0.5, 0.5, 0.5, 0.5), (0.25, 0.25, 0.25, 0.25)))


def test_roundtrip_bit_exact(tmp_path):
    samples, _ = generate(SynthConfig(n_samples=60, seed=5))
    save(samples, tmp_path / "d")
    assert datasets_equal(load(tmp_path / "d"), samples)


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_random_configs(tmp_path, seed):
    rng = np.random.default_rng(seed)
    cfg = SynthConfig(
        n_samples=int(rng.integers(5, 40)),
        height=int(rng.integers(6, 20)),
        width=int(rng.integers(6, 20)),
        noise_sigma=float(rng.uniform(0.01, 0.3)),
        seed=seed,
    )
    samples, _ = generate(cfg)
    save(samples, tmp_path / f"d{seed}")
    assert datasets_equal(load(tmp_path / f"d{seed}"), samples)


def test_corrupted_magic_rejected(tmp_path):
    samples, _ = generate(SynthConfig(n_samples=5, seed=6))
    save(samples, tmp_path / "d")
    path = tmp_path / "d" / "data.fmds"
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="magic"):
        load(tmp_path / "d")


def test_truncation_reports_position(tmp_path):
    samples, _ = generate(SynthConfig(n_samples=5, seed=7))
    save(samples, tmp_path / "d")
    path = tmp_path / "d" / "data.fmds"
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(DatasetFormatError, match="byte"):
        load(tmp_path / "d")


def test_manifest_row_count_mismatch_rejected(tmp_path):
    samples, _ = generate(SynthConfig(n_samples=5, seed=8))
    save(samples, tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DatasetFormatError, match="manifest"):
        load(tmp_path / "d")


@pytest.fixture
def small_fmds(tmp_path):
    """A saved 3-sample, 1x4x4 dataset: (directory, data.fmds bytes)."""
    samples, _ = generate(SynthConfig(n_samples=3, height=4, width=4, seed=14))
    save(samples, tmp_path / "d")
    return tmp_path / "d", (tmp_path / "d" / "data.fmds").read_bytes()


def _load_or_format_error(dirpath, raw):
    """Loads ``raw`` as data.fmds; only DatasetFormatError or groups in {0, 1} may come back."""
    (dirpath / "data.fmds").write_bytes(raw)
    try:
        samples = load(dirpath)
    except DatasetFormatError:
        return False
    assert {s.group for s in samples} <= {0, 1}
    return True


def test_every_dataset_truncation_raises_format_error(small_fmds):
    dirpath, raw = small_fmds
    assert _load_or_format_error(dirpath, raw)
    for cut in range(len(raw)):
        assert not _load_or_format_error(dirpath, raw[:cut]), f"cut at byte {cut} loaded"


def test_dataset_single_byte_mutations_raise_only_format_error(small_fmds):
    dirpath, raw = small_fmds
    for pos in range(len(raw)):
        for flip in (0x01, 0x02, 0x80, 0xFF):
            mutated = bytearray(raw)
            mutated[pos] ^= flip
            _load_or_format_error(dirpath, bytes(mutated))  # may load: most bytes are pixels


def test_dataset_group_out_of_range_names_sample_and_byte(small_fmds):
    dirpath, raw = small_fmds
    group_at = 22 + (12 + 8 * 16) + 10  # sample 1's group field
    mutated = bytearray(raw)
    mutated[group_at] = 2
    (dirpath / "data.fmds").write_bytes(bytes(mutated))
    with pytest.raises(DatasetFormatError, match=f"sample 1 has group 2.*byte {group_at}"):
        load(dirpath)


def test_header_only_dataset_loads_whatever_its_image_shape(tmp_path):
    (tmp_path / "data.fmds").write_bytes(dm.MAGIC + struct.pack("<H4I", 1, 0, 2**31, 4, 4))
    assert len(load(tmp_path)) == 0


def test_pixel_free_image_with_huge_dimension_raises_format_error(tmp_path):
    header = dm.MAGIC + struct.pack("<H4I", 1, 1, 2**31, 0, 4)
    (tmp_path / "data.fmds").write_bytes(header + struct.pack("<d2H", 0.5, 0, 0))
    with pytest.raises(DatasetFormatError, match="image shape.*byte 10"):
        load(tmp_path)


def test_save_writes_the_struct_packed_record_layout(tmp_path):
    samples, _ = generate(SynthConfig(n_samples=6, channels=2, height=5, width=7, seed=2))
    save(samples, tmp_path / "d")
    ref = dm.MAGIC + struct.pack("<H4I", 1, 6, 2, 5, 7)
    for s in samples:
        ref += struct.pack("<d2H", s.attribute, s.label, s.group) + s.image.astype("<f8").tobytes()
    assert (tmp_path / "d" / "data.fmds").read_bytes() == ref
    back = load(tmp_path / "d")
    assert datasets_equal(back, samples)
    assert all(type(s.label) is int and type(s.group) is int and type(s.attribute) is float
               for s in back)


@pytest.mark.parametrize("label", [np.int64(70000), -1])
def test_save_rejects_label_outside_u16(tmp_path, label):
    samples, _ = generate(SynthConfig(n_samples=3, height=4, width=4, seed=2))
    samples.labels[1] = label
    with pytest.raises((OverflowError, struct.error)):
        save(samples, tmp_path / "d")


@pytest.mark.parametrize("label", [70000, -1])
def test_save_names_the_sample_whose_label_overflows(tmp_path, label):
    samples, _ = generate(SynthConfig(n_samples=4, height=4, width=4, seed=2))
    samples.labels[2] = label
    with pytest.raises(OverflowError, match=f"sample 2 has label {label}, not in \\[0, 65536\\)"):
        save(samples, tmp_path / "d")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("group", [2, -1])
def test_save_rejects_group_that_load_would_refuse(tmp_path, group):
    samples, _ = generate(SynthConfig(n_samples=4, height=4, width=4, seed=2))
    samples.groups[3] = group
    with pytest.raises(ValueError, match=f"sample 3 has group {group}, not in \\[0, 2\\)"):
        save(samples, tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_manifest_blank_rows_do_not_count(tmp_path):
    samples, _ = generate(SynthConfig(n_samples=5, seed=8))
    save(samples, tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.csv"
    manifest.write_text(manifest.read_text() + "\r\n\r\n")
    assert datasets_equal(load(tmp_path / "d"), samples)


def test_split_sizes():
    samples, _ = generate(SynthConfig(n_samples=1000, seed=9))
    train, test = split(samples, 0.8, seed=0)
    assert len(train) == 800 and len(test) == 200


def test_split_is_stratified_within_one_sample():
    samples, _ = generate(SynthConfig(n_samples=1000, seed=10))
    train, _ = split(samples, 0.8, seed=0)

    def counts(ds):
        c = {}
        for s in ds:
            c[(s.group, s.label)] = c.get((s.group, s.label), 0) + 1
        return c

    all_c, train_c = counts(samples), counts(train)
    for key, total in all_c.items():
        assert abs(train_c.get(key, 0) - 0.8 * total) <= 1.0


def test_split_deterministic_disjoint_exhaustive():
    samples, _ = generate(SynthConfig(n_samples=300, seed=12))
    t1, e1 = split(samples, 0.7, seed=5)
    t2, e2 = split(samples, 0.7, seed=5)
    assert datasets_equal(t1, t2) and datasets_equal(e1, e2)
    ids = lambda ds: set(ds.rows.tolist())
    assert ids(t1).isdisjoint(ids(e1))
    assert len(t1) + len(e1) == len(samples)


def test_split_rejects_bad_fraction():
    samples, _ = generate(SynthConfig(n_samples=10, seed=13))
    with pytest.raises(ValueError):
        split(samples, 1.0, seed=0)


def test_group_conditional_distribution_shift():
    # a nearest-prototype probe per group: near-perfect in-group, but the
    # opposite group's probe degrades in the transition band
    samples, _ = generate(SynthConfig(n_samples=4000, seed=3))
    images, labels, groups, attrs = dm.stack(samples)

    def probe(mask):
        protos = np.stack([images[mask & (labels == y)].mean(axis=0) for y in range(4)])

        def classify(imgs):
            d = ((imgs[:, None] - protos[None]) ** 2).sum(axis=(2, 3, 4))
            return np.argmin(d, axis=1)

        return classify

    worst_cross_band = 1.0
    for g in (0, 1):
        clf = probe(groups == g)
        own = groups == g
        assert np.mean(clf(images[own]) == labels[own]) >= 0.9
        other_band = (groups == 1 - g) & (np.abs(attrs - 0.5) < 0.1)
        worst_cross_band = min(
            worst_cross_band, np.mean(clf(images[other_band]) == labels[other_band])
        )
        # far side of the opposite group: the shifted rendering misleads badly
        other_far = (groups == 1 - g) & (np.abs(attrs - 0.5) >= 0.25)
        assert np.mean(clf(images[other_far]) == labels[other_far]) < 0.5
    assert worst_cross_band < 0.9


# ---- the columnar Dataset against the per-sample reference -------------


@st.composite
def synth_configs(draw):
    k = draw(st.integers(2, 6))
    weights = st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any)
    priors = [draw(weights) for _ in range(2)]
    threshold = draw(st.floats(0.05, 0.95))
    return SynthConfig(
        n_samples=draw(st.integers(1, 2 * dm.CHUNK + 40)),
        channels=draw(st.integers(1, 3)),
        height=draw(st.integers(1, 9)),
        width=draw(st.integers(1, 9)),
        n_classes=k,
        threshold=threshold,
        class_priors=tuple(tuple(np.divide(p, sum(p)).tolist()) for p in priors),
        noise_sigma=draw(st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=synth_configs(), fraction=st.floats(0.01, 0.99), split_seed=st.integers(0, 2**32 - 1))
@example(cfg=SynthConfig(n_samples=dm.CHUNK - 1, seed=4), fraction=0.8, split_seed=0)
@example(cfg=SynthConfig(n_samples=2 * dm.CHUNK + 7, channels=2, height=9, width=13, seed=5),
         fraction=0.33, split_seed=1)
def test_generate_and_split_equal_the_per_sample_reference(cfg, fraction, split_seed):
    rows = generate_rows(cfg)
    if len({r[2] for r in rows}) < 2:  # GroupStats needs both groups, then as now
        with pytest.raises(ValueError, match="group sizes must be positive"):
            generate(cfg)
        return
    ds, stats = generate(cfg)
    assert ds.pixels.dtype == np.float64
    assert ds.pixels.tobytes() == np.stack([r[0] for r in rows]).tobytes()
    assert ds.pixels.shape == (cfg.n_samples, cfg.channels, cfg.height, cfg.width)
    assert ds.labels.tolist() == [r[1] for r in rows]
    assert ds.groups.tolist() == [r[2] for r in rows]
    assert ds.attributes.tolist() == [r[3] for r in rows]
    assert (ds.labels.dtype, ds.groups.dtype) == (np.intp, np.intp)
    assert stats.sizes.tolist() == np.bincount(ds.groups, minlength=2).tolist()

    train, test = split(ds, fraction, split_seed)
    want_train, want_test = split_indices(ds.labels.tolist(), ds.groups.tolist(), fraction,
                                          split_seed)
    assert (train.rows.tolist(), test.rows.tolist()) == (want_train, want_test)
    assert train.pixels is ds.pixels and test.pixels is ds.pixels
    assert train.labels.tolist() == ds.labels[want_train].tolist()


@pytest.fixture
def small_ds():
    return generate(SynthConfig(n_samples=30, height=5, width=6, seed=21))[0]


def test_int_index_returns_a_sample_row_with_python_types(small_ds):
    for i in (0, 7, -1, np.int64(4)):
        row = small_ds[i]
        assert isinstance(row, dm.Sample)
        assert type(row.label) is int and type(row.group) is int and type(row.attribute) is float
        assert (row.label, row.group, row.attribute) == (
            small_ds.labels[i], small_ds.groups[i], small_ds.attributes[i])
        assert row.image.tobytes() == small_ds.pixels[small_ds.rows[i]].tobytes()


def test_slices_and_index_arrays_return_datasets_sharing_the_pixels(small_ds):
    for idx in (slice(3, 20, 2), np.array([9, 0, 4, 4]), small_ds.groups == 1):
        sub = small_ds[idx]
        assert isinstance(sub, dm.Dataset) and np.shares_memory(sub.pixels, small_ds.pixels)
        assert sub.rows.tolist() == np.arange(len(small_ds))[idx].tolist()
        images, labels, groups, attrs = dm.stack(sub)
        assert images.tobytes() == small_ds.pixels[idx].tobytes()
        assert labels.tolist() == small_ds.labels[idx].tolist()
        assert groups.tolist() == small_ds.groups[idx].tolist()
        assert attrs.tolist() == small_ds.attributes[idx].tolist()


def test_iteration_yields_the_rows_in_order(small_ds):
    rows = list(small_ds[5:12])
    assert len(rows) == 7
    for i, row in enumerate(rows, start=5):
        want = small_ds[i]
        assert row.image.tobytes() == want.image.tobytes() and row[1:] == want[1:]
        assert type(row.label) is int and type(row.attribute) is float


def test_nested_slices_of_a_split_compose_their_rows(small_ds):
    train, test = split(small_ds, 0.7, seed=2)
    sub = train[2:15][::3][np.array([3, 0])]
    want = train.rows[2:15][::3][[3, 0]]
    assert sub.rows.tolist() == want.tolist() and np.shares_memory(sub.pixels, small_ds.pixels)
    assert dm.stack(sub)[0].tobytes() == np.stack([small_ds[i].image for i in want]).tobytes()
    assert sub.labels.tolist() == small_ds.labels[want].tolist()
    assert set(train.rows.tolist()).isdisjoint(test.rows.tolist())
