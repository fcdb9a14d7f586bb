import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdus.data import (LabeledDataset, export_manifest, gen_blobs,
                       load_idx_files, parse_idx, partition_noniid,
                       split_reference)
from hdus.errors import CapacityError, ConfigError, ParseError


def make_idx(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    n, rows, cols = images.shape
    img = struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()
    lab = struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes()
    return img, lab


@pytest.fixture
def tiny_idx():
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 3, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
    return make_idx(images, labels), images, labels


def test_parse_idx_roundtrip(tiny_idx):
    (img, lab), images, labels = tiny_idx
    ds = parse_idx(img, lab, class_count=3)
    assert ds.features.shape == (6, 9)
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.features, images.reshape(6, 9) / 255.0)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert ds.scaling == "pixel/255"


def test_parse_idx_gzip_transparent(tiny_idx):
    (img, lab), _, labels = tiny_idx
    ds = parse_idx(gzip.compress(img), gzip.compress(lab), class_count=3)
    assert np.array_equal(ds.labels, labels)


def test_parse_idx_rejects_bad_magic(tiny_idx):
    (img, lab), _, _ = tiny_idx
    with pytest.raises(ParseError) as e:
        parse_idx(b"\x00\x00\x08\x04" + img[4:], lab)
    assert e.value.offset == 0
    with pytest.raises(ParseError):
        parse_idx(img, b"\x00\x00\x08\x02" + lab[4:])


def test_parse_idx_rejects_truncation_and_count_mismatch(tiny_idx):
    (img, lab), _, _ = tiny_idx
    with pytest.raises(ParseError):
        parse_idx(img[:-1], lab)
    with pytest.raises(ParseError):
        parse_idx(img, lab[:-1])
    short = struct.pack(">II", 0x801, 5) + lab[8:13]
    with pytest.raises(ParseError) as e:
        parse_idx(img, short)
    assert e.value.offset == 4


def test_parse_idx_rejects_out_of_range_label(tiny_idx):
    (img, lab), _, _ = tiny_idx
    with pytest.raises(ParseError) as e:
        parse_idx(img, lab, class_count=2)
    # first offending label (value 2) is at row 2 => byte offset 8 + 2
    assert e.value.offset == 10


def test_parse_idx_rejects_bad_gzip(tiny_idx):
    (img, lab), _, _ = tiny_idx
    gz = gzip.compress(img)
    corrupt = gz[:12] + bytes([gz[12] ^ 0xFF]) + gz[13:]
    for bad in (corrupt, gz[:-6], b"\x1f\x8b junk"):
        with pytest.raises(ParseError, match="images: bad gzip stream"):
            parse_idx(bad, lab, class_count=3)
    with pytest.raises(ParseError, match="labels: bad gzip stream"):
        parse_idx(img, gzip.compress(lab)[:-1], class_count=3)


def test_parse_idx_rejects_zero_counts():
    for shape, what, offset in (((0, 3, 3), "image count", 4),
                                ((2, 0, 3), "row count", 8),
                                ((2, 3, 0), "column count", 12)):
        img, lab = make_idx(np.zeros(shape), np.arange(shape[0]))
        with pytest.raises(ParseError, match=f"{what} is 0") as e:
            parse_idx(img, lab, class_count=3)
        assert e.value.offset == offset


# --- IDX fuzzing: one documented error ---------------------------------------

_FUZZ_RNG = np.random.default_rng(3)
_FUZZ_PAIR = make_idx(_FUZZ_RNG.integers(0, 256, size=(4, 2, 3)),
                      np.array([0, 2, 1, 2]))


def _fuzz_pair(which, gz):
    pair = [gzip.compress(b, mtime=0) if gz else b for b in _FUZZ_PAIR]
    return pair, pair[which]


def _parses_or_parse_error(pair):
    try:
        ds = parse_idx(*pair, class_count=3)
    except ParseError:
        return
    assert ds.features.shape[0] >= 1 and ds.features.shape[1] >= 1


@settings(max_examples=80, deadline=None)
@given(which=st.sampled_from([0, 1]), gz=st.booleans(), data=st.data())
def test_fuzz_idx_single_byte_change(which, gz, data):
    pair, buf = _fuzz_pair(which, gz)
    pos = data.draw(st.integers(0, len(buf) - 1), label="pos")
    flip = data.draw(st.integers(1, 255), label="flip")
    changed = bytearray(buf)
    changed[pos] ^= flip
    pair[which] = bytes(changed)
    _parses_or_parse_error(pair)


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from([0, 1]), gz=st.booleans(), data=st.data())
def test_fuzz_idx_truncation(which, gz, data):
    pair, buf = _fuzz_pair(which, gz)
    pair[which] = buf[:data.draw(st.integers(0, len(buf) - 1), label="length")]
    _parses_or_parse_error(pair)


def test_load_idx_files(tmp_path, tiny_idx):
    (img, lab), _, labels = tiny_idx
    (tmp_path / "img").write_bytes(img)
    (tmp_path / "lab").write_bytes(lab)
    ds = load_idx_files(tmp_path / "img", tmp_path / "lab", class_count=3)
    assert np.array_equal(ds.labels, labels)


# --- blobs ------------------------------------------------------------------

def test_gen_blobs_class_balance_and_scaling():
    ds = gen_blobs(37, 5, 8, 0.5, np.random.default_rng(3))
    assert len(ds) == 37 * 5
    counts = np.bincount(ds.labels, minlength=5)
    assert np.array_equal(counts, np.full(5, 37))
    assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(ds.features.std(axis=0), 1.0, atol=1e-10)
    assert ds.scaling == "standardized"


def test_gen_blobs_separable_when_tight():
    """At small spread a nearest-mean rule should be near-perfect, so the
    clusters really are distinct."""
    ds = gen_blobs(50, 4, 6, 0.1, np.random.default_rng(4))
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
    d = ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == ds.labels).mean() >= 0.99


def test_gen_blobs_deterministic():
    a = gen_blobs(20, 3, 5, 0.7, np.random.default_rng(11))
    b = gen_blobs(20, 3, 5, 0.7, np.random.default_rng(11))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_gen_blobs_multi_component_counts():
    ds = gen_blobs(25, 4, 8, 0.3, np.random.default_rng(5), components_per_class=3)
    assert np.array_equal(np.bincount(ds.labels), np.full(4, 25))


def test_gen_blobs_rejects_overfull_grid():
    with pytest.raises(ConfigError):
        gen_blobs(10, 4, 2, 0.5, np.random.default_rng(0), components_per_class=2)


# --- reference carve-out ----------------------------------------------------

def test_split_reference_disjoint_and_sealed():
    ds = gen_blobs(30, 3, 5, 0.5, np.random.default_rng(6))
    ref, rest = split_reference(ds, 20, np.random.default_rng(7))
    assert ref.features.shape == (20, 5)
    assert ref.sealed_labels.shape == (20,)
    assert len(rest) == len(ds) - 20
    # every reference row exists in the source, none in the remainder
    src = {tuple(r) for r in ds.features}
    rest_rows = {tuple(r) for r in rest.features}
    for r in ref.features:
        assert tuple(r) in src
        assert tuple(r) not in rest_rows


def test_split_reference_too_large():
    ds = gen_blobs(5, 3, 5, 0.5, np.random.default_rng(6))
    with pytest.raises(CapacityError):
        split_reference(ds, len(ds), np.random.default_rng(0))


# --- non-IID partition ------------------------------------------------------

@pytest.fixture(scope="module")
def partition():
    ds = gen_blobs(120, 10, 6, 0.5, np.random.default_rng(20))
    part = partition_noniid(ds, 5, 100, 0.2, np.random.default_rng(21))
    return ds, part


def test_partition_disjoint_and_covering(partition):
    ds, part = partition
    groups = [set(map(int, ci)) for ci in part.client_indices]
    groups.append(set(map(int, part.test_indices)))
    groups.append(set(map(int, part.reference_indices)))
    total = sum(len(g) for g in groups)
    union = set().union(*groups)
    assert total == len(union) == len(ds)      # pairwise disjoint, full cover


def test_partition_sizes(partition):
    ds, part = partition
    assert part.reference_indices.size == 100
    pool = len(ds) - 100
    assert part.test_indices.size == round(0.2 * pool)
    sizes = [len(s) for s in part.client_splits]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == pool - part.test_indices.size


def test_partition_omits_one_distinct_class_each(partition):
    _, part = partition
    assert len(set(part.omitted_class)) == part.n_clients
    for split, omitted, menu in zip(part.client_splits, part.omitted_class,
                                    part.class_menu):
        assert omitted not in split.labels
        assert omitted not in menu
        assert set(np.unique(split.labels)) <= menu


def test_partition_deterministic():
    ds = gen_blobs(60, 6, 6, 0.5, np.random.default_rng(30))
    a = partition_noniid(ds, 4, 40, 0.2, np.random.default_rng(31))
    b = partition_noniid(ds, 4, 40, 0.2, np.random.default_rng(31))
    for x, y in zip(a.client_indices, b.client_indices):
        assert np.array_equal(x, y)
    assert np.array_equal(a.test_indices, b.test_indices)
    assert np.array_equal(a.reference_indices, b.reference_indices)
    assert a.omitted_class == b.omitted_class


def test_partition_more_clients_than_classes_rejected():
    ds = gen_blobs(30, 3, 5, 0.5, np.random.default_rng(8))
    with pytest.raises(ConfigError):
        partition_noniid(ds, 4, 10, 0.2, np.random.default_rng(0))


def test_partition_n_equals_c_boundary():
    """n_clients == class_count works: every class is omitted by exactly one."""
    ds = gen_blobs(80, 4, 6, 0.5, np.random.default_rng(9))
    part = partition_noniid(ds, 4, 20, 0.2, np.random.default_rng(10))
    assert sorted(part.omitted_class) == [0, 1, 2, 3]
    sizes = [len(s) for s in part.client_splits]
    assert max(sizes) - min(sizes) <= 1


def test_export_manifest_roundtrip(tmp_path, partition):
    _, part = partition
    path = tmp_path / "manifest.tsv"
    export_manifest(part, path)
    lines = path.read_text().splitlines()
    assert len(lines) == part.n_clients + 2
    tag, rows = lines[0].split("\t")
    assert tag == "client_0"
    assert np.array_equal(np.array(list(map(int, rows.split()))),
                          part.client_indices[0])
    assert lines[-1].startswith("reference\t")


def test_labeled_dataset_validation():
    with pytest.raises(ConfigError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 5]), class_count=3)
    with pytest.raises(ConfigError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), class_count=3)
