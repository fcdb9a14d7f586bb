import gzip
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hdus.data import (MAX_BLOB_ENTRIES, LabeledDataset, check_blobs,
                       gen_blobs, load_idx_files, parse_idx, partition_noniid)
from hdus.distill import ReferenceSet
from hdus.errors import ConfigError, DimensionError, DomainError, ParseError


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
    assert ds.image_shape == (3, 3)
    assert ds.take(np.array([1, 4])).image_shape == (3, 3)


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


def test_blob_pool_bound():
    """A pool of at most MAX_BLOB_ENTRIES float64 entries passes; one row
    more is keyed blob_samples_per_class, and gen_blobs raises it before it
    draws anything."""
    check_blobs(2, MAX_BLOB_ENTRIES // 8, 4, 1, 0.5)
    for per_class in (MAX_BLOB_ENTRIES // 8 + 1, 10**12):
        with pytest.raises(ConfigError, match="^blob_samples_per_class: "):
            check_blobs(2, per_class, 4, 1, 0.5)
    with pytest.raises(ConfigError, match=f"^blob_samples_per_class: a pool of "
                       f"20 rows x {MAX_BLOB_ENTRIES} features exceeds the limit "
                       f"of {MAX_BLOB_ENTRIES} float64 entries"):
        gen_blobs(10, 2, MAX_BLOB_ENTRIES, 0.5, np.random.default_rng(0))


def test_blob_grid_bound_names_a_cluster_count_too_long_to_write():
    """4,300 digits of blob_components still read, but times blob_classes
    the cluster count is too long for int -> str: the error bounds it."""
    with pytest.raises(ConfigError, match=f"^blob_features: a grid of 20 features holds "
                       f"380 clusters, but blob_components x blob_classes = over "
                       f"{MAX_BLOB_ENTRIES}$"):
        check_blobs(10, 475, 20, int("9" * 4300), 0.6)


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


def test_partition_reference_unlabeled(partition):
    """The reference set is the carved-out rows' features and nothing else."""
    ds, part = partition
    assert [f.name for f in fields(part.reference)] == ["features"]   # no labels travel
    assert np.array_equal(part.reference.features, ds.features[part.reference_indices])


def test_partition_reference_too_large():
    ds = gen_blobs(5, 3, 5, 0.5, np.random.default_rng(6))
    with pytest.raises(ConfigError, match="^ref_size: "):
        partition_noniid(ds, 2, len(ds), 0.2, np.random.default_rng(0))


def test_partition_omits_one_distinct_class_each(partition):
    _, part = partition
    assert len(set(part.omitted_class)) == part.n_clients
    for split, omitted in zip(part.client_splits, part.omitted_class):
        menu = set(range(part.test.class_count)) - {omitted}
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
    with pytest.raises(ConfigError, match="^n_clients: 4 exceeds the 3 classes$"):
        partition_noniid(ds, 4, 10, 0.2, np.random.default_rng(0))


def test_partition_lone_client_rejected():
    """A lone client omits one class and has no donor for those rows."""
    ds = gen_blobs(30, 3, 5, 0.5, np.random.default_rng(8))
    with pytest.raises(ConfigError, match="n_clients"):
        partition_noniid(ds, 1, 10, 0.2, np.random.default_rng(0))


def test_partition_n_equals_c_boundary():
    """n_clients == class_count works: every class is omitted by exactly one."""
    ds = gen_blobs(80, 4, 6, 0.5, np.random.default_rng(9))
    part = partition_noniid(ds, 4, 20, 0.2, np.random.default_rng(10))
    assert sorted(part.omitted_class) == [0, 1, 2, 3]
    sizes = [len(s) for s in part.client_splits]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("classes,clients,rows,seed", [
    (3, 2, 23, 0), (3, 3, 20, 2), (4, 4, 40, 2), (10, 9, 23, 0),
    (3, 2, 57, 2), (4, 2, 40, 4)])
def test_partition_repair_keeps_invariants(classes, clients, rows, seed):
    """Inputs whose dealing leaves one client short (by two rows, for the last
    two): the repair pass swaps rows of its omitted class through donors."""
    ds = LabeledDataset(np.zeros((rows, 1)), np.arange(rows) % classes, classes)
    part = partition_noniid(ds, clients, rows // 10, 0.2, np.random.default_rng(seed))
    groups = [set(map(int, ci)) for ci in part.client_indices]
    groups += [set(map(int, part.test_indices)), set(map(int, part.reference_indices))]
    assert sum(len(g) for g in groups) == len(set().union(*groups)) == rows
    sizes = [len(s) for s in part.client_splits]
    assert max(sizes) - min(sizes) <= 1
    for split, omitted in zip(part.client_splits, part.omitted_class):
        assert omitted not in split.labels


def _numpy_scalar_deal(data, n_clients, ref_size, test_fraction, rng):
    """partition_noniid's client splits as first written, dealing on numpy
    scalars: the oracle for its plain-int deal. Returns the sorted splits and
    whether the repair pass had rows to place, or None if splits stay short."""
    ref_idx = np.sort(rng.choice(len(data), size=ref_size, replace=False))
    mask = np.ones(len(data), dtype=bool)
    mask[ref_idx] = False
    pool = np.flatnonzero(mask)
    test_n = int(round(test_fraction * pool.size))
    test_mask = np.zeros(pool.size, dtype=bool)
    test_mask[rng.choice(pool.size, size=test_n, replace=False)] = True
    train_pool = pool[~test_mask]
    sigma = rng.permutation(data.class_count)
    omitted = [int(sigma[i]) for i in range(n_clients)]
    m = train_pool.size
    need = np.full(n_clients, m // n_clients, dtype=np.int64)
    need[: m % n_clients] += 1
    order = rng.permutation(m)
    assigned = [[] for _ in range(n_clients)]
    leftover = []
    labels = data.labels
    for row in train_pool[order]:
        lab = labels[row]
        best, best_need = -1, 0
        for i in range(n_clients):
            if lab != omitted[i] and need[i] > best_need:
                best, best_need = i, need[i]
        if best >= 0:
            assigned[best].append(int(row))
            need[best] -= 1
        else:
            leftover.append(int(row))
    repaired = bool(leftover)
    for i in range(n_clients):
        if need[i] == 0:
            continue
        for row in list(leftover):
            if need[i] == 0:
                break
            lab = labels[row]
            for j in range(n_clients):
                if j == i or lab == omitted[j]:
                    continue
                swap_pos = next((p for p, r in enumerate(assigned[j])
                                 if labels[r] != omitted[i]), None)
                if swap_pos is not None:
                    assigned[i].append(assigned[j][swap_pos])
                    assigned[j][swap_pos] = row
                    leftover.remove(row)
                    need[i] -= 1
                    break
    if need.sum() > 0:
        return None
    return [np.sort(np.asarray(a, dtype=np.int64)) for a in assigned], repaired


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_partition_deal_matches_numpy_scalar_oracle(data):
    """Over drawn label arrays and client counts, the deal gives the oracle's
    splits, or fails with the oracle, keyed to n_clients."""
    if data is None:   # leaves two rows over for the repair pass (see above)
        classes, clients, labels, ref, test_n, seed = 4, 2, np.arange(40) % 4, 4, 7, 4
    else:
        classes = data.draw(st.integers(2, 6), label="classes")
        clients = data.draw(st.integers(2, classes), label="clients")
        labels = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                             min_size=clients + 2, max_size=80),
                                    label="labels"))
        ref = data.draw(st.integers(1, len(labels) - clients - 1), label="ref_size")
        test_n = data.draw(st.integers(1, len(labels) - ref - clients), label="test_n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ds = LabeledDataset(np.zeros((len(labels), 1)), labels, classes)
    fraction = test_n / (len(ds) - ref)
    want = _numpy_scalar_deal(ds, clients, ref, fraction, np.random.default_rng(seed))
    if want is None:
        event("short")
        with pytest.raises(ConfigError, match="^n_clients: could not fill client splits"):
            partition_noniid(ds, clients, ref, fraction, np.random.default_rng(seed))
        return
    splits, repaired = want
    event("repaired" if repaired else "dealt")
    part = partition_noniid(ds, clients, ref, fraction, np.random.default_rng(seed))
    assert len(part.test) == test_n
    assert all(np.array_equal(a, b) for a, b in zip(part.client_indices, splits))
    if data is None:
        assert repaired


@pytest.mark.parametrize("ref,fraction,key", [
    (8, 0.5, "ref_size"), (2, 0.01, "test_fraction"), (2, 0.9, "test_fraction")])
def test_partition_split_sizes_rejected_under_their_key(ref, fraction, key):
    """Of 10 rows for 2 clients: 8 for reference leave 2, no test row beside
    a training row each; of the 8 left by 2, a test set of 0 or of 7 rows."""
    ds = LabeledDataset(np.zeros((10, 1)), np.arange(10) % 2, 2)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        partition_noniid(ds, 2, ref, fraction, np.random.default_rng(0))


def test_labeled_dataset_validation():
    with pytest.raises(DomainError, match=r"^labels must lie in \[0, 3\)"):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 5]), class_count=3)
    with pytest.raises(DimensionError, match="^3 feature rows vs 2 labels$"):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), class_count=3)


def test_labeled_dataset_needs_a_row():
    with pytest.raises(DimensionError,
                       match=r"^features must be non-empty 2-D, got shape \(0, 2\)$"):
        LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), class_count=3)


@pytest.mark.parametrize("rows", [np.zeros(3), np.zeros((1, 2, 2))], ids=["1-D", "3-D"])
def test_datasets_share_one_rows_check(rows):
    """Labeled and reference rows are checked by one rule, with one error."""
    for build in (lambda f: LabeledDataset(f, np.zeros(len(f), dtype=int), 3), ReferenceSet):
        with pytest.raises(DimensionError,
                           match=re.escape(f"features must be non-empty 2-D, "
                                           f"got shape {rows.shape}")):
            build(rows)


@pytest.mark.parametrize("labels", [np.array([0.5, 1.7]), np.array([0.0, 1.0]),
                                    np.array([False, True]),
                                    np.array([0, 1], dtype=object)],
                         ids=["float", "integral float", "bool", "object"])
def test_labeled_dataset_labels_must_be_integers(labels):
    """A label array that is not of an integer dtype is no row of classes:
    casting 0.5 and 1.7 to int64 read them as classes 0 and 1."""
    with pytest.raises(DomainError, match="^labels must be integers, got dtype "):
        LabeledDataset(np.zeros((2, 3)), labels, 3)


@pytest.mark.parametrize("class_count", [3.5, 3.0, 0, None])
def test_labeled_dataset_class_count_must_be_a_positive_integer(class_count):
    with pytest.raises(DomainError, match="^class count must be an integer >= 1, got "):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), class_count)


def test_labeled_dataset_takes_any_integer_labels_and_class_count():
    """Python and numpy integers pass; IDX labels arrive as uint8. Labels
    are stored as int64, and an int64 array is frozen in place."""
    for labels in ([0, 2], np.array([0, 2], dtype=np.uint8), np.array([0, 2], dtype=np.int32)):
        for class_count in (3, np.int64(3), np.uint8(3)):
            ds = LabeledDataset(np.zeros((2, 3)), labels, class_count)
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 2]
    labels = np.array([0, 2])
    assert LabeledDataset(np.zeros((2, 3)), labels, 3).labels is labels


def test_datasets_are_read_only_once_built():
    """LabeledDataset and ReferenceSet freeze the arrays they are given, in
    place (no copy), and so does every split a partition deals."""
    features, labels, rows = np.zeros((4, 2)), np.array([0, 1, 2, 0]), np.ones((2, 2))
    ds = LabeledDataset(features, labels, 3)
    ref = ReferenceSet(rows)
    assert ds.features is features and ds.labels is labels and ref.features is rows
    assert not (features.flags.writeable or labels.flags.writeable
                or rows.flags.writeable)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    part = partition_noniid(gen_blobs(20, 3, 4, 0.5, np.random.default_rng(0)),
                            2, 10, 0.2, np.random.default_rng(1))
    for d in [*part.client_splits, part.test]:
        assert not (d.features.flags.writeable or d.labels.flags.writeable)
    assert not part.reference.features.flags.writeable


def test_gen_blobs_needs_two_classes():
    with pytest.raises(ConfigError, match="^blob_classes: must be >= 2$"):
        gen_blobs(10, 1, 4, 0.5, np.random.default_rng(0))
