"""Dataset ingestion (IDX image/label files), synthetic Gaussian-blob
generation, non-IID client partitioning and reference-set carve-out."""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .distill import ReferenceSet
from .errors import CapacityError, ConfigError, ParseError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    features: np.ndarray          # M x F, float64
    labels: np.ndarray            # M, int
    class_count: int
    scaling: str = "none"         # how the features were scaled

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigError(f"features must be non-empty 2-D, got "
                              f"{self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigError("labels length must match feature rows")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ConfigError(f"labels outside [0, {self.class_count})")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices],
                              self.class_count, self.scaling)


@dataclass
class PartitionedDataset:
    client_splits: list[LabeledDataset]
    test: LabeledDataset
    reference: ReferenceSet
    class_menu: list[frozenset[int]]       # permitted classes per client
    omitted_class: list[int]               # the one class each client never sees
    client_indices: list[np.ndarray]       # row indices into the source dataset
    test_indices: np.ndarray
    reference_indices: np.ndarray

    @property
    def n_clients(self) -> int:
        return len(self.client_splits)


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------

def _maybe_gunzip(buf: bytes, what: str) -> bytes:
    if buf[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(buf)
        except (OSError, EOFError, zlib.error) as e:
            raise ParseError(f"{what}: bad gzip stream: {e}") from None
    return buf


def _read_u32(buf: bytes, offset: int, what: str) -> int:
    if len(buf) < offset + 4:
        raise ParseError(f"truncated while reading {what}", offset=len(buf))
    return struct.unpack_from(">I", buf, offset)[0]


def _read_count(buf: bytes, offset: int, what: str) -> int:
    count = _read_u32(buf, offset, what)
    if count == 0:
        raise ParseError(f"{what} is 0", offset=offset)
    return count


def parse_idx(image_bytes: bytes, label_bytes: bytes,
              class_count: int = 10) -> LabeledDataset:
    """Decode big-endian IDX3 images + IDX1 labels into a [0,1]-scaled dataset.

    Gzip-compressed inputs are accepted transparently. Any input that does
    not decode to at least one image of at least one pixel, with one
    in-range label per image, raises ParseError and nothing else.
    """
    image_bytes = _maybe_gunzip(image_bytes, "images")
    label_bytes = _maybe_gunzip(label_bytes, "labels")

    magic = _read_u32(image_bytes, 0, "image magic")
    if magic != IDX_IMAGE_MAGIC:
        raise ParseError(f"bad image magic 0x{magic:08x}", offset=0)
    n = _read_count(image_bytes, 4, "image count")
    rows = _read_count(image_bytes, 8, "row count")
    cols = _read_count(image_bytes, 12, "column count")
    expected = 16 + n * rows * cols
    if len(image_bytes) != expected:
        raise ParseError(f"image payload is {len(image_bytes)} bytes, header "
                         f"promises {expected}", offset=min(len(image_bytes), expected))

    lmagic = _read_u32(label_bytes, 0, "label magic")
    if lmagic != IDX_LABEL_MAGIC:
        raise ParseError(f"bad label magic 0x{lmagic:08x}", offset=0)
    ln = _read_u32(label_bytes, 4, "label count")
    if ln != n:
        raise ParseError(f"label count {ln} != image count {n}", offset=4)
    if len(label_bytes) != 8 + ln:
        raise ParseError(f"label payload is {len(label_bytes)} bytes, header "
                         f"promises {8 + ln}", offset=min(len(label_bytes), 8 + ln))

    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=16)
    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8, offset=8)
    if labels.max(initial=0) >= class_count:
        bad = int(np.argmax(labels >= class_count))
        raise ParseError(f"label {labels[bad]} out of range for C={class_count}",
                         offset=8 + bad)
    return LabeledDataset(features, labels.astype(np.int64), class_count,
                          scaling="pixel/255")


def load_idx_files(image_path, label_path, class_count: int = 10) -> LabeledDataset:
    with open(image_path, "rb") as f:
        image_bytes = f.read()
    with open(label_path, "rb") as f:
        label_bytes = f.read()
    return parse_idx(image_bytes, label_bytes, class_count)


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------

def gen_blobs(n_per_class: int, class_count: int, feature_dim: int,
              spread: float, rng: np.random.Generator,
              components_per_class: int = 1) -> LabeledDataset:
    """Gaussian clusters with distinct axis-grid means, standardized to zero
    mean / unit variance. Each class may be a mixture of several clusters
    (components_per_class > 1 gives a harder, non-linearly-separable task).
    Exactly n_per_class samples per class.
    """
    if class_count < 2 or feature_dim < 2:
        raise ConfigError("need class_count >= 2 and feature_dim >= 2")
    if components_per_class * class_count > feature_dim * (feature_dim - 1):
        raise ConfigError("too many clusters for the feature grid")

    scale = 3.0
    feats, labs = [], []
    for c in range(class_count):
        counts = np.full(components_per_class, n_per_class // components_per_class)
        counts[: n_per_class % components_per_class] += 1
        for j, cnt in enumerate(counts):
            k = c + j * class_count       # cluster index on the axis grid
            a = k % feature_dim
            b = (a + 1 + k // feature_dim) % feature_dim
            if b == a:
                b = (b + 1) % feature_dim
            mean = np.zeros(feature_dim)
            mean[a] += scale
            mean[b] += scale * (1.0 if j % 2 == 0 else -1.0)
            feats.append(rng.normal(mean, spread, size=(cnt, feature_dim)))
            labs.append(np.full(cnt, c, dtype=np.int64))
    features = np.concatenate(feats)
    labels = np.concatenate(labs)
    order = rng.permutation(features.shape[0])
    features, labels = features[order], labels[order]
    std = features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    features = (features - features.mean(axis=0)) / std
    return LabeledDataset(features, labels, class_count, scaling="standardized")


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def _reference_indices(data: LabeledDataset, ref_size: int,
                       rng: np.random.Generator) -> np.ndarray:
    if ref_size >= len(data):
        raise CapacityError(f"ref_size {ref_size} >= dataset size {len(data)}")
    return np.sort(rng.choice(len(data), size=ref_size, replace=False))


def split_reference(data: LabeledDataset, ref_size: int,
                    rng: np.random.Generator) -> tuple[ReferenceSet, LabeledDataset]:
    """Carve an unlabeled reference set out of the data. The labels of the
    carved rows are retained only in the reference's sealed store."""
    idx = _reference_indices(data, ref_size, rng)
    mask = np.ones(len(data), dtype=bool)
    mask[idx] = False
    ref = ReferenceSet(data.features[idx], sealed_labels=data.labels[idx].copy())
    return ref, data.take(np.flatnonzero(mask))


def partition_noniid(data: LabeledDataset, n_clients: int, ref_size: int,
                     test_fraction: float, rng: np.random.Generator) -> PartitionedDataset:
    """Reference carve-out, test split, then non-IID client splits where
    client i never sees one distinct class (a seeded permutation decides which).

    Splits are pairwise disjoint, equal-sized (+-1), and disjoint from both
    the test set and the reference features.
    """
    C = data.class_count
    if n_clients > C:
        raise ConfigError(f"n_clients {n_clients} > class count {C}")
    if n_clients < 1:
        raise ConfigError("need at least one client")

    ref_idx = _reference_indices(data, ref_size, rng)
    mask = np.ones(len(data), dtype=bool)
    mask[ref_idx] = False
    pool = np.flatnonzero(mask)

    test_n = int(round(test_fraction * pool.size))
    if test_n >= pool.size:
        raise CapacityError("test fraction leaves no training data")
    test_pick = rng.choice(pool.size, size=test_n, replace=False)
    test_mask = np.zeros(pool.size, dtype=bool)
    test_mask[test_pick] = True
    test_idx = pool[test_mask]
    train_pool = pool[~test_mask]

    sigma = rng.permutation(C)
    omitted = [int(sigma[i]) for i in range(n_clients)]
    menus = [frozenset(range(C)) - {o} for o in omitted]

    # Equal split sizes (+-1); deal shuffled rows to the most-needy allowed client.
    m = train_pool.size
    need = np.full(n_clients, m // n_clients, dtype=np.int64)
    need[: m % n_clients] += 1
    order = rng.permutation(m)
    assigned: list[list[int]] = [[] for _ in range(n_clients)]
    leftover: list[int] = []
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
    # Repair pass: a client can end up short when the only unassigned rows are
    # of its omitted class. Route such a row through a donor client that is
    # allowed to take it, in exchange for one of the donor's rows.
    for i in range(n_clients):
        if need[i] == 0:
            continue
        takeable = [r for r in leftover if labels[r] != omitted[i]]
        for row in takeable[: need[i]]:
            assigned[i].append(row)
            leftover.remove(row)
            need[i] -= 1
        forbidden = list(leftover)
        for row in forbidden:
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
        raise CapacityError(f"could not fill client splits, short by "
                            f"{int(need.sum())} samples")

    client_indices = [np.sort(np.asarray(rows, dtype=np.int64)) for rows in assigned]
    return PartitionedDataset(
        client_splits=[data.take(ci) for ci in client_indices],
        test=data.take(test_idx),
        reference=ReferenceSet(data.features[ref_idx],
                               sealed_labels=data.labels[ref_idx].copy()),
        class_menu=menus,
        omitted_class=omitted,
        client_indices=client_indices,
        test_indices=test_idx,
        reference_indices=ref_idx,
    )


def export_manifest(part: PartitionedDataset, path) -> None:
    """Audit table of row assignments: one `client_id<TAB>indices` line per
    client, plus test and reference rows."""
    lines = []
    for i, idx in enumerate(part.client_indices):
        lines.append(f"client_{i}\t{' '.join(map(str, idx))}")
    lines.append(f"test\t{' '.join(map(str, part.test_indices))}")
    lines.append(f"reference\t{' '.join(map(str, part.reference_indices))}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
