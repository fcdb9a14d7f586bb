"""Dataset ingestion (IDX image/label files), synthetic Gaussian-blob
generation, non-IID client partitioning and reference-set carve-out."""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .distill import ReferenceSet
from .errors import ConfigError, DimensionError, ParseError
from .numeric import _check_labels

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class LabeledDataset(ReferenceSet):
    """Labeled rows (`features` M x F float64, checked as a ReferenceSet's),
    read-only once built: the arrays are frozen in place, not copied, so
    evaluation may keep a seed's output on `features`."""

    labels: np.ndarray            # M, int64
    class_count: int
    image_shape: tuple[int, int] | None = None   # IDX rows x columns per image

    def __post_init__(self):
        super().__post_init__()
        labels = _check_labels(self.labels, self.class_count)
        if len(labels) != len(self):
            raise DimensionError(f"{len(self)} feature rows vs {len(labels)} labels")
        self.labels = labels.astype(np.int64, copy=False)
        self.labels.flags.writeable = False

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices],
                              self.class_count, self.image_shape)


@dataclass
class PartitionedDataset:
    client_splits: list[LabeledDataset]
    test: LabeledDataset
    reference: ReferenceSet
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
                          image_shape=(rows, cols))


def load_idx_files(image_path, label_path, class_count: int = 10) -> LabeledDataset:
    with open(image_path, "rb") as f:
        image_bytes = f.read()
    with open(label_path, "rb") as f:
        label_bytes = f.read()
    return parse_idx(image_bytes, label_bytes, class_count)


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------

# The largest blob pool, in float64 entries (1 GiB): checked before any draw.
MAX_BLOB_ENTRIES = 2**27


def check_blobs(classes: int, per_class: int, features: int, components: int,
                spread: float) -> None:
    """gen_blobs' bounds: each cluster has its own cell of the axis grid, and
    the pool fits in MAX_BLOB_ENTRIES."""
    if classes < 2:
        raise ConfigError("blob_classes: must be >= 2")
    if features < 2:
        raise ConfigError("blob_features: must be >= 2")
    if components < 1:
        raise ConfigError("blob_components: must be >= 1")
    if per_class < 1:
        raise ConfigError("blob_samples_per_class: must be >= 1")
    # Standardizing squares the deviations: under 1e100 their sum stays
    # finite for any pool that fits in memory.
    if not 0 <= spread <= 1e100:
        raise ConfigError(f"blob_spread: must be in [0, 1e100], got {spread}")
    # Two 4,300-digit factors make a product too long for int -> str.
    def shown(n: int) -> int | str:
        return n if n <= MAX_BLOB_ENTRIES else f"over {MAX_BLOB_ENTRIES}"

    rows = classes * per_class
    if rows * features > MAX_BLOB_ENTRIES:
        raise ConfigError(f"blob_samples_per_class: a pool of {shown(rows)} rows x "
                          f"{features} features exceeds the limit of "
                          f"{MAX_BLOB_ENTRIES} float64 entries (1 GiB)")
    if components * classes > features * (features - 1):
        raise ConfigError(f"blob_features: a grid of {features} features holds "
                          f"{features * (features - 1)} clusters, but "
                          f"blob_components x blob_classes = {shown(components * classes)}")


def gen_blobs(n_per_class: int, class_count: int, feature_dim: int,
              spread: float, rng: np.random.Generator,
              components_per_class: int = 1) -> LabeledDataset:
    """Gaussian clusters with distinct axis-grid means, standardized to zero
    mean / unit variance. Each class may be a mixture of several clusters
    (components_per_class > 1 gives a harder, non-linearly-separable task).
    Exactly n_per_class samples per class.
    """
    check_blobs(class_count, n_per_class, feature_dim, components_per_class, spread)

    scale = 3.0
    feats, labs = [], []
    for c in range(class_count):
        counts = np.full(components_per_class, n_per_class // components_per_class)
        counts[: n_per_class % components_per_class] += 1
        for j, cnt in enumerate(counts):
            k = c + j * class_count       # cluster index on the axis grid
            a = k % feature_dim
            # check_blobs bounds k // F by F - 2, so b != a.
            b = (a + 1 + k // feature_dim) % feature_dim
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
    return LabeledDataset(features, labels, class_count)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def check_clients(n_clients: int, class_count: int, ref_size: int,
                  test_fraction: float) -> None:
    """Each client omits one distinct class and needs another client as donor;
    the split's bounds that hold for any pool size are checked here too."""
    if n_clients < 2:
        raise ConfigError(f"n_clients: {n_clients} < 2: a lone client has no donor")
    if n_clients > class_count:
        raise ConfigError(f"n_clients: {n_clients} exceeds the {class_count} classes")
    if ref_size < 1:
        raise ConfigError("ref_size: must be >= 1")
    if not 0 < test_fraction < 1:
        raise ConfigError("test_fraction: must be in (0, 1)")


def check_split(rows: int, n_clients: int, ref_size: int, test_fraction: float) -> int:
    """The test set's size: the rows left after the reference set must give
    at least one test row and one training row per client."""
    rest = rows - ref_size
    if rest < 1 + n_clients:
        raise ConfigError(f"ref_size: {ref_size} must leave a test row and "
                          f"{n_clients} training rows of the {rows} samples")
    test_n = int(round(test_fraction * rest))
    if not 1 <= test_n <= rest - n_clients:
        raise ConfigError(f"test_fraction: {test_fraction} of the {rest} samples "
                          f"left after ref_size makes {test_n} test and "
                          f"{rest - test_n} training rows; need >= 1 and >= {n_clients}")
    return test_n


def partition_noniid(data: LabeledDataset, n_clients: int, ref_size: int,
                     test_fraction: float, rng: np.random.Generator) -> PartitionedDataset:
    """Reference carve-out, test split, then non-IID client splits where
    client i never sees one distinct class (a seeded permutation decides which).

    The training rows are dealt in a seeded shuffled order: each goes to the
    client with the largest remaining need among those allowed its class,
    the lowest id on ties, where needs start as equal split sizes (+-1). A
    repair pass then fills a client left short by swapping rows through
    donors. Splits are pairwise disjoint, equal-sized (+-1), and disjoint
    from both the test set and the reference features.

    Raises ConfigError keyed `n_clients`, `ref_size` or `test_fraction` when
    check_clients or check_split rejects the sizes, and keyed `n_clients`
    when this seed's draws leave some split short even after the repair.
    """
    C = data.class_count
    check_clients(n_clients, C, ref_size, test_fraction)
    test_n = check_split(len(data), n_clients, ref_size, test_fraction)

    ref_idx = np.sort(rng.choice(len(data), size=ref_size, replace=False))
    mask = np.ones(len(data), dtype=bool)
    mask[ref_idx] = False
    pool = np.flatnonzero(mask)

    test_pick = rng.choice(pool.size, size=test_n, replace=False)
    test_mask = np.zeros(pool.size, dtype=bool)
    test_mask[test_pick] = True
    test_idx = pool[test_mask]
    train_pool = pool[~test_mask]

    sigma = rng.permutation(C)
    omitted = [int(sigma[i]) for i in range(n_clients)]

    # Python ints throughout: the deal is O(rows x clients) scalar steps.
    m = train_pool.size
    need = [m // n_clients + (i < m % n_clients) for i in range(n_clients)]
    order = rng.permutation(m)
    assigned: list[list[int]] = [[] for _ in range(n_clients)]
    leftover: list[int] = []
    labels = data.labels.tolist()
    for row in train_pool[order].tolist():
        lab = labels[row]
        best, best_need = -1, 0
        for i in range(n_clients):
            if lab != omitted[i] and need[i] > best_need:
                best, best_need = i, need[i]
        if best >= 0:
            assigned[best].append(row)
            need[best] -= 1
        else:
            leftover.append(row)
    # Repair pass. A row is left over only once every client allowed its class
    # is full, and each class is omitted by at most one client; so at most one
    # client ends short, and every leftover row is of that client's omitted
    # class. Route each such row through a donor client that is allowed to
    # take it, in exchange for one of the donor's rows.
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
    if sum(need) > 0:
        raise ConfigError(f"n_clients: could not fill client splits, short by "
                          f"{sum(need)} samples")

    client_indices = [np.sort(np.asarray(rows, dtype=np.int64)) for rows in assigned]
    return PartitionedDataset(
        client_splits=[data.take(ci) for ci in client_indices],
        test=data.take(test_idx),
        reference=ReferenceSet(data.features[ref_idx]),
        omitted_class=omitted,
        client_indices=client_indices,
        test_indices=test_idx,
        reference_indices=ref_idx,
    )

