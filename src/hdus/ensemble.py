"""Erasable ensemble: neighbor seed repository, lambda-weighted ensemble
prediction, exact unlearning by seed removal, and the versioned binary wire
format for seed exchange."""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, ConflictError, DimensionError, DivergenceError,
                     NotFoundError, ParseError, ValidationError)
from .numeric import MlpModel, MlpSpec, mlp_forward, softmax_temp

SEED_MAGIC = b"HDUS"
SEED_FORMAT_VERSION = 1


@dataclass
class EnsembleConfig:
    lam: float = 0.6            # weight on the neighbor-seed ensemble
    combine: str = "proba"      # "proba" (default) or "logits"

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ConfigError(f"lambda: must be in [0, 1), got {self.lam}")
        if self.combine not in ("proba", "logits"):
            raise ConfigError(f"combine: must be proba or logits, got {self.combine!r}")


@dataclass
class SeedRepository:
    """Ordered collection of neighbor seed models. Never holds an entry for
    the owning client itself, nor a writable seed.

    `entries` is the (neighbor id, seed) list in arrival order and the one
    record: `in` scans it. `add_neighbor_seed` and `unlearn_neighbor` write
    it."""

    owner_id: int
    entries: list[tuple[int, MlpModel]] = field(default_factory=list)

    def neighbor_ids(self) -> list[int]:
        return [nid for nid, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, neighbor_id: int) -> bool:
        return neighbor_id in self.neighbor_ids()


def add_neighbor_seed(repo: SeedRepository, neighbor_id: int,
                      seed: MlpModel) -> SeedRepository:
    """Append a neighbor's seed. Replacement requires an explicit remove first.
    A writable seed, unlike a decoded one, is a ValidationError."""
    if neighbor_id == repo.owner_id:
        raise ValidationError(f"client {repo.owner_id} cannot store its own seed")
    if seed.params.flags.writeable:
        raise ValidationError(f"seed from neighbor {neighbor_id} is writable")
    if neighbor_id in repo:
        raise ConflictError(f"neighbor {neighbor_id} already present")
    if repo.entries:
        ref_spec = repo.entries[0][1].spec
        if (seed.spec.in_dim, seed.spec.out_dim) != (ref_spec.in_dim, ref_spec.out_dim):
            raise ValidationError(
                f"seed from neighbor {neighbor_id} has dims "
                f"({seed.spec.in_dim}, {seed.spec.out_dim}), repository holds "
                f"({ref_spec.in_dim}, {ref_spec.out_dim})")
    repo.entries.append((neighbor_id, seed))
    return repo


def unlearn_neighbor(repo: SeedRepository, neighbor_id: int) -> SeedRepository:
    """Delete a neighbor's seed entry; O(K), no retraining, no other state touched."""
    if neighbor_id not in repo:
        raise NotFoundError(f"neighbor {neighbor_id} not in repository of "
                            f"client {repo.owner_id}")
    del repo.entries[repo.neighbor_ids().index(neighbor_id)]
    return repo


def ensemble_predict(main: MlpModel, repo: SeedRepository, cfg: EnsembleConfig,
                     batch: np.ndarray) -> np.ndarray:
    """(1 - lambda) * p_main + (lambda / K) * sum_k p_seed_k.

    Model outputs are converted to probabilities by a standard softmax before
    averaging (set cfg.combine = "logits" to average raw logits instead). The
    seed outputs are summed in repository order. An empty repository, or
    lambda 0, degenerates to the main model alone, and no seed is forwarded.
    """
    batch = np.asarray(batch, dtype=np.float64)
    main_out = _model_output(main, batch, cfg.combine, "main model")
    if len(repo) == 0 or cfg.lam == 0.0:
        return main_out
    seed_sum = np.zeros_like(main_out)
    for nid, seed in repo.entries:
        seed_sum += _model_output(seed, batch, cfg.combine, f"seed of neighbor {nid}")
    return _mix(main_out, seed_sum, cfg.lam, len(repo))


def _model_output(model: MlpModel, batch: np.ndarray, combine: str,
                  who: str) -> np.ndarray:
    """The model's logits, or their softmax when combining probabilities.
    DivergenceError if any entry is not finite: a model whose parameters
    grew past what a forward can hold overflows to inf and NaN here, and
    this check, not numpy's warnings, reports it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            logits = mlp_forward(model, batch)
            out = logits if combine == "logits" else softmax_temp(logits, 1.0)
    except DimensionError as e:
        raise DimensionError(f"{who}: {e}") from e
    if not np.isfinite(out).all():
        raise DivergenceError(f"{who}: non-finite output")
    return out


def _mix(main_out: np.ndarray, seed_sum: np.ndarray, lam: float,
         k: int) -> np.ndarray:
    """(1 - lambda) * main_out + (lambda / k) * the sum of k seed outputs,
    written into `main_out`, a fresh array. `seed_sum` is never written:
    `evaluate_all` may carry it to the next client."""
    main_out *= 1.0 - lam
    main_out += (lam / k) * seed_sum
    return main_out


# ---------------------------------------------------------------------------
# Wire format: magic "HDUS" | u16 version | u16 layer count | u32 layer dims |
# f64 parameters (the model's `params`: per layer, weights row-major, then
# biases) | u32 CRC32 of everything preceding. All integers and floats
# little-endian.
# ---------------------------------------------------------------------------

def serialize_seed(model: MlpModel) -> bytes:
    head = SEED_MAGIC + struct.pack("<HH", SEED_FORMAT_VERSION,
                                    len(model.spec.layer_dims))
    head += struct.pack(f"<{len(model.spec.layer_dims)}I", *model.spec.layer_dims)
    body = model.params.astype("<f8").tobytes()
    payload = head + body
    return payload + struct.pack("<I", zlib.crc32(payload))


def deserialize_seed(blob: bytes) -> MlpModel:
    """Decode a seed. Every malformed blob raises ParseError, and nothing
    else: the magic and the trailing CRC are checked before any other field
    is read, then the version, the layer dims, the length and that every
    parameter is finite.

    The seed's `params` are read-only: receivers share one decoded seed (and
    evaluation forwards it once in its lifetime), so it must never change
    after exchange."""
    if len(blob) < 12:
        raise ParseError("blob too short for header", offset=len(blob))
    if blob[:4] != SEED_MAGIC:
        raise ParseError(f"bad magic {blob[:4]!r}", offset=0)
    crc_at = len(blob) - 4
    (crc,) = struct.unpack_from("<I", blob, crc_at)
    if crc != zlib.crc32(blob[:crc_at]):
        raise ParseError("CRC mismatch", offset=crc_at)
    version, n_layers = struct.unpack_from("<HH", blob, 4)
    if version != SEED_FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", offset=4)
    dims_end = 8 + 4 * n_layers
    if crc_at < dims_end:
        raise ParseError("truncated layer dims", offset=len(blob))
    dims = struct.unpack_from(f"<{n_layers}I", blob, 8)
    if n_layers < 2 or min(dims) < 1:
        raise ParseError(f"invalid layer dims {dims}", offset=8)
    spec = MlpSpec(dims)
    n_params = spec.param_count()
    body_end = dims_end + 8 * n_params
    if crc_at != body_end:
        raise ParseError(
            f"expected {body_end + 4} bytes for {n_params} parameters, got "
            f"{len(blob)}", offset=min(len(blob), body_end))
    flat = np.frombuffer(blob, dtype="<f8", count=n_params, offset=dims_end)
    finite = np.isfinite(flat)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ParseError(f"non-finite parameter {first}", offset=dims_end + 8 * first)
    params = flat.astype(np.float64)
    params.flags.writeable = False   # before the views are built, so they are too
    return MlpModel(spec, params)
