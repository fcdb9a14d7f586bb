import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdus.ensemble import (EnsembleConfig, SeedRepository, add_neighbor_seed,
                           deserialize_seed, ensemble_predict, serialize_seed,
                           unlearn_neighbor)
from hdus.errors import (ConfigError, ConflictError, DimensionError,
                         NotFoundError, ParseError, ValidationError)
from hdus.numeric import MlpSpec, init_mlp, mlp_forward, softmax_temp


def make_model(seed, dims=(5, 8, 3)):
    return init_mlp(MlpSpec(dims), np.random.default_rng(seed))


@pytest.fixture
def setup():
    main = make_model(0)
    repo = SeedRepository(owner_id=0)
    for nid in (1, 2, 3):
        add_neighbor_seed(repo, nid, make_model(nid))
    batch = np.random.default_rng(9).normal(size=(12, 5))
    return main, repo, batch


def test_ensemble_is_convex_combination(setup):
    """Oracle: recompute (1 - lam) * p_main + lam/K * sum p_k by hand."""
    main, repo, batch = setup
    lam = 0.4
    pred = ensemble_predict(main, repo, EnsembleConfig(lam=lam), batch)
    p_main = softmax_temp(mlp_forward(main, batch), 1.0)
    p_seeds = [softmax_temp(mlp_forward(s, batch), 1.0) for _, s in repo.entries]
    want = (1 - lam) * p_main + (lam / 3) * sum(p_seeds)
    assert np.allclose(pred, want, atol=1e-15)
    # rows stay normalized because each term is a probability row
    assert np.allclose(pred.sum(axis=1), 1.0, atol=1e-12)


def test_empty_repository_degenerates_to_main(setup):
    main, _, batch = setup
    pred = ensemble_predict(main, SeedRepository(owner_id=0),
                            EnsembleConfig(lam=0.7), batch)
    want = softmax_temp(mlp_forward(main, batch), 1.0)
    assert np.array_equal(pred, want)


def test_lambda_zero_ignores_seeds(setup):
    main, repo, batch = setup
    pred = ensemble_predict(main, repo, EnsembleConfig(lam=0.0), batch)
    want = softmax_temp(mlp_forward(main, batch), 1.0)
    assert np.array_equal(pred, want)


def test_unlearn_renormalizes_over_remaining(setup):
    """After removal the mixture averages over K - 1 seeds, exactly."""
    main, repo, batch = setup
    lam = 0.5
    unlearn_neighbor(repo, 2)
    assert repo.neighbor_ids() == [1, 3]
    pred = ensemble_predict(main, repo, EnsembleConfig(lam=lam), batch)
    p_main = softmax_temp(mlp_forward(main, batch), 1.0)
    p_seeds = [softmax_temp(mlp_forward(s, batch), 1.0) for _, s in repo.entries]
    want = (1 - lam) * p_main + (lam / 2) * sum(p_seeds)
    assert np.allclose(pred, want, atol=1e-15)


def test_unlearn_matches_never_added(setup):
    """Removing neighbor 2 gives bitwise the prediction of a repository where
    neighbor 2 never existed."""
    main, repo, batch = setup
    unlearn_neighbor(repo, 2)
    control = SeedRepository(owner_id=0)
    for nid in (1, 3):
        add_neighbor_seed(control, nid, make_model(nid))
    cfg = EnsembleConfig(lam=0.6)
    a = ensemble_predict(main, repo, cfg, batch)
    b = ensemble_predict(main, control, cfg, batch)
    assert np.array_equal(a, b)


def test_unlearn_all_degenerates_to_main(setup):
    main, repo, batch = setup
    for nid in (1, 2, 3):
        unlearn_neighbor(repo, nid)
    pred = ensemble_predict(main, repo, EnsembleConfig(lam=0.8), batch)
    want = softmax_temp(mlp_forward(main, batch), 1.0)
    assert np.array_equal(pred, want)


def test_unlearn_missing_neighbor_raises(setup):
    _, repo, _ = setup
    with pytest.raises(NotFoundError):
        unlearn_neighbor(repo, 42)
    assert len(repo) == 3


def test_repository_rejects_duplicates_and_self(setup):
    _, repo, _ = setup
    with pytest.raises(ConflictError):
        add_neighbor_seed(repo, 1, make_model(1))
    with pytest.raises(ValidationError):
        add_neighbor_seed(repo, 0, make_model(0))


def test_repository_rejects_shape_mismatch(setup):
    _, repo, _ = setup
    with pytest.raises(ValidationError):
        add_neighbor_seed(repo, 9, make_model(9, dims=(4, 8, 3)))
    with pytest.raises(ValidationError):
        add_neighbor_seed(repo, 9, make_model(9, dims=(5, 8, 2)))
    # a different hidden width is fine: heterogeneity in depth/width allowed
    add_neighbor_seed(repo, 9, make_model(9, dims=(5, 20, 3)))


def test_heterogeneous_seed_shapes_mix(setup):
    main, _, batch = setup
    repo = SeedRepository(owner_id=0)
    add_neighbor_seed(repo, 1, make_model(1, dims=(5, 4, 3)))
    add_neighbor_seed(repo, 2, make_model(2, dims=(5, 16, 8, 3)))
    pred = ensemble_predict(main, repo, EnsembleConfig(lam=0.5), batch)
    assert pred.shape == (12, 3)
    assert np.allclose(pred.sum(axis=1), 1.0, atol=1e-12)


def test_lambda_domain():
    EnsembleConfig(lam=0.0)
    EnsembleConfig(lam=0.999)
    with pytest.raises(ConfigError):
        EnsembleConfig(lam=1.0)
    with pytest.raises(ConfigError):
        EnsembleConfig(lam=-0.1)


def test_input_dim_mismatch_raises(setup):
    main, repo, _ = setup
    with pytest.raises(DimensionError):
        ensemble_predict(main, repo, EnsembleConfig(), np.zeros((3, 7)))


# --- wire format ------------------------------------------------------------

def test_serialize_roundtrip_bitwise():
    model = make_model(5, dims=(7, 11, 4))
    blob = serialize_seed(model)
    back = deserialize_seed(blob)
    assert back.spec == model.spec
    assert np.array_equal(back.params, model.params)


def test_decoded_seed_is_read_only():
    """Receivers share one decoded seed, so writing it is an error."""
    back = deserialize_seed(serialize_seed(make_model(5)))
    for a in (back.params, back.weights[0], back.biases[-1]):
        with pytest.raises(ValueError):
            a[...] = 0.0
    copied = back.copy()
    copied.weights[0][...] = 0.0
    assert not np.array_equal(copied.params, back.params)


def test_wire_header_layout():
    model = make_model(5, dims=(7, 11, 4))
    blob = serialize_seed(model)
    assert blob[:4] == b"HDUS"
    assert int.from_bytes(blob[4:6], "little") == 1        # version
    assert int.from_bytes(blob[6:8], "little") == 3        # layer count
    dims = [int.from_bytes(blob[8 + 4 * i:12 + 4 * i], "little") for i in range(3)]
    assert dims == [7, 11, 4]
    n_params = model.spec.param_count()
    assert len(blob) == 8 + 12 + 8 * n_params + 4


def test_corrupt_blob_rejected_with_offset():
    blob = bytearray(serialize_seed(make_model(5)))
    blob[-10] ^= 0xFF  # flip a payload byte: CRC must catch it
    with pytest.raises(ParseError) as e:
        deserialize_seed(bytes(blob))
    assert "CRC" in str(e.value)
    assert e.value.offset == len(blob) - 4


def test_bad_magic_and_truncation_rejected():
    blob = serialize_seed(make_model(5))
    with pytest.raises(ParseError) as e:
        deserialize_seed(b"XXXX" + blob[4:])
    assert e.value.offset == 0
    with pytest.raises(ParseError):
        deserialize_seed(blob[:20])
    with pytest.raises(ParseError):
        deserialize_seed(blob + b"\x00")


def test_unsupported_version_rejected():
    blob = bytearray(serialize_seed(make_model(5)))
    blob[4] = 2
    import zlib
    body = bytes(blob[:-4])
    patched = body + zlib.crc32(body).to_bytes(4, "little")
    with pytest.raises(ParseError) as e:
        deserialize_seed(patched)
    assert "version" in str(e.value)


def test_zeroed_dim_rejected_as_parse_error():
    """A blob whose layer dim is 0 but whose CRC is valid is a ParseError,
    not a ValidationError from the spec."""
    import zlib
    blob = bytearray(serialize_seed(make_model(5)))
    blob[12:16] = (0).to_bytes(4, "little")
    body = bytes(blob[:-4])
    with pytest.raises(ParseError, match="layer dims"):
        deserialize_seed(body + zlib.crc32(body).to_bytes(4, "little"))


# --- wire format fuzzing: one documented error ------------------------------

_FUZZ_BLOB = serialize_seed(make_model(5, dims=(4, 3, 2)))
_FUZZ_MODEL = make_model(6, dims=(4, 3, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_FUZZ_BLOB) - 1), st.integers(1, 255))
def test_fuzz_single_byte_change_raises_parse_error(pos, flip):
    blob = bytearray(_FUZZ_BLOB)
    blob[pos] ^= flip
    with pytest.raises(ParseError):
        deserialize_seed(bytes(blob))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_FUZZ_BLOB) - 1))
def test_fuzz_truncation_raises_parse_error(length):
    with pytest.raises(ParseError):
        deserialize_seed(_FUZZ_BLOB[:length])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, _FUZZ_MODEL.param_count() - 1),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_fuzz_non_finite_parameter_raises_parse_error(index, value):
    model = _FUZZ_MODEL.copy()
    model.params[index] = value
    blob = serialize_seed(model)   # a well-formed blob with a valid CRC
    with pytest.raises(ParseError, match="non-finite") as e:
        deserialize_seed(blob)
    assert e.value.offset == 8 + 4 * 3 + 8 * index
