"""Checkpoint and prompt-state containers: round trips and typed failures.

Property tests (hypothesis, under the derandomized profile of conftest.py)
cut, extend and re-dimension real blobs; each damaged blob must raise
ValueError when decoded, and a damaged checkpoint DatasetError, naming the
file, when loaded.
"""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsgppt.csbm import CsbmParams, generate
from hsgppt.graph import DatasetError
from hsgppt.nn import pack_arrays, unpack_arrays
from hsgppt.pretrain import PretrainedModel, freeze, load_model, model_bytes, model_from_bytes
from hsgppt.prompt import TuneConfig, init_state, state_bytes, state_from_bytes
from hsgppt.spectral import FilterBank

MAGIC = b"HSGTEST\x00"
META_AT = 16  # magic, u32 version, u32 count, then the i64 header integers

CHECKPOINT = model_bytes(PretrainedModel(FilterBank.full(1), 3, 4, seed=0))
CHECKPOINT_DIMS = (0, 1, 2)  # header places of feature_dim, hidden_dim, n_filters


def _state_blob(shared):
    g = generate(CsbmParams(n=20, f=3, d_avg=4.0, h=0.3, mu=4.0, seed=0))
    frozen = freeze(PretrainedModel(FilterBank.full(1), 3, 4, seed=0))
    cfg = TuneConfig(n_prompt=2, shared_prompt=shared, seed=0)
    return state_bytes(init_state(g, frozen, cfg, 2))


STATES = {shared: _state_blob(shared) for shared in (False, True)}
STATE_DIMS = (0, 3, 4)  # header places of n_graphs, hidden, n_classes


def patch_meta(blob, i, value):
    at = META_AT + 8 * i
    return blob[:at] + struct.pack("<q", value) + blob[at + 8 :]


def meta(blob, i):
    return struct.unpack_from("<q", blob, META_AT + 8 * i)[0]


arrays_strategy = st.lists(
    st.tuples(
        st.text(min_size=0, max_size=6),
        st.lists(st.integers(0, 3), min_size=0, max_size=3),
        st.integers(0, 2**32 - 1),
    ),
    max_size=4,
)


@given(
    arrays=arrays_strategy,
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=5),
    floats=st.lists(st.floats(allow_nan=False), max_size=3),
)
def test_pack_unpack_round_trip(arrays, ints, floats):
    named = [
        (name, np.random.default_rng(seed).standard_normal(tuple(shape)))
        for name, shape, seed in arrays
    ]
    blob = pack_arrays(MAGIC, ints, named, floats)
    got_ints, got_floats, got = unpack_arrays(blob, MAGIC)
    assert got_ints == ints and got_floats == floats
    assert [name for name, _ in got] == [name for name, _ in named]
    for (_, a), (_, b) in zip(got, named):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert pack_arrays(MAGIC, got_ints, got, got_floats) == blob


def _decoders():
    yield CHECKPOINT, model_from_bytes
    for blob in STATES.values():
        yield blob, state_from_bytes


@given(data=st.data())
def test_every_truncation_is_a_value_error(data):
    for blob, decode in _decoders():
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ValueError):
            decode(blob[:cut])


@given(extra=st.binary(min_size=1, max_size=24))
def test_every_trailing_byte_is_a_value_error(extra):
    for blob, decode in _decoders():
        with pytest.raises(ValueError, match="trailing"):
            decode(blob + extra)


@given(which=st.sampled_from(CHECKPOINT_DIMS), value=st.integers(-(2**63), 2**63 - 1))
def test_checkpoint_header_dim_flip_is_a_value_error(which, value):
    if value == meta(CHECKPOINT, which):
        return
    with pytest.raises(ValueError):
        model_from_bytes(patch_meta(CHECKPOINT, which, value))


@given(
    shared=st.booleans(),
    which=st.sampled_from(STATE_DIMS),
    value=st.integers(-(2**63), 2**63 - 1),
)
def test_state_header_dim_flip_is_a_value_error(shared, which, value):
    blob = STATES[shared]
    if value == meta(blob, which):
        return
    with pytest.raises(ValueError):
        state_from_bytes(patch_meta(blob, which, value))


def test_undamaged_blobs_round_trip():
    assert model_bytes(model_from_bytes(CHECKPOINT)) == CHECKPOINT
    for blob in STATES.values():
        assert state_bytes(state_from_bytes(blob)) == blob


def test_huge_header_dims_fail_before_allocating(tmp_path):
    # 2^40 features (a 32 TiB encoder) or hidden units must not be built
    path = tmp_path / "model.ckpt"
    for i in (0, 1):
        path.write_bytes(patch_meta(CHECKPOINT, i, 2**40))
        with pytest.raises(DatasetError, match="unreadable checkpoint") as info:
            load_model(path)
        assert info.value.path == path
    for i in (3, 4):
        with pytest.raises(ValueError, match="head arrays do not match"):
            state_from_bytes(patch_meta(STATES[False], i, 2**40))


def test_damaged_states_are_data_errors():
    blob = STATES[False]
    renamed = blob.replace(b"head.bias", b"head.bia_")
    flags = patch_meta(STATES[True], 0, 3)  # a shared state with three graphs
    bad_flag = patch_meta(blob, 2, 7)  # normalize is 0 or 1
    short_header = pack_arrays(b"HSGPPRM1", [1, 0], [])
    for damaged in (blob[:30], blob[:-1], blob + b"\0", b"X" * len(blob), renamed, flags,
                    bad_flag, short_header):
        with pytest.raises(ValueError):
            state_from_bytes(damaged)
