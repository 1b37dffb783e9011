"""Properties of the state file: exact round trips, resumes and refused payloads."""

import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipqgr import cli, synthetic
from ipqgr.codebook import Codebook, SubCodebook
from ipqgr.decoder import DecoderParams, FisherDiag
from ipqgr.harness import (
    STATE_VERSION,
    EngineState,
    ExperimentConfig,
    _array_layout,
    canonical_report_bytes,
    load_state,
    run_experiment,
    save_state,
    state_core_bytes,
)
from ipqgr.repr_learner import ProjectorParams
from ipqgr.rng import RandomSource


def build_state(ids, sizes, sub_dim, projector_hidden, seed, history=(), session=3):
    """An EngineState filled with random values, whose members are flagged documents.

    Each (document, group) flag is drawn; cluster k of group m holds the
    rows of the flagged documents coded k there, in row order. Row c is
    coded c and flagged in each group with more than c centroids, so every
    cluster has a member when there are at least as many ids as centroids.
    """
    rng = np.random.default_rng(seed)
    m = len(sizes)
    dim = m * sub_dim
    embs = rng.normal(size=(len(ids), dim))
    if len(ids):
        embs[0, 0], embs[-1, -1] = -0.0, np.nan  # bit patterns that == would not check
    codes = np.array([[rng.integers(k) for k in sizes] for _ in ids], dtype=int).reshape(len(ids), m)
    member = rng.integers(0, 2, size=(len(ids), m)).astype("u1")
    for g, k in enumerate(sizes):
        seeded = min(k, len(ids))
        codes[:seeded, g], member[:seeded, g] = np.arange(seeded), 1
    groups = [
        SubCodebook(rng.normal(size=(k, sub_dim)), embs[:, g * sub_dim : (g + 1) * sub_dim].copy(),
                    tuple(tuple(np.flatnonzero((codes[:, g] == c) & (member[:, g] == 1)).tolist())
                          for c in range(k)))
        for g, k in enumerate(sizes)
    ]
    projector = None
    if projector_hidden is not None:
        h, e = projector_hidden
        projector = ProjectorParams(rng.normal(size=(h, e)), rng.normal(size=h),
                                    rng.normal(size=(dim, h)), rng.normal(size=dim))
    return EngineState(
        codebook=Codebook(session, dim, groups),
        codes={i: tuple(code) for i, code in zip(ids, codes.tolist())},
        decoder=DecoderParams([rng.normal(size=(k, dim)) for k in sizes],
                              [rng.normal(size=k) for k in sizes]),
        fisher=FisherDiag([rng.random((k, dim)) for k in sizes], [rng.random(k) for k in sizes]),
        projector=projector,
        history=list(history),
    )


def bit_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def all_bit_equal(xs, ys) -> bool:
    return len(xs) == len(ys) and all(bit_equal(x, y) for x, y in zip(xs, ys))


def assert_same_state(a: EngineState, b: EngineState) -> None:
    assert (a.session, a.codebook.dim) == (b.session, b.codebook.dim)
    assert [(type(i), i) for i in a.codes] == [(type(i), i) for i in b.codes]
    assert list(a.codes.values()) == list(b.codes.values())
    assert all(type(c) is int for code in b.codes.values() for c in code)
    assert bit_equal(a.codebook.vectors(), b.codebook.vectors())
    for ga, gb in zip(a.codebook.groups, b.codebook.groups, strict=True):
        assert ga.members == gb.members
        assert bit_equal(ga.centroids, gb.centroids)
        assert all_bit_equal(ga.member_vecs, gb.member_vecs)
    assert all_bit_equal(a.decoder.weights, b.decoder.weights)
    assert all_bit_equal(a.decoder.biases, b.decoder.biases)
    assert all_bit_equal(a.fisher.weights, b.fisher.weights)
    assert all_bit_equal(a.fisher.biases, b.fisher.biases)
    assert (a.projector is None) == (b.projector is None)
    if a.projector is not None:
        assert all_bit_equal([a.projector.w1, a.projector.b1, a.projector.w2, a.projector.b2],
                             [b.projector.w1, b.projector.b1, b.projector.w2, b.projector.b2])
    assert a.history == b.history
    assert json.dumps(a.history) == json.dumps(b.history)  # key order too


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def engine_states(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    return build_state(
        # At least one id per centroid, so that every cluster can have a member.
        ids=draw(st.lists(st.integers(-(2**70), 2**70), min_size=max(sizes), max_size=6, unique=True)),
        sizes=sizes,
        sub_dim=draw(st.integers(1, 3)),
        projector_hidden=draw(st.none() | st.tuples(st.integers(1, 3), st.integers(1, 3))),
        seed=draw(st.integers(0, 2**32 - 1)),
        history=draw(st.lists(st.dictionaries(st.text(), json_values, max_size=4), max_size=3)),
        session=draw(st.integers(0, 20)),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(engine_states())
    def test_load_of_save_is_the_same_state(self, tmp_path_factory, state):
        path = tmp_path_factory.mktemp("rt") / "s.state"
        save_state(state, path)
        loaded = load_state(path)
        assert_same_state(state, loaded)
        first = path.read_bytes()
        save_state(loaded, path)
        assert path.read_bytes() == first

    @settings(max_examples=60, deadline=None)
    @given(engine_states())
    def test_core_bytes_is_the_size_of_a_save_without_history(self, tmp_path_factory, state):
        path = tmp_path_factory.mktemp("core") / "s.state"
        save_state(dataclasses.replace(state, history=[]), path)
        assert state_core_bytes(state) == path.stat().st_size

    @pytest.mark.parametrize(
        "ids",
        [
            [3, 0, 17, 2**40],
            ["doc-b", "ä-dok", "文档", "🙂", ""],
            [5, "5", "ünï", -1, "x"],
        ],
        ids=["int", "str", "mixed"],
    )
    # The Fisher is always stored. One that anchors nothing is all zeros, not absent.
    @pytest.mark.parametrize("fisher", ["zeros", "drawn"], ids=["no-fisher", "fisher"])
    @pytest.mark.parametrize("projector", [None, (3, 5)], ids=["no-projector", "projector"])
    def test_id_kinds_and_optional_parts(self, tmp_path, ids, fisher, projector):
        # Doc ids are ints. A save refuses a state holding a str id, which only
        # a hand-built state can hold, and a file edited to hold one is refused on load.
        state = build_state(ids, [3, 2], 2, projector, seed=len(ids),
                            history=[{"z": 1, "a": [0.1, None], "m": {"vert": 0.5}}])
        if fisher == "zeros":
            state.fisher = FisherDiag(np.zeros_like(state.fisher.w), np.zeros_like(state.fisher.b),
                                      layout=state.fisher.layout)
        path = tmp_path / "s.state"
        if all(type(i) is int for i in ids):
            save_state(state, path)
            assert_same_state(state, load_state(path))
            return
        bad = next(i for i in ids if type(i) is not int)
        with pytest.raises(ValueError, match=f"^cannot save doc id {re.escape(repr(bad))}: it has type str"):
            save_state(state, path)
        assert list(tmp_path.iterdir()) == []
        state.codes = dict(enumerate(state.codes.values()))
        save_state(state, path)
        rewrite(path, lambda meta, arrays: meta.update(ids=ids))
        with pytest.raises(ValueError, match="malformed state: doc ids must be integers$"):
            load_state(path)

    @pytest.mark.parametrize("bad", ["d7", True, np.int64(7)], ids=["str", "bool", "numpy-int"])
    def test_save_refuses_an_id_that_is_not_an_int(self, tmp_path, bad):
        # Unchecked, a str or bool id saved a file that load_state refuses, and
        # a numpy integer failed inside json.dumps with a TypeError.
        state = build_state([5, bad, 9], [3, 2], 2, None, seed=0)
        message = f"^cannot save doc id {re.escape(repr(bad))}: it has type {type(bad).__name__}; doc ids are ints$"
        with pytest.raises(ValueError, match=message):
            save_state(state, tmp_path / "s.state")
        with pytest.raises(ValueError, match=message):
            state_core_bytes(state)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [(1, 2), 1.5, True, None, b"id", "d7", np.int64(7)])
    def test_engine_refuses_ids_a_file_cannot_hold(self, bad):
        from ipqgr.harness import Engine

        cfg = ExperimentConfig(decoder_steps=5, v_epochs=0)
        data = synthetic.generate(60, 16, 5, RandomSource(0).derive("synthetic"))
        engine = Engine(cfg)
        with pytest.raises(ValueError, match=f"has type {type(bad).__name__}"):
            engine.build_base([*data.doc_ids[:-1], bad], data.doc_embs, [])
        assert engine.state is None
        engine.build_base(data.doc_ids[:50], data.doc_embs[:50], [])
        issued = dict(engine.state.codes)
        with pytest.raises(ValueError, match=f"has type {type(bad).__name__}"):
            engine.ingest(1, [100, bad], data.doc_embs[50:52])
        assert engine.state.session == 0 and engine.state.codes == issued


# -- resume at every stop point ----------------------------------------------------


def synthetic_run():
    cfg = ExperimentConfig(decoder_steps=20, v_epochs=0, seed=7)
    data = synthetic.generate(120, 16, 10, RandomSource(7).derive("synthetic"))
    return cfg, data


def token_run():
    cfg = ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=10, seed=3)
    data = synthetic.generate(60, 8, 5, RandomSource(3).derive("synthetic"), with_tokens=True,
                              token_range=(5, 12))
    return cfg, data


RUNS = {"synthetic": synthetic_run, "tokens": token_run}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Report bytes and final state file of each run done in one go."""
    out = {}
    for name, make in RUNS.items():
        report, state = run_experiment(*make())
        path = tmp_path_factory.mktemp(name) / "final.state"
        save_state(state, path)
        out[name] = (canonical_report_bytes(report), path.read_bytes())
    return out


@pytest.mark.parametrize("stop", [0, 1, 2, 3])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_resume_after_every_session_is_byte_identical(tmp_path, uninterrupted, run, stop):
    cfg, inputs = RUNS[run]()
    _, mid = run_experiment(cfg, inputs, stop_after_session=stop)
    save_state(mid, tmp_path / "mid.state")
    report, final = run_experiment(cfg, inputs, resume_state=load_state(tmp_path / "mid.state"))
    save_state(final, tmp_path / "final.state")
    assert (canonical_report_bytes(report), (tmp_path / "final.state").read_bytes()) == uninterrupted[run]


# -- malformed payloads under a valid checksum ---------------------------------


def rewrite(path, edit=None, cut_text=0):
    """Re-encode the state file at `path` after `edit(meta, arrays)`, with a valid checksum.

    The payload is an 8-byte metadata length, the JSON metadata, then each
    array its counts call for, in that order, starting at a multiple of 16
    bytes into the file.
    """
    data = path.read_bytes()
    (n_text,) = struct.unpack_from("<Q", data, 48)
    meta = json.loads(data[56 : 56 + n_text])
    arrays, end = {}, 56 + n_text
    for name, (dtype, shape) in _array_layout(meta).items():
        start = -(-end // 16) * 16
        arrays[name] = np.frombuffer(data, dtype, math.prod(shape), start).reshape(shape).copy()
        end = start + arrays[name].nbytes
    assert end == len(data)
    if edit is not None:
        edit(meta, arrays)
    text = json.dumps(meta).encode()
    text = text[: len(text) - cut_text]
    payload = struct.pack("<Q", len(text)) + text
    for a in arrays.values():
        payload += b"\0" * (-(48 + len(payload)) % 16) + a.tobytes()
    path.write_bytes(b"IPQS" + struct.pack("<I", STATE_VERSION) + hashlib.sha256(payload).digest()
                     + struct.pack("<Q", len(payload)) + payload)


def drop_embeddings(meta, arrays):
    del arrays["embeddings"]


def change_dim(by_groups):
    """An edit moving the codebook dim by `by_groups` times the group count; the arrays stay."""

    def edit(meta, arrays):
        meta["codebook"]["dim"] += by_groups * len(meta["codebook"]["sizes"])

    return edit


def negative_session(meta, arrays):
    meta["session"] = -3


def flag_two(meta, arrays):
    arrays["member"][0, 0] = 2


def code_out_of_range(meta, arrays):
    arrays["codes"][0, 1] = meta["codebook"]["sizes"][1]


def empty_cluster(meta, arrays):
    """Unflag every member of centroid 0 in group 0, leaving it none."""
    arrays["member"][arrays["codes"][:, 0] == 0, 0] = 0


MALFORMED = {
    "missing-array": (dict(edit=drop_embeddings), r"array '\w+' runs past the payload"),
    "wrong-shape": (dict(edit=change_dim(1)), r"array '\w+' runs past the payload"),
    "narrower-shape": (dict(edit=change_dim(-1)), r"\d+ bytes after the last array"),
    "member-flag-two": (dict(edit=flag_two), "array 'member' holds a flag other than 0 or 1"),
    "code-out-of-range": (dict(edit=code_out_of_range), "a code is out of range"),
    "empty-cluster": (dict(edit=empty_cluster), "group 0, centroid 0 has no member"),
    "truncated-json": (dict(cut_text=7), "unreadable metadata"),
    "negative-session": (dict(edit=negative_session), r"metadata\.session must be an integer >= 0"),
}


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    cfg, inputs = synthetic_run()
    _, state = run_experiment(cfg, inputs, stop_after_session=1)
    path = tmp_path_factory.mktemp("saved") / "s.state"
    save_state(state, path)
    return path.read_bytes()


def test_rewrite_without_edits_loads(tmp_path, saved_state):
    path = tmp_path / "s.state"
    path.write_bytes(saved_state)
    rewrite(path)
    assert load_state(path).session == 1


def test_metadata_holds_only_the_counts(saved_state):
    (n_text,) = struct.unpack_from("<Q", saved_state, 48)
    meta = json.loads(saved_state[56 : 56 + n_text])
    assert list(meta) == ["session", "ids", "history", "codebook", "projector"]
    assert list(meta["codebook"]) == ["dim", "sizes"] and meta["projector"] is None


def test_version_3_is_refused_by_name(tmp_path, capsys, saved_state):
    # Version 3 listed every array's dtype and shape; version 4 derives them.
    path = tmp_path / "v3.state"
    path.write_bytes(saved_state[:4] + struct.pack("<I", 3) + saved_state[8:])
    with pytest.raises(ValueError, match="state version 3 holds a per-array table"):
        load_state(path)
    code = cli.main(["evaluate", "--state", str(path), "--queries", str(tmp_path / "q.emb"),
                     "--out", str(tmp_path / "run.tsv")])
    assert code == 2
    assert "state version 3 holds a per-array table" in capsys.readouterr().err


def test_version_4_is_refused_by_name(tmp_path, capsys, saved_state):
    # Version 4 stored a copy of every member's sub-vector; version 5 flags the documents.
    path = tmp_path / "v4.state"
    path.write_bytes(saved_state[:4] + struct.pack("<I", 4) + saved_state[8:])
    with pytest.raises(ValueError, match="state version 4 holds member vectors and is not read"):
        load_state(path)
    code = cli.main(["ingest", "--state", str(path), "--docs", str(tmp_path / "new.emb")])
    assert code == 2
    assert "state version 4 holds member vectors" in capsys.readouterr().err


def test_version_5_is_refused_by_name(tmp_path, capsys, saved_state):
    # Version 5 stored the Fisher's group sizes apart from the codebook's, or a null Fisher.
    path = tmp_path / "v5.state"
    path.write_bytes(saved_state[:4] + struct.pack("<I", 5) + saved_state[8:])
    with pytest.raises(ValueError, match="state version 5 holds a separately sized Fisher and is not read"):
        load_state(path)
    code = cli.main(["ingest", "--state", str(path), "--docs", str(tmp_path / "new.emb")])
    assert code == 2
    assert "state version 5 holds a separately sized Fisher" in capsys.readouterr().err


def test_save_refuses_a_decoder_unlike_the_codebook(tmp_path):
    # The file stores the codebook's group sizes only, so the decoder must share them.
    state = build_state([1, 2], [3, 2], 2, None, seed=0)
    state.decoder = DecoderParams.zeros([2, 3], dim=4)
    with pytest.raises(ValueError, match=r"decoder group sizes \[2, 3\] differ from the codebook's \[3, 2\]"):
        save_state(state, tmp_path / "s.state")
    with pytest.raises(ValueError, match="differ from the codebook's"):
        state_core_bytes(state)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sizes", [[2, 2], [3, 2, 1], [3]], ids=["fewer-rows", "more-groups", "fewer-groups"])
def test_save_refuses_a_fisher_unlike_the_codebook(tmp_path, sizes):
    # So does the Fisher, which version 5 stored with sizes of its own.
    state = build_state([1, 2, 3], [3, 2], 2, None, seed=0)
    state.fisher = FisherDiag([np.ones((k, 4)) for k in sizes], [np.ones(k) for k in sizes])
    message = rf"fisher group sizes {re.escape(str(sizes))} differ from the codebook's \[3, 2\]"
    with pytest.raises(ValueError, match=message):
        save_state(state, tmp_path / "s.state")
    with pytest.raises(ValueError, match=message):
        state_core_bytes(state)
    assert list(tmp_path.iterdir()) == []


def test_save_refuses_members_unlike_their_flags(tmp_path):
    # The file stores one row of vectors and flags per coded document.
    state = build_state([1, 2, 3], [3, 2], 2, None, seed=0)
    group = state.codebook.groups[1]
    group.vecs = group.vecs[:-1]
    with pytest.raises(ValueError, match="3 coded docs but 2 rows of group 1's vectors"):
        save_state(state, tmp_path / "s.state")
    with pytest.raises(ValueError, match="3 coded docs but 2 rows of group 1's vectors"):
        state_core_bytes(state)
    assert list(tmp_path.iterdir()) == []


def s_run(variant):
    """The S corpus (N=500, D=16, M=4, K=8) under `variant`, with a short decoder budget."""
    cfg = ExperimentConfig(decoder_steps=10).with_variant(variant)
    data = synthetic.generate(500, 16, 25, RandomSource(0).derive("synthetic"))
    return cfg, data


ENGINE_RUNS = {**{v: lambda v=v: s_run(v) for v in ("full", "base", "pq-re", "pq-dis-md")}, "tokens": token_run}


@pytest.mark.parametrize("run", sorted(ENGINE_RUNS))
def test_engine_members_survive_save_and_load_after_every_session(tmp_path, run):
    # A loaded cluster's members are its flagged documents' sub-vectors, sorted by code.
    cfg, inputs = ENGINE_RUNS[run]()
    state = None
    for t in range(len(cfg.fractions)):
        _, state = run_experiment(cfg, inputs, resume_state=state, stop_after_session=t)
        save_state(state, tmp_path / "s.state")
        loaded = load_state(tmp_path / "s.state")
        for ga, gb in zip(state.codebook.groups, loaded.codebook.groups, strict=True):
            assert ga.members == gb.members
            assert all_bit_equal(ga.member_vecs, gb.member_vecs)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_is_a_named_value_error(tmp_path, capsys, saved_state, case):
    kwargs, message = MALFORMED[case]
    path = tmp_path / "s.state"
    path.write_bytes(saved_state)
    rewrite(path, **kwargs)
    with pytest.raises(ValueError, match=f"malformed state: {message}"):
        load_state(path)
    code = cli.main(["ingest", "--state", str(path), "--docs", str(tmp_path / "new.emb")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed state: ")


@pytest.mark.parametrize("where", [56, 60, -1], ids=["json-open", "json-body", "last-array"])
def test_corruption_is_a_checksum_mismatch_wherever_it_lands(tmp_path, saved_state, where):
    # Without the checksum, a flipped metadata byte would read as malformed metadata.
    data = bytearray(saved_state)
    data[where] ^= 0x55
    path = tmp_path / "s.state"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum mismatch"):
        load_state(path)


JSON_JUNK = [None, True, -1, 0, 2**70, 1.5, "x", [], [1, "a"], {}, {"a": 1}]


def meta_paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from meta_paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj[:3]):
            yield from meta_paths(v, prefix + (i,))


@settings(max_examples=150, deadline=None)
@given(pick=st.integers(0, 10**6), junk=st.sampled_from(JSON_JUNK))
def test_any_metadata_edit_loads_or_is_a_value_error(tmp_path_factory, saved_state, pick, junk):
    path = tmp_path_factory.mktemp("fuzz") / "s.state"
    path.write_bytes(saved_state)

    def replace_one(meta, arrays):
        paths = [p for p in meta_paths(meta) if p]
        *parents, last = paths[pick % len(paths)]
        target = meta
        for key in parents:
            target = target[key]
        target[last] = junk

    rewrite(path, edit=replace_one)
    try:
        load_state(path)
    except ValueError as exc:
        assert "malformed state" in str(exc)
