"""End-to-end tests for the experiment driver, persistence, and the CLI."""

import dataclasses
import errno
import hashlib
import json
import pickle
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from ipqgr import cli, harness, synthetic, vector_core
from ipqgr.decoder import docid_log_prob
from ipqgr.repr_learner import doc_embedding
from ipqgr.metrics import CUTOFF
from ipqgr.rehearsal import build_memory_bank, generate_pseudo_queries, max_perturb_dims
from ipqgr.harness import (
    VARIANTS,
    Engine,
    ExperimentConfig,
    ExperimentInputs,
    canonical_report_bytes,
    load_state,
    run_experiment,
    run_synthetic_benchmark,
    save_state,
    split_benchmark,
)
from ipqgr.rng import RandomSource


def small_config(**overrides):
    cfg = ExperimentConfig(decoder_steps=20, v_epochs=0)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def small_inputs(n_docs=120, seed=0, n_clusters=10):
    return synthetic.generate(n_docs, 16, n_clusters, RandomSource(seed).derive("synthetic"))


# The smallest value beyond the engine's magnitude bound, harness.MAX_ABS.
BEYOND = float(np.nextafter(1e30, np.inf))


def payload_bytes(state) -> bytes:
    """The bytes a save of `state` would write after its header."""
    return b"".join(bytes(memoryview(b)) for b in harness._payload(state, state.history))


class TestSplitBenchmark:
    def test_default_fractions_give_exact_sizes(self):
        splits = split_benchmark(100, (0.6, 0.1, 0.1, 0.1, 0.1), RandomSource(0))
        assert [len(s) for s in splits] == [60, 10, 10, 10, 10]
        assert sorted(d for s in splits for d in s) == list(range(100))

    def test_sizes_with_remainders(self):
        splits = split_benchmark(7, (0.5, 0.5), RandomSource(1))
        assert sorted(len(s) for s in splits) == [3, 4]

    def test_single_fraction(self):
        (only,) = split_benchmark(10, (1.0,), RandomSource(2))
        assert sorted(only) == list(range(10))

    def test_deterministic(self):
        a = split_benchmark(50, (0.6, 0.4), RandomSource(3))
        b = split_benchmark(50, (0.6, 0.4), RandomSource(3))
        assert a == b


class TestExperimentConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dim=10, m_groups=4).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(fractions=(0.5, 0.4)).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(threshold_mode="all").validate()
        ExperimentConfig(threshold_mode="recluster").validate()
        with pytest.raises(ValueError, match="c_repeats"):
            ExperimentConfig(random_bank=True, c_repeats=0).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("v_epochs", -1)],
    )
    def test_span_settings_are_validated(self, field, value):
        # Each of these would otherwise surface only partway through a token run.
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("m_groups", 0, "m_groups must be at least 1, got 0"),
            ("dim", 0, "dim must be at least 1, got 0"),
            ("k_clusters", 0, "k_clusters must be at least 1, got 0"),
        ],
        ids=["m_groups-0", "dim-0", "k_clusters-0"],
    )
    def test_counts_below_one_are_refused(self, field, value, message):
        # dim and k_clusters used to fail inside k-means without naming the field.
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, values",
        [
            ("lam", [-0.5, float("nan"), float("inf")]),
            ("decoder_steps", [-1]),
            ("fractions", [(float("nan"), 0.5, 0.5), (1.5, -0.5)]),
        ],
    )
    def test_training_values_that_break_a_run_are_refused(self, field, values):
        # A NaN or infinite lam stalls every anchored session; both used to be
        # accepted and run to a silent result. `split_benchmark` does not check
        # the fractions again.
        for value in values:
            with pytest.raises(ValueError, match=field):
                ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["c_repeats", "n_q", "lam", "decoder_steps"])
    def test_zero_is_a_legal_off(self, field):
        ExperimentConfig(**{field: 0}).validate()

    def test_variants_cover_the_ablation_grid(self):
        assert set(VARIANTS) == {
            "full", "base", "pq", "pq-re", "pq-dis", "pq-dis-ad", "pq-dis-md",
            "no-ewc", "no-mle-dneg", "no-mle-q", "random-bank",
        }
        base = ExperimentConfig().with_variant("base")
        assert (base.c_repeats, base.n_q, base.lam) == (0, 0, 0.0)
        assert not base.enable_mle_dneg and base.threshold_mode == "none"
        assert ExperimentConfig().with_variant("no-ewc").lam == 0.0
        assert ExperimentConfig().with_variant("no-mle-q").n_q == 0
        with pytest.raises(ValueError, match="unknown variant 'bespoke'"):
            ExperimentConfig().with_variant("bespoke")

    def test_variant_label_must_match_its_preset(self):
        # A stored label could contradict its fields: the report would say "base"
        # about a full-model run. A config now holds no label, and naming a
        # preset sets exactly that preset's fields.
        with pytest.raises(ValueError, match="^unknown config keys: variant$"):
            ExperimentConfig.from_dict({"variant": "base"})
        for name, fields in VARIANTS.items():
            cfg = ExperimentConfig().with_variant(name)
            assert {k: getattr(cfg, k) for k in fields} == fields
            cfg.validate()
        with pytest.raises(ValueError, match="unknown variant 'nonsense'"):
            ExperimentConfig().with_variant("nonsense")

    def test_with_variant_sets_its_presets_fields(self):
        # A variant is a preset of other fields, not a label the config keeps:
        # it sets its own fields and leaves every other one as it was.
        cfg = ExperimentConfig(seed=4, lam=0.3, fractions=(0.5, 0.5)).with_variant("no-mle-q")
        assert cfg == ExperimentConfig(seed=4, lam=0.3, fractions=(0.5, 0.5), n_q=0)
        assert ExperimentConfig(lam=0.3).with_variant("no-ewc").lam == 0.0
        stacked = ExperimentConfig().with_variant("no-ewc").with_variant("no-mle-q")
        assert stacked == ExperimentConfig(lam=0.0, n_q=0)
        assert ExperimentConfig(n_q=1).with_variant("full") == ExperimentConfig(n_q=1)
        assert "variant" not in ExperimentConfig().with_variant("base").to_dict()

    # TestCli covers str, float and bool for a number field, and a bare number for fractions.
    @pytest.mark.parametrize(
        "d, message",
        [
            ({"fractions": [0.5, "0.5"]}, "config fractions must be a list of numbers"),
            ({"threshold_mode": 1}, "config threshold_mode must be a string, got 1"),
            ({"random_bank": 1}, "config random_bank must be true or false, got 1"),
            ([], "a config must be a JSON object"),
        ],
        ids=["str-in-fractions", "int-mode", "int-switch", "list-config"],
    )
    def test_dict_values_of_the_wrong_type_are_refused(self, d, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(d)

    def test_dict_float_fields_take_integers(self):
        cfg = ExperimentConfig.from_dict({"lam": 1, "fractions": [1]})
        assert (cfg.lam, cfg.fractions) == (1, (1,))
        cfg.validate()

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(seed=9).with_variant("no-ewc")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_dict_keys_are_named(self):
        with pytest.raises(ValueError, match="unknown config keys: dimm, zeta"):
            ExperimentConfig.from_dict({"zeta": 1, "dim": 16, "dimm": 16})

    def test_a_ranking_stops_at_the_metric_cutoff(self):
        # Reports score MRR@CUTOFF, so the ranking depth is that cutoff, not a setting.
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert len(names) == 13 and "top_n" not in names
        cfg = ExperimentConfig()
        assert cfg.top_n == CUTOFF and "top_n" not in cfg.to_dict()
        with pytest.raises(AttributeError):
            cfg.top_n = 50
        with pytest.raises(ValueError, match="^unknown config keys: top_n$"):
            ExperimentConfig.from_dict({"top_n": 10})

    def test_misspelled_benchmark_override_is_refused(self):
        with pytest.raises(TypeError, match="decoder_stepz"):
            run_synthetic_benchmark("full", seed=0, n_docs=60, decoder_stepz=1)


class TestStatePersistence:
    def make_state(self, tmp_path):
        cfg = small_config()
        _, state = run_experiment(cfg, small_inputs(), stop_after_session=1)
        return state

    def test_round_trip_is_bit_identical(self, tmp_path):
        state = self.make_state(tmp_path)
        p1, p2 = tmp_path / "a.state", tmp_path / "b.state"
        save_state(state, p1)
        save_state(load_state(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_does_not_copy_the_payload(self, tmp_path):
        path = tmp_path / "m.state"
        save_state(self.make_state(tmp_path), path)
        tracemalloc.start()
        try:
            state = load_state(path)  # noqa: F841 (held, so the state counts as still allocated)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Beyond the state it returns, loading allocates less than half the file.
        assert peak <= held + path.stat().st_size // 2

    def test_loaded_state_holds_one_copy_of_each_document(self, tmp_path):
        path = tmp_path / "h.state"
        save_state(self.make_state(tmp_path), path)
        tracemalloc.start()
        try:
            state = load_state(path)  # noqa: F841 (held, so the state counts as still allocated)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The vectors are held once, as the file holds them; codes and member rows add the rest.
        assert held <= 1.5 * path.stat().st_size

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.state"
        save_state(self.make_state(tmp_path), path)
        before = path.read_bytes()
        _, newer = run_experiment(small_config(), small_inputs(), stop_after_session=2)

        class DiskFull:
            """A file that takes the 48-byte header, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.room = fh, 48

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = bytes(data)
                self.fh.write(data[: self.room])
                if len(data) > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)

        def open_full(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return DiskFull(fh) if "w" in mode else fh

        monkeypatch.setattr(harness, "open", open_full, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_state(newer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_capped_k_means_base_saves_and_loads(self, tmp_path, monkeypatch):
        # After one Lloyd iteration the final reassignment left centroid 3 of
        # this base without a member: its state saved, then failed to load.
        monkeypatch.setattr(vector_core, "KMEANS_MAX_ITERS", 1)
        pts = np.random.default_rng(1066).normal(size=(40, 2))
        engine = Engine(ExperimentConfig(dim=2, m_groups=1, k_clusters=8, decoder_steps=0, seed=390))
        engine.build_base(list(range(40)), pts, [])
        st = engine.state
        assert all(st.codebook.quantize(p) == st.codes[i] for i, p in enumerate(pts))
        save_state(st, tmp_path / "capped.state")
        assert load_state(tmp_path / "capped.state").codes == st.codes

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.state"
        path.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 48)
        with pytest.raises(ValueError, match="bad magic"):
            load_state(path)

    def test_corruption_detected(self, tmp_path):
        state = self.make_state(tmp_path)
        path = tmp_path / "c.state"
        save_state(state, path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_state(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.state"
        save_state(self.make_state(tmp_path), path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError, match=f"truncated payload \\({len(data) - 58} of {len(data) - 48} bytes\\)"):
            load_state(path)

    def test_newer_version_refused(self, tmp_path):
        state = self.make_state(tmp_path)
        path = tmp_path / "v.state"
        save_state(state, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="newer than supported"):
            load_state(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_pickle_state_is_refused_without_running(self, tmp_path, version):
        # Versions 1 and 2 held a pickle. This one opens a marker file when unpickled.
        marker = tmp_path / "ran"
        payload = pickle.dumps(OpensOnUnpickle(str(marker)), protocol=4)
        path = tmp_path / "old.state"
        path.write_bytes(
            b"IPQS" + struct.pack("<I", version) + hashlib.sha256(payload).digest()
            + struct.pack("<Q", len(payload)) + payload
        )
        with pytest.raises(ValueError, match=f"state version {version} holds a pickle"):
            load_state(path)
        assert not marker.exists()
        pickle.loads(payload).close()  # the payload is live: unpickling it runs code
        assert marker.exists()


class OpensOnUnpickle:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestRunExperiment:
    def test_generate_returns_the_inputs_a_run_takes(self):
        # One class declares the corpus fields; from_synthetic is a shallow copy.
        data = synthetic.generate(20, 16, 3, RandomSource(0).derive("synthetic"))
        assert type(data) is ExperimentInputs is synthetic.ExperimentInputs
        copy = ExperimentInputs.from_synthetic(data)
        assert copy is not data and copy == data and copy.doc_embs is data.doc_embs

    def test_inputs_are_numbered_by_their_rows(self):
        # The ids are read from the arrays, so no stored list can disagree with them.
        data = synthetic.generate(20, 16, 3, RandomSource(0).derive("synthetic"))
        names = {f.name for f in dataclasses.fields(ExperimentInputs)}
        assert not names & {"doc_ids", "test_query_ids", "train_query_ids"}
        assert data.doc_ids == data.test_query_ids == data.train_query_ids == list(range(20))
        unjudged = ExperimentInputs(data.doc_embs[:5], data.test_query_embs[:3], {})
        assert (unjudged.doc_ids, unjudged.test_query_ids, unjudged.train_query_ids) == ([0, 1, 2, 3, 4], [0, 1, 2], [])

    def test_a_token_corpus_is_its_tokens(self):
        # generate(with_tokens=True) returns no rows, and the ids count the token docs.
        data = synthetic.generate(20, 8, 3, RandomSource(0).derive("synthetic"), with_tokens=True)
        assert data.doc_embs is None and len(data.token_docs) == 20
        assert data.doc_ids == data.test_query_ids == list(range(20))
        tokens = ExperimentInputs(None, data.test_query_embs[:3], {}, token_docs=data.token_docs[:4])
        assert tokens.doc_ids == [0, 1, 2, 3]

    @pytest.mark.parametrize("given", ["both", "neither"])
    def test_a_corpus_holds_rows_or_tokens(self, given):
        # Unchecked, rows beside token docs were never read, and no documents failed at the first session.
        rows = np.zeros((4, 8)) if given == "both" else None
        tokens = [np.zeros((3, 8))] * 4 if given == "both" else None
        with pytest.raises(ValueError, match="^a corpus holds doc_embs or token_docs, one of the two$"):
            ExperimentInputs(rows, np.zeros((2, 8)), {}, token_docs=tokens)

    def test_report_shape_and_schema(self):
        report, state = run_experiment(small_config(), small_inputs())
        assert report["schema"].startswith("ipqgr-report/")
        assert len(report["sessions"]) == 5
        assert len(report["session_matrix"]) == 5
        assert all(len(row) == t + 1 for t, row in enumerate(report["session_matrix"]))
        assert set(report["continual"]) == {"ap", "bwt", "fwt"}
        assert state.session == 4
        # State size is tracked for every session.
        assert all(rec["state_bytes"] > 0 for rec in report["sessions"])

    def test_single_session_run(self):
        cfg = small_config(fractions=(1.0,))
        report, _ = run_experiment(cfg, small_inputs())
        assert report["continual"]["bwt"] is None
        assert report["continual"]["fwt"] is None
        # With every document in the base session, VERT is the plain metric
        # over the full query set, which also equals the only matrix cell.
        assert report["session_matrix"][0][0] == pytest.approx(
            report["sessions"][0]["metrics"]["vert"]
        )

    def test_reports_are_deterministic(self):
        r1, _ = run_experiment(small_config(), small_inputs())
        r2, _ = run_experiment(small_config(), small_inputs())
        assert canonical_report_bytes(r1) == canonical_report_bytes(r2)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        full, _ = run_experiment(small_config(), small_inputs())
        _, mid = run_experiment(small_config(), small_inputs(), stop_after_session=2)
        path = tmp_path / "mid.state"
        save_state(mid, path)
        resumed, _ = run_experiment(small_config(), small_inputs(), resume_state=load_state(path))
        assert canonical_report_bytes(resumed) == canonical_report_bytes(full)

    def test_a_test_qrel_naming_a_document_not_in_the_corpus_is_refused(self):
        # Unchecked, the run ends in a bare KeyError: 9999.
        data = small_inputs()
        q = data.test_query_ids[3]
        data.test_qrels[q] = 9999
        message = f"^test query {q} is judged by document 9999, which is not in the corpus$"
        with pytest.raises(ValueError, match=message):
            run_experiment(small_config(), data)

    def test_timing_is_excluded_from_canonical_bytes(self):
        r, _ = run_experiment(small_config(), small_inputs(), include_timing=True)
        assert r["timing"]["wall_seconds"] > 0
        assert b"timing" not in canonical_report_bytes(r)

    def test_reclustering_rewrites_old_codes(self):
        cfg = small_config().with_variant("pq-re")
        cfg.decoder_steps = 20
        report, _ = run_experiment(cfg, small_inputs())
        assert report["decision_totals"].get("reclustered_old_codes_changed", 0) > 0

    def test_reclustering_bank_is_found_under_the_current_codes(self, monkeypatch):
        # The bank's index must hold the old documents' rewritten codes: each bank
        # document is at most max_perturb_dims(M) positions from a new document.
        calls = []

        def keep(new_codes, *args):
            calls.append((new_codes, build_memory_bank(new_codes, *args)))
            return calls[-1][1]

        monkeypatch.setattr(harness, "build_memory_bank", keep)
        cfg = small_config(seed=3, fractions=(0.7, 0.3)).with_variant("pq-re")
        _, state = run_experiment(cfg, small_inputs(n_docs=200))
        ((new_codes, bank),) = calls
        assert bank.doc_ids()
        o_max = max_perturb_dims(cfg.m_groups)
        for i in bank.doc_ids():
            assert i not in new_codes
            assert any(1 <= sum(a != b for a, b in zip(state.codes[i], state.codes[n])) <= o_max
                       for n in new_codes)

    def test_threshold_decisions_are_logged(self):
        report, _ = run_experiment(small_config(), small_inputs())
        totals = report["decision_totals"]
        # 48 incremental docs, one decision per group each.
        assert sum(totals.values()) == 48 * 4
        assert set(totals) <= {"unchanged", "changed", "added"}

    def test_token_corpus_path_uses_the_projector(self):
        data = synthetic.generate(
            60, 8, 5, RandomSource(1).derive("synthetic"), with_tokens=True, token_range=(5, 12)
        )
        cfg = ExperimentConfig(
            dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=10,
            fractions=(0.7, 0.3),
        )
        report, state = run_experiment(cfg, data)
        assert state.projector is not None
        assert len(report["sessions"]) == 2

    def test_token_base_stores_the_representations_it_clustered(self):
        data = synthetic.generate(
            60, 8, 5, RandomSource(2).derive("synthetic"), with_tokens=True, token_range=(5, 12)
        )
        cfg = ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=2)
        engine = Engine(cfg)
        engine.build_base(data.doc_ids, data.token_docs, [])
        st, d = engine.state, engine.state.codebook.sub_dim
        vectors = st.codebook.vectors()
        for g, group in enumerate(st.codebook.groups):
            for c, members in enumerate(group.member_vecs):
                stored = [vectors[r, d * g : d * (g + 1)]
                          for r, i in enumerate(st.codes) if st.codes[i][g] == c]
                assert [v.tobytes() for v in members] == [v.tobytes() for v in stored]

    def test_token_state_reads_queries_through_its_projector(self, monkeypatch):
        # A query is a one-token document: the decoder, trained on projected
        # documents, sees it projected too. Tokens (8 wide) and the codebook
        # space (4 wide) differ, so a raw query could not even be scored.
        batches, train_session = [], harness.train_session

        def capture(*args):
            batches.append(args[2])
            return train_session(*args)

        monkeypatch.setattr(harness, "train_session", capture)
        data = synthetic.generate(
            60, 8, 5, RandomSource(2).derive("synthetic"), with_tokens=True, token_range=(5, 12)
        )
        cfg = ExperimentConfig(dim=4, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=10)
        engine = Engine(cfg)
        pairs = list(zip(data.train_query_embs[:50], data.doc_ids[:50]))
        engine.build_base(data.doc_ids[:50], data.token_docs[:50], pairs)
        st = engine.state
        (batch,) = batches
        projected = st.projector.forward(data.train_query_embs[:50])
        assert batch.vecs[50:].tobytes() == projected.tobytes()

        queries = data.test_query_embs[:5]
        rankings = engine.evaluate(range(5), queries)
        for q, ranking in zip(st.projector.forward(queries), rankings.values()):
            oracle = sorted(((d, docid_log_prob(q, c, st.decoder)) for d, c in st.codes.items()),
                            key=lambda t: (-t[1], t[0]))
            assert ranking == oracle[:CUTOFF]
        with pytest.raises(ValueError, match="^queries are 4 wide, but the projector's input dim is 8$"):
            engine.evaluate([0], projected[:1])


class TestEngineGuards:
    def test_ingest_requires_consecutive_sessions(self):
        cfg = small_config()
        _, state = run_experiment(cfg, small_inputs(), stop_after_session=1)
        engine = Engine(cfg, state)
        from ipqgr.ipq import InvalidStateError

        with pytest.raises(InvalidStateError):
            engine.ingest(5, [999], np.zeros((1, 16)))

    def test_ingest_refuses_token_docs_without_a_projector(self):
        cfg = small_config()
        _, state = run_experiment(cfg, small_inputs(), stop_after_session=1)
        issued = dict(state.codes)
        message = "^document 901 is a 2-D array, but this state has no projector, so it takes embedding rows$"
        with pytest.raises(ValueError, match=message):
            Engine(cfg, state).ingest(2, [900, 901], [np.zeros(16), np.zeros((6, 16))])
        assert state.session == 1
        assert state.codes == issued

    def test_evaluate_before_any_state_is_refused(self):
        from ipqgr.ipq import InvalidStateError

        with pytest.raises(InvalidStateError, match="cannot evaluate from no state"):
            Engine(small_config()).evaluate([0], np.zeros((1, 16)))

    @pytest.mark.parametrize("n_ids", [2, 4])
    def test_evaluate_refuses_ids_and_rows_that_do_not_pair(self, n_ids):
        # Unchecked, 2 ids for 3 rows return 2 rankings, and 4 ids drop id 3 without a word.
        data = small_inputs()
        _, state = run_experiment(small_config(), data, stop_after_session=0)
        with pytest.raises(ValueError, match=f"^{n_ids} query ids but 3 query rows$"):
            Engine(small_config(), state).evaluate(list(range(n_ids)), data.test_query_embs[:3])

    @pytest.mark.parametrize(
        "field, value, mode",
        [("m_groups", 8, "both"), ("m_groups", 8, "recluster"), ("dim", 32, "both")],
        ids=["groups", "groups-recluster", "dim"],
    )
    def test_ingest_refuses_a_config_unlike_the_state(self, field, value, mode):
        # Unchecked, IPQ ignores m_groups, re-clustering fails only once it has
        # clustered, and a 32-wide config takes 16-wide documents.
        _, state = run_experiment(small_config(), small_inputs(), stop_after_session=0)
        issued = dict(state.codes)
        cfg = small_config(**{field: value, "threshold_mode": mode})
        have = {"m_groups": 4, "dim": 16}[field]
        with pytest.raises(ValueError, match=f"^the config's {field} is {value}, but the state's is {have}$"):
            Engine(cfg, state).ingest(1, [900], np.zeros((1, 16)))
        with pytest.raises(ValueError, match=f"^the config's {field} is {value}"):
            run_experiment(cfg, small_inputs(), resume_state=state)
        assert state.session == 0
        assert state.codes == issued

    @pytest.mark.parametrize("repeat", ["issued", "within-session"])
    def test_ingest_refuses_to_reissue_a_docid(self, repeat):
        cfg = small_config()
        _, state = run_experiment(cfg, small_inputs(), stop_after_session=1)
        issued = dict(state.codes)
        doc = next(iter(issued)) if repeat == "issued" else 999
        embs = np.random.default_rng(3).normal(size=(3, 16))
        engine = Engine(cfg, state)
        with pytest.raises(ValueError, match=f"doc id {doc!r}"):
            engine.ingest(2, [998, doc, doc], embs)
        assert state.session == 1
        assert state.codes == issued

    @pytest.mark.parametrize("field, value", [("c_repeats", -1), ("n_q", -1)])
    def test_a_setting_ingest_would_fail_on_is_refused_up_front(self, field, value):
        # `ingest` reads these only after it has issued the session's codes.
        _, state = run_experiment(small_config(), small_inputs(), stop_after_session=0)
        issued = dict(state.codes)
        with pytest.raises(ValueError, match=field):
            Engine(small_config(**{field: value}), state)
        assert state.session == 0
        assert state.codes == issued

    @pytest.mark.parametrize(
        "field, skipped", [("c_repeats", "build_memory_bank"), ("n_q", "generate_pseudo_queries")]
    )
    def test_zero_count_skips_its_part(self, field, skipped, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{skipped} called with {field}=0")

        monkeypatch.setattr(harness, skipped, refuse)
        _, state = run_experiment(small_config(**{field: 0}), small_inputs(), stop_after_session=1)
        info = state.history[1]
        assert info["bank_size" if field == "c_repeats" else "n_pseudo_pairs"] == 0

    @pytest.mark.parametrize("mode", ["both", "recluster"])
    def test_a_failed_ingest_leaves_the_state_as_it_was(self, mode, monkeypatch):
        # Training fails after the session's codes are known; none of them may
        # reach the state, and re-clustering may not rewrite the old ones.
        cfg = small_config(threshold_mode=mode)
        data = small_inputs()
        engine = Engine(cfg)
        engine.build_base(data.doc_ids[:100], data.doc_embs[:100], [])
        st = engine.state
        issued, sizes = dict(st.codes), st.codebook.sizes()

        def fail(*args, **kwargs):
            raise RuntimeError("training failed")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "train_session", fail)
            with pytest.raises(RuntimeError, match="training failed"):
                engine.ingest(1, data.doc_ids[100:], data.doc_embs[100:])
        assert st.session == 0 and st.codes == issued
        assert st.codebook.sizes() == sizes
        assert [len(g.vecs) for g in st.codebook.groups] == [100] * cfg.m_groups
        engine.ingest(1, data.doc_ids[100:], data.doc_embs[100:])
        assert st.session == 1 and len(st.codes) == 120
        assert [len(g.vecs) for g in st.codebook.groups] == [120] * cfg.m_groups

    def test_evaluate_sees_codes_issued_through_another_engine(self):
        # Two engines on one state: rankings follow the state's codes, whichever
        # engine issued them.
        cfg = small_config()
        data = small_inputs()
        a = Engine(cfg)
        a.build_base(data.doc_ids[:80], data.doc_embs[:80], [])
        queries = data.doc_embs[80:]
        a.evaluate(range(40), queries)
        b = Engine(cfg, a.state)
        b.ingest(1, data.doc_ids[80:], data.doc_embs[80:])
        got = a.evaluate(range(40), queries)
        assert got == b.evaluate(range(40), queries)
        new = set(data.doc_ids[80:])
        assert any(d in new for ranking in got.values() for d, _ in ranking)

    @pytest.mark.parametrize("n_embs, n_tokens", [(2, None), (4, None), (3, 2)])
    def test_ingest_refuses_mismatched_lengths(self, n_embs, n_tokens):
        cfg = small_config()
        _, state = run_experiment(cfg, small_inputs(), stop_after_session=1)
        issued = dict(state.codes)
        # Rows, or as many token docs as n_tokens: either way the documents do not pair with the ids.
        docs = np.random.default_rng(3).normal(size=(n_embs, 16))
        if n_tokens is not None:
            docs = [np.zeros((6, 16))] * n_tokens
        with pytest.raises(ValueError, match=f"^3 doc ids but {len(docs)} documents$"):
            Engine(cfg, state).ingest(2, [900, 901, 902], docs)
        assert state.session == 1
        assert state.codes == issued

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, pytest.param(BEYOND, id="beyond"),
                                     pytest.param(-BEYOND, id="-beyond")])
    def test_vectors_that_are_not_finite_are_refused_by_row(self, bad):
        # Unchecked, an inf document fails an assertion in k-means, a NaN one
        # ends in an OverflowError deep in IPQ, and a NaN query ranks nothing.
        # Rows of 1e77 overflow in the second session's EWC anchor, and rows of
        # 1e200 leave a Fisher of NaN and infinity.
        cfg = small_config()
        data = small_inputs()
        engine = Engine(cfg)
        docs = data.doc_embs.copy()
        docs[[7, 9], 3] = bad
        holds = "holds a " + ("value that is not finite" if not np.isfinite(bad) else "value beyond ±1e+30")
        with pytest.raises(ValueError, match=f"^documents row 7 {re.escape(holds)}$"):
            engine.build_base(data.doc_ids[:80], docs[:80], [])
        with pytest.raises(ValueError, match=f"^training queries row 1 {re.escape(holds)}$"):
            engine.build_base(data.doc_ids[:80], data.doc_embs[:80], [(docs[0], 0), (docs[7], 7)])
        assert engine.state is None
        engine.build_base(data.doc_ids[:80], data.doc_embs[:80], [])
        docs[[85, 90], 0] = bad
        before = payload_bytes(engine.state)
        with pytest.raises(ValueError, match=f"^documents row 5 {re.escape(holds)}$"):
            engine.ingest(1, data.doc_ids[80:], docs[80:])
        assert payload_bytes(engine.state) == before
        with pytest.raises(ValueError, match=f"^queries row 2 {re.escape(holds)}$"):
            engine.evaluate(range(4), docs[83:87])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, pytest.param(BEYOND, id="beyond")])
    def test_a_base_token_that_is_not_finite_is_refused_by_document(self, bad):
        # Unchecked, it reaches k-means and ends in a bare AssertionError.
        data = synthetic.generate(
            40, 8, 5, RandomSource(1).derive("synthetic"), with_tokens=True, token_range=(5, 12)
        )
        tokens = [d.copy() for d in data.token_docs]
        tokens[7][2, 3] = bad
        engine = Engine(ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=5))
        holds = "that is not finite" if not np.isfinite(bad) else "beyond ±1e+30"
        with pytest.raises(ValueError, match=f"^document 7's tokens row 2 holds a value {re.escape(holds)}$"):
            engine.build_base(data.doc_ids, tokens, [])
        assert engine.state is None

    def test_evaluate_refuses_a_repeated_query_id(self):
        # Unchecked, the two rankings of query 0 merged into one.
        data = small_inputs()
        engine = Engine(small_config())
        engine.build_base(data.doc_ids[:80], data.doc_embs[:80], [])
        with pytest.raises(ValueError, match="^query id 0 is repeated; each query gets one ranking$"):
            engine.evaluate([0, 0], data.test_query_embs[:2])

    @staticmethod
    def token_corpus():
        return synthetic.generate(
            40, 8, 5, RandomSource(1).derive("synthetic"), with_tokens=True, token_range=(5, 12)
        )

    @pytest.mark.parametrize("v_epochs", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.zeros((0, 8)), "document 3 holds no token values"),
            (np.zeros((6, 0)), "document 3 holds no token values"),
            (np.zeros(8), "document 3 is a 1-D array, but the base takes token matrices, as its first document is one"),
            (np.zeros((6, 12)), "document 3's tokens are 12 wide, but document 0's token dim is 8"),
        ],
        ids=["no-token", "zero-wide", "1-D", "wider"],
    )
    def test_build_base_refuses_a_misshapen_token_document_by_id(self, v_epochs, bad, message):
        # Unchecked, an empty document's NaN mean reached k-means' assertion, and
        # a wider one failed in numpy's stacking without naming the document.
        data = self.token_corpus()
        tokens = [*data.token_docs[:3], bad, *data.token_docs[4:]]
        engine = Engine(ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=v_epochs, decoder_steps=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                engine.build_base(data.doc_ids, tokens, [])
        assert engine.state is None

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.zeros((0, 8)), "document 32 holds no token values"),
            (np.zeros((6, 6)), "document 32's tokens are 6 wide, but the projector's input dim is 8"),
        ],
        ids=["no-token", "narrower"],
    )
    def test_ingest_refuses_a_misshapen_token_document_by_id(self, bad, message):
        # Unchecked, an empty document warned "Mean of empty slice" and was then
        # refused as a row that is not finite.
        data = self.token_corpus()
        engine = Engine(ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=5))
        engine.build_base(data.doc_ids[:30], data.token_docs[:30], [])
        tokens = [*data.token_docs[30:32], bad, *data.token_docs[33:]]
        before = payload_bytes(engine.state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                engine.ingest(1, data.doc_ids[30:], tokens)
        assert payload_bytes(engine.state) == before

    def test_rows_at_the_magnitude_bound_train_anchored_sessions(self):
        # A value of MAX_ABS (1e30) is accepted: the build and two anchored sessions
        # store only finite arrays, and no arithmetic warns (tier-1 raises on it).
        data = synthetic.generate(120, 16, 6, RandomSource(0).derive("synthetic"))
        top = max(np.abs(data.doc_embs).max(), np.abs(data.train_query_embs).max())
        docs, queries = (a / top * 1e30 for a in (data.doc_embs, data.train_query_embs))
        assert max(np.abs(docs).max(), np.abs(queries).max()) == harness.MAX_ABS == 1e30
        engine = Engine(small_config())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.build_base(data.doc_ids[:60], docs[:60], list(zip(queries[:60], data.doc_ids[:60])))
            for t, lo in ((1, 60), (2, 90)):
                engine.ingest(t, data.doc_ids[lo : lo + 30], docs[lo : lo + 30])
            engine.evaluate(range(10), docs[:10])
        st = engine.state
        assert st.session == 2
        stored = [st.decoder.w, st.decoder.b, st.fisher.w, st.fisher.b, st.codebook.vectors(),
                  *(g.centroids for g in st.codebook.groups)]
        assert all(np.isfinite(a).all() for a in stored)
        assert (st.fisher.w > 0).any()  # so the anchor had weight too

    @pytest.mark.parametrize("bad", [np.nan, BEYOND])
    def test_an_ingested_token_is_refused_by_document_before_the_projector(self, bad):
        data = synthetic.generate(
            40, 8, 5, RandomSource(1).derive("synthetic"), with_tokens=True, token_range=(5, 12)
        )
        engine = Engine(ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=5))
        engine.build_base(data.doc_ids[:30], data.token_docs[:30], [])
        tokens = [d.copy() for d in data.token_docs[30:]]
        tokens[7][0, 0] = bad
        before = payload_bytes(engine.state)
        with pytest.raises(ValueError, match="^document 37's tokens row 0 holds a value "):
            engine.ingest(1, data.doc_ids[30:], tokens)
        assert payload_bytes(engine.state) == before

    def test_ingest_extends_a_token_state(self):
        # A state with a projector reads the session's documents as token matrices.
        data = self.token_corpus()
        engine = Engine(ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=5))
        engine.build_base(data.doc_ids[:30], data.token_docs[:30], [])
        issued = dict(engine.state.codes)
        info, log = engine.ingest(1, data.doc_ids[30:], data.token_docs[30:])
        st = engine.state
        assert (st.session, info["n_new_docs"], len(log)) == (1, 10, 10 * 2)
        assert {i: st.codes[i] for i in issued} == issued and sorted(st.codes) == data.doc_ids
        embedded = np.array([doc_embedding(d, st.projector) for d in data.token_docs[30:]])
        assert st.codebook.vectors()[30:].tobytes() == embedded.tobytes()

    def test_build_base_refuses_a_repeated_docid(self):
        # Unchecked, id 6 twice leaves 39 codes for 40 codebook rows, and the
        # next ingest reads bank rows through misaligned positions.
        data = small_inputs()
        engine = Engine(small_config())
        with pytest.raises(ValueError, match="^doc id 6 is already indexed or repeated in this session$"):
            engine.build_base([*data.doc_ids[:39], 6], data.doc_embs[:40], [])
        assert engine.state is None

    @pytest.mark.parametrize("tokens", [False, True], ids=["embeddings", "tokens"])
    def test_build_base_refuses_rows_that_do_not_pair_with_the_ids(self, tokens):
        # Unchecked, 41 rows for 40 ids leave 40 codes for 41 codebook rows, which only a save notices.
        data = synthetic.generate(
            41, 8, 5, RandomSource(1).derive("synthetic"), with_tokens=tokens, token_range=(5, 12)
        )
        engine = Engine(ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=5))
        with pytest.raises(ValueError, match="^40 doc ids but 41 documents$"):
            engine.build_base(data.doc_ids[:40], data.token_docs if tokens else data.doc_embs, [])
        assert engine.state is None

    def test_build_base_names_a_group_with_too_few_distinct_sub_vectors(self):
        # Group 2's sub-vectors take 4 values, fewer than the 8 centroids it needs.
        data = small_inputs()
        embs = np.array(data.doc_embs)
        embs[:, 8:12] = embs[np.arange(len(embs)) % 4, 8:12]
        engine = Engine(small_config())
        message = r"^group 2 cannot be clustered into k_clusters=8: k=8 exceeds number of distinct points \(4\)$"
        with pytest.raises(ValueError, match=message):
            engine.build_base(data.doc_ids, embs, [])
        assert engine.state is None


class TestSessionBatch:
    """The one batch an ingest trains on, and the pairs its Fisher is taken on."""

    @pytest.mark.parametrize("variant", ["full", "no-mle-dneg"])
    def test_rows_and_the_fishers_pair_set(self, variant, monkeypatch):
        batches, banks = {}, []

        def capture(name, fn, at):
            def wrapped(*args):
                batches[name] = args[at]
                return fn(*args)
            return wrapped

        def keep(*args):
            banks.append(build_memory_bank(*args))
            return banks[-1]

        monkeypatch.setattr(harness, "train_session", capture("train", harness.train_session, 2))
        monkeypatch.setattr(harness, "estimate_fisher", capture("fisher", harness.estimate_fisher, 0))
        monkeypatch.setattr(harness, "build_memory_bank", keep)
        cfg = ExperimentConfig(c_repeats=50, decoder_steps=5).with_variant(variant)
        data = synthetic.generate(500, 16, 25, RandomSource(0).derive("synthetic"))
        engine = Engine(cfg)
        engine.build_base(data.doc_ids[:300], data.doc_embs[:300], [])
        old_vectors = dict(zip(engine.state.codes, engine.state.codebook.vectors()))
        new_ids, new_embs = data.doc_ids[300:350], data.doc_embs[300:350]
        info, _ = engine.ingest(1, new_ids, new_embs)

        (bank,) = banks
        bank_ids = bank.doc_ids()
        assert bank_ids and info["bank_size"] == len(bank_ids)
        codes = engine.state.codes
        n, n_q = len(new_ids), cfg.n_q
        docs = list(zip(new_ids, new_embs)) + [(i, old_vectors[i]) for i in bank_ids]
        head = docs if cfg.enable_mle_dneg else docs[:n]
        pseudo_rng = RandomSource(cfg.seed).derive("pseudo", 1)
        want_vecs = [e for _, e in head] + [
            q for i, e in docs for q in generate_pseudo_queries(e, n_q, pseudo_rng.derive(i))
        ]
        want_codes = [codes[i] for i, _ in head] + [codes[i] for i, _ in docs for _ in range(n_q)]
        train = batches["train"]
        assert train.vecs.tobytes() == np.array(want_vecs).tobytes()
        assert train.codes.tolist() == [list(c) for c in want_codes]
        assert info["n_pseudo_pairs"] == n_q * len(docs)

        # The Fisher sees the new documents and every pseudo query, not the bank documents' rows.
        fisher = batches["fisher"]
        bank_block = np.s_[n : len(head)]
        assert fisher.vecs.tobytes() == np.delete(train.vecs, bank_block, axis=0).tobytes()
        assert fisher.codes.tolist() == np.delete(train.codes, bank_block, axis=0).tolist()
        if not cfg.enable_mle_dneg:
            assert len(train) == n + n_q * len(docs)
            assert fisher.vecs.tobytes() == train.vecs.tobytes()
            assert fisher.codes.tolist() == train.codes.tolist()

    @pytest.mark.parametrize("mode", ["both", "none", "recluster"])
    def test_the_fisher_is_laid_out_like_the_codebook(self, mode):
        # The state file stores the group sizes once, for codebook, decoder and Fisher alike.
        data = small_inputs()
        engine = Engine(small_config(threshold_mode=mode))
        engine.build_base(data.doc_ids[:80], data.doc_embs[:80], [])
        st = engine.state
        base_rows = sum(st.codebook.sizes())
        assert st.fisher.sizes() == st.codebook.sizes() == st.decoder.sizes()
        for t, rows in enumerate([slice(80, 100), slice(100, 100), slice(100, 120)], 1):
            engine.ingest(t, data.doc_ids[rows], data.doc_embs[rows])
            assert st.fisher.sizes() == st.codebook.sizes() == st.decoder.sizes(), f"session {t}"
        # Under both thresholds the codebook grows, so the Fisher had rows to gain.
        assert (sum(st.codebook.sizes()) > base_rows) == (mode == "both")

    @pytest.mark.parametrize(
        "mode, tokens", [("both", False), ("recluster", False), ("both", True)],
        ids=["both", "recluster", "tokens"],
    )
    def test_an_empty_session_trains_nothing(self, mode, tokens):
        # An empty list of vectors, or of token docs, has no width; the session still advances.
        data = synthetic.generate(100, 16, 10, RandomSource(0).derive("synthetic"), with_tokens=tokens)
        engine = Engine(small_config(threshold_mode=mode))
        engine.build_base(data.doc_ids, data.token_docs if tokens else data.doc_embs, [])
        decoder = engine.state.decoder
        info, _ = engine.ingest(1, [], [])
        assert (info["n_new_docs"], info["bank_size"], info["n_pseudo_pairs"]) == (0, 0, 0)
        assert engine.state.session == 1 and len(engine.state.codes) == 100
        assert engine.state.decoder.w.tobytes() == decoder.w.tobytes()


# Config keys that were settings once, each with a value it used to take. Search
# is exact (no beam); an ablation is a zero (c_repeats, n_q, lam), not a switch;
# the trainers' steps, temperature, span count, pseudo-query noise and the
# metric cutoff are module constants; re-clustering is a threshold_mode; a run
# always scores the sequential query sets by MRR at the cutoff; a variant is a
# preset of the other fields (`with_variant`), not a stored label; the projector
# takes `iterative_train`'s own number of inner steps.
RETIRED_KEYS = {
    "beam": 15,
    "enable_memory_bank": False,
    "enable_pseudo_queries": False,
    "enable_ewc": False,
    "decoder_step": 5e-2,
    "proj_step": 1e-2,
    "tau": 0.1,
    "g_spans": 5,
    "sigma": 0.1,
    "metric_cutoff": 10,
    "recluster_each_session": True,
    "setting": "single",
    "metric": "hits",
    "variant": "base",
    "proj_inner_iters": 3,
    "top_n": 10,
}


def judge_query_0_by(path, doc_id):
    """Rewrite the qrels file `path` so that query 0 is judged by `doc_id` (its line comes first)."""
    first, *rest = path.read_text().splitlines(keepends=True)
    assert first.startswith("0\t")
    path.write_text(f"0\t{doc_id}\t0\n" + "".join(rest))


class TestCli:
    def gen(self, tmp_path, n_docs=80, dim=16, tokens=False, seed=3, code=0):
        """A corpus whose documents are docs.emb, or tokens.tok with `tokens`; `code` is the exit code."""
        args = [
            "gen-synthetic", "--n-docs", str(n_docs), "--dim", str(dim), "--clusters", "8",
            "--seed", str(seed), *(["--tokens"] if tokens else []),
            "--docs-out", str(tmp_path / ("tokens.tok" if tokens else "docs.emb")),
            "--queries-out", str(tmp_path / "queries.emb"),
            "--train-queries-out", str(tmp_path / "train_queries.emb"),
            "--qrels-out", str(tmp_path / "qrels.tsv"),
            "--train-qrels-out", str(tmp_path / "train_qrels.tsv"),
        ]
        assert cli.main(args) == code

    def test_full_run_writes_canonical_report(self, tmp_path):
        self.gen(tmp_path)
        cfg = {"decoder_steps": 10, "v_epochs": 0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "run", "--config", str(tmp_path / "cfg.json"), "--seed", "5",
                "--variant", "full",
                "--docs", str(tmp_path / "docs.emb"),
                "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"),
                "--train-queries", str(tmp_path / "train_queries.emb"),
                "--train-qrels", str(tmp_path / "train_qrels.tsv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 5
        assert "timing" not in report
        assert len(report["sessions"]) == 5

    def test_build_ingest_evaluate_cycle(self, tmp_path, capsys):
        self.gen(tmp_path)
        cfg = {"decoder_steps": 10, "v_epochs": 0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        common = ["--config", str(tmp_path / "cfg.json"), "--seed", "3"]
        state = tmp_path / "engine.state"
        assert cli.main(
            [
                "build-base", *common,
                "--docs", str(tmp_path / "docs.emb"),
                "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"),
                "--train-queries", str(tmp_path / "train_queries.emb"),
                "--train-qrels", str(tmp_path / "train_qrels.tsv"),
                "--state-out", str(state),
            ]
        ) == 0
        # Feed a handful of new documents back in as the next session.
        from ipqgr.io_formats import read_embeddings, write_embeddings

        docs = read_embeddings(tmp_path / "docs.emb")
        write_embeddings(tmp_path / "new.emb", docs[:6] + 0.05)
        log = tmp_path / "decisions.jsonl"
        assert cli.main(
            [
                "ingest", *common, "--state", str(state),
                "--docs", str(tmp_path / "new.emb"),
                "--decision-log", str(log),
            ]
        ) == 0
        assert len(log.read_text().strip().split("\n")) == 6 * 4  # docs x groups
        assert cli.main(
            [
                "evaluate", "--state", str(state),
                "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"),
                "--out", str(tmp_path / "run.tsv"),
            ]
        ) == 0
        out = capsys.readouterr()
        assert "mrr@10" in out.out
        assert out.err == ""  # every run query is judged, so none is skipped with a warning
        assert (tmp_path / "run.tsv").read_text().count("\n") > 0

    def test_build_base_indexes_every_document(self, tmp_path):
        # `fractions` splits a `run`; build-base used to index only its first 60%.
        from ipqgr.io_formats import read_embeddings

        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        assert cli.main([*self.base_args(tmp_path), "--config", str(tmp_path / "cfg.json")]) == 0
        state = load_state(tmp_path / "engine.state")
        assert sorted(state.codes) == list(range(80))
        assert [rec["session"] for rec in state.history] == [0]
        n_train = len(read_embeddings(tmp_path / "train_queries.emb"))
        assert state.history[0]["n_train_query_pairs"] == n_train

    def test_ingest_records_its_session_in_the_history(self, tmp_path):
        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        common = ["--config", str(tmp_path / "cfg.json"), "--seed", "3"]
        state = tmp_path / "engine.state"
        assert cli.main(
            [
                "build-base", *common,
                "--docs", str(tmp_path / "docs.emb"),
                "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"),
                "--state-out", str(state),
            ]
        ) == 0
        from ipqgr.io_formats import read_embeddings, write_embeddings

        docs = read_embeddings(tmp_path / "docs.emb")
        for shift in (0.05, -0.05):
            write_embeddings(tmp_path / "new.emb", docs[:4] + shift)
            assert cli.main(
                ["ingest", *common, "--state", str(state), "--docs", str(tmp_path / "new.emb")]
            ) == 0
        history = load_state(state).history
        assert [rec["session"] for rec in history] == [0, 1, 2]
        assert history[2]["n_new_docs"] == 4

    def token_state(self, tmp_path):
        """Build engine.state from tokens.tok; returns the options that built it."""
        self.gen(tmp_path, tokens=True)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 1}))
        common = ["--config", str(tmp_path / "cfg.json"), "--seed", "3"]
        assert cli.main([*self.base_args(tmp_path, docs="tokens.tok"), *common]) == 0
        return common

    def test_ingest_of_vectors_into_a_token_state_is_refused(self, tmp_path, capsys):
        # A token state codes documents in its projector's space, which raw vectors are not in.
        from ipqgr.io_formats import write_embeddings

        common = self.token_state(tmp_path)
        state = tmp_path / "engine.state"
        write_embeddings(tmp_path / "docs.emb", np.ones((3, 16)))
        before = state.read_bytes()
        capsys.readouterr()
        code = cli.main(["ingest", *common, "--state", str(state), "--docs", str(tmp_path / "docs.emb")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "error: document 80 is a 1-D array, but this state has a projector, so it takes token matrices"
        )
        assert state.read_bytes() == before

    def test_ingest_extends_a_token_state(self, tmp_path, capsys):
        # The state reads a TOK1 --docs file's documents through its projector; no option says so.
        common = self.token_state(tmp_path)
        state = tmp_path / "engine.state"
        new = tmp_path / "new"
        new.mkdir()
        self.gen(new, n_docs=12, tokens=True, seed=5)
        log = tmp_path / "decisions.jsonl"
        assert cli.main(["ingest", *common, "--state", str(state), "--docs", str(new / "tokens.tok"),
                         "--decision-log", str(log)]) == 0
        loaded = load_state(state)
        assert [rec["session"] for rec in loaded.history] == [0, 1]
        assert loaded.history[1]["n_new_docs"] == 12 and sorted(loaded.codes) == list(range(92))
        assert loaded.projector is not None
        assert len(log.read_text().splitlines()) == 12 * 4
        capsys.readouterr()
        assert cli.main(["evaluate", "--state", str(state), "--queries", str(tmp_path / "queries.emb"),
                         "--qrels", str(tmp_path / "qrels.tsv"), "--out", str(tmp_path / "run.tsv")]) == 0
        assert "mrr@10" in capsys.readouterr().out

    def test_a_docs_file_of_unknown_magic_is_a_clean_error(self, tmp_path, capsys):
        self.gen(tmp_path)
        (tmp_path / "docs.emb").write_bytes(b"EMB2" + (tmp_path / "docs.emb").read_bytes()[4:])
        capsys.readouterr()
        assert cli.main(self.base_args(tmp_path)) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {tmp_path / 'docs.emb'}: bad magic b'EMB2' at byte 0, expected b'EMB1' or b'TOK1'"
        )
        assert not (tmp_path / "engine.state").exists()

    @pytest.mark.parametrize("command", ["run", "build-base"])
    def test_tokens_is_not_an_option(self, tmp_path, capsys, command):
        # --docs takes TOK1 documents itself.
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--docs", "d", "--queries", "q", "--qrels", "r", "--tokens", "t.tok",
                      "--out" if command == "run" else "--state-out", "o"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tokens t.tok" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [0, -2])
    def test_gen_synthetic_of_a_dim_below_1_is_a_clean_error(self, tmp_path, capsys, dim):
        # Unchecked, --dim 0 wrote 0-wide EMB1 files that no command could index.
        self.gen(tmp_path, dim=dim, code=2)
        message = f"error: n_docs, dim and n_clusters must be positive, got 80, {dim}, 8"
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "docs.emb").exists()

    def test_build_base_of_a_nan_token_is_a_clean_error(self, tmp_path, capsys):
        from ipqgr.io_formats import read_token_docs, write_token_docs

        self.gen(tmp_path, tokens=True)
        docs = read_token_docs(tmp_path / "tokens.tok")
        docs[5][0, 1] = np.nan
        write_token_docs(tmp_path / "tokens.tok", docs)
        capsys.readouterr()
        assert cli.main(self.base_args(tmp_path, docs="tokens.tok")) == 2
        assert capsys.readouterr().err.strip() == "error: document 5's tokens row 0 holds a value that is not finite"
        assert not (tmp_path / "engine.state").exists()

    @pytest.mark.parametrize("given, missing", [("--train-queries", "--train-qrels"),
                                                ("--train-qrels", "--train-queries")])
    @pytest.mark.parametrize("command", ["run", "build-base"])
    def test_training_queries_and_their_qrels_come_as_a_pair(self, tmp_path, capsys, command, given, missing):
        # Unchecked, --train-queries alone ended in a TypeError traceback and
        # --train-qrels alone was ignored. No file is read first: none exists here.
        args = [command, "--docs", str(tmp_path / "docs.emb"), "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"), given, str(tmp_path / "train")]
        args += ["--out", str(tmp_path / "r.json")] if command == "run" else ["--state-out", str(tmp_path / "s")]
        assert cli.main(args) == 2
        judge = "the qrels that judge them" if given == "--train-queries" else "the queries it judges"
        assert capsys.readouterr().err.strip() == f"error: {given} needs {missing}, {judge}"

    @pytest.mark.parametrize("qrels", ["qrels.tsv", "train_qrels.tsv"])
    def test_a_query_judged_twice_is_a_clean_error(self, tmp_path, capsys, qrels):
        # Unchecked, the later line replaced the earlier one without a word.
        self.gen(tmp_path)
        path = tmp_path / qrels
        with open(path, "a") as fh:
            fh.write("0\t9\t0\n")
        capsys.readouterr()
        assert cli.main(self.base_args(tmp_path)) == 2
        assert capsys.readouterr().err.strip() == f"error: {path}:81: query 0 is judged on an earlier line too"
        assert not (tmp_path / "engine.state").exists()

    def test_build_base_of_a_document_with_no_token_is_a_clean_error(self, tmp_path, capsys):
        # Unchecked, its NaN mean reached k-means and ended in a bare AssertionError.
        from ipqgr.io_formats import read_token_docs, write_token_docs

        self.gen(tmp_path, tokens=True)
        tokens = read_token_docs(tmp_path / "tokens.tok")
        tokens[3] = tokens[3][:0]
        write_token_docs(tmp_path / "tokens.tok", tokens)
        capsys.readouterr()
        assert cli.main(self.base_args(tmp_path, docs="tokens.tok")) == 2
        assert capsys.readouterr().err.strip() == "error: document 3 holds no token values"
        assert not (tmp_path / "engine.state").exists()

    def test_build_base_with_too_few_distinct_sub_vectors_is_a_clean_error(self, tmp_path, capsys):
        # kmeans alone said "k=8 exceeds number of distinct points (4)" without naming the group.
        from ipqgr.io_formats import read_embeddings, write_embeddings

        self.gen(tmp_path)
        docs = read_embeddings(tmp_path / "docs.emb")
        docs[:, 8:12] = docs[np.arange(len(docs)) % 4, 8:12]
        write_embeddings(tmp_path / "docs.emb", docs)
        capsys.readouterr()
        assert cli.main(self.base_args(tmp_path)) == 2
        assert capsys.readouterr().err.strip() == (
            "error: group 2 cannot be clustered into k_clusters=8: k=8 exceeds number of distinct points (4)"
        )
        assert not (tmp_path / "engine.state").exists()

    def test_evaluate_takes_no_seed(self, capsys):
        # Evaluation draws no random numbers, so a seed would set nothing.
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--seed", "4", "--state", "s", "--queries", "q", "--out", "o"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 4" in capsys.readouterr().err

    def test_evaluate_takes_no_config(self, capsys):
        # A ranking stops at the metric cutoff, and the state holds the rest, so a config would set nothing.
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--config", "c.json", "--state", "s", "--queries", "q", "--out", "o"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config c.json" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("0\t9\t0", "{path}:81: query 0 is judged on an earlier line too"),
        ("999\t3\t0", "{path} judges query 999, but --queries has 80 rows"),
    ], ids=["judged-twice", "row-999"])
    def test_evaluate_reads_its_qrels_before_it_scores(self, tmp_path, capsys, line, message):
        # Unchecked, the run was written before the qrels were read, and a
        # qrels line for a query not in --queries was skipped without a word.
        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        assert cli.main([*self.base_args(tmp_path), "--config", str(tmp_path / "cfg.json")]) == 0
        path = tmp_path / "qrels.tsv"
        with open(path, "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        code = cli.main(["evaluate", "--state", str(tmp_path / "engine.state"),
                         "--queries", str(tmp_path / "queries.emb"), "--qrels", str(path),
                         "--out", str(tmp_path / "run.tsv")])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: " + message.format(path=path)
        assert not (tmp_path / "run.tsv").exists()

    def test_ingest_under_a_config_unlike_the_state_is_a_clean_error(self, tmp_path, capsys):
        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        assert cli.main([*self.base_args(tmp_path), "--config", str(tmp_path / "cfg.json")]) == 0
        (tmp_path / "groups.json").write_text(json.dumps({"m_groups": 8, "decoder_steps": 30}))
        capsys.readouterr()
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "groups.json"),
                "--state", str(tmp_path / "engine.state"), "--state-out", str(tmp_path / "out.state"),
                "--docs", str(tmp_path / "docs.emb"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: the config's m_groups is 8, but the state's is 4"
        assert not (tmp_path / "out.state").exists()

    @pytest.mark.parametrize("command", ["run", "build-base"])
    def test_a_test_qrel_naming_an_unknown_document_is_a_clean_error(self, tmp_path, capsys, command):
        self.gen(tmp_path)
        judge_query_0_by(tmp_path / "qrels.tsv", 9999)
        args = self.base_args(tmp_path)
        if command == "run":  # build-base's inputs, without its --state-out
            args = ["run", *args[1:-2], "--out", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert cli.main(args) == 2
        assert capsys.readouterr().err.strip() == (
            "error: test query 0 is judged by document 9999, which is not in the corpus"
        )
        assert not (tmp_path / "engine.state").exists()

    @pytest.mark.parametrize("command", ["run", "build-base"])
    def test_a_training_qrel_naming_an_unknown_document_is_a_clean_error(self, tmp_path, capsys, command):
        # Unchecked, the pair was dropped and build-base counted 79 of 80 training queries.
        self.gen(tmp_path)
        judge_query_0_by(tmp_path / "train_qrels.tsv", 9999)
        args = self.base_args(tmp_path)
        if command == "run":
            args = ["run", *args[1:-2], "--out", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert cli.main(args) == 2
        assert capsys.readouterr().err.strip() == (
            "error: training query 0 is judged by document 9999, which is not in the corpus"
        )
        assert not (tmp_path / "engine.state").exists()

    @pytest.mark.parametrize("qrels, option", [("qrels.tsv", "--queries"), ("train_qrels.tsv", "--train-queries")])
    def test_a_qrel_for_a_query_the_file_lacks_is_a_clean_error(self, tmp_path, capsys, qrels, option):
        # Unchecked, the line was ignored. `evaluate --qrels` refuses it too.
        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        assert cli.main([*self.base_args(tmp_path), "--config", str(tmp_path / "cfg.json")]) == 0
        (tmp_path / "engine.state").rename(tmp_path / "kept.state")
        path = tmp_path / qrels
        with open(path, "a") as fh:
            fh.write("999\t3\t0\n")
        capsys.readouterr()
        assert cli.main(self.base_args(tmp_path)) == 2
        assert capsys.readouterr().err.strip() == f"error: {path} judges query 999, but {option} has 80 rows"
        assert not (tmp_path / "engine.state").exists()
        assert cli.main(
            [
                "evaluate", "--state", str(tmp_path / "kept.state"), "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"), "--out", str(tmp_path / "run.tsv"),
            ]
        ) == (2 if option == "--queries" else 0)

    def test_ingest_of_a_row_beyond_the_magnitude_bound_is_a_clean_error(self, tmp_path, capsys):
        from ipqgr.io_formats import read_embeddings, write_embeddings

        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        assert cli.main([*self.base_args(tmp_path), "--config", str(tmp_path / "cfg.json")]) == 0
        new = read_embeddings(tmp_path / "docs.emb")[:6] + 0.01
        new[4, 2] = 1e35
        write_embeddings(tmp_path / "new.emb", new)
        before = (tmp_path / "engine.state").read_bytes()
        capsys.readouterr()
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"), "--state", str(tmp_path / "engine.state"),
                "--state-out", str(tmp_path / "out.state"), "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: documents row 4 holds a value beyond ±1e+30"
        assert (tmp_path / "engine.state").read_bytes() == before
        assert not (tmp_path / "out.state").exists()

    def test_unknown_config_key_is_a_clean_error(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"dimm": 16}))
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"),
                "--state", str(tmp_path / "engine.state"),
                "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert "error: unknown config keys: dimm" in capsys.readouterr().err

    def test_zero_groups_is_a_clean_error(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"m_groups": 0}))
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"),
                "--state", str(tmp_path / "engine.state"),
                "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert "error: m_groups must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", RETIRED_KEYS.items(), ids=list(RETIRED_KEYS))
    def test_retired_config_key_is_a_clean_error(self, tmp_path, capsys, key, value):
        # A config that still sets a retired key is refused, not silently ignored.
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"),
                "--state", str(tmp_path / "engine.state"),
                "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: unknown config keys: {key}"

    def base_args(self, tmp_path, docs="docs.emb", train_queries="train_queries.emb"):
        return [
            "build-base", "--docs", str(tmp_path / docs),
            "--queries", str(tmp_path / "queries.emb"),
            "--qrels", str(tmp_path / "qrels.tsv"),
            "--train-queries", str(tmp_path / train_queries),
            "--train-qrels", str(tmp_path / "train_qrels.tsv"),
            "--state-out", str(tmp_path / "engine.state"),
        ]

    def test_documents_wider_than_dim_are_a_clean_error(self, tmp_path, capsys):
        self.gen(tmp_path, dim=32)
        assert cli.main(self.base_args(tmp_path)) == 2
        assert capsys.readouterr().err.strip() == (
            "error: documents are 32 wide, but the config's dim is 16"
        )

    def test_training_queries_wider_than_dim_are_a_clean_error(self, tmp_path, capsys):
        from ipqgr.io_formats import read_embeddings, write_embeddings

        self.gen(tmp_path)
        n_train = len(read_embeddings(tmp_path / "train_queries.emb"))
        write_embeddings(tmp_path / "wide.emb", np.ones((n_train, 32)))
        assert cli.main(self.base_args(tmp_path, train_queries="wide.emb")) == 2
        assert capsys.readouterr().err.strip() == (
            "error: training queries are 32 wide, but the config's dim is 16"
        )

    def test_queries_wider_than_the_state_are_a_clean_error(self, tmp_path, capsys):
        from ipqgr.io_formats import read_embeddings, write_embeddings

        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        assert cli.main([*self.base_args(tmp_path), "--config", str(tmp_path / "cfg.json")]) == 0
        n_queries = len(read_embeddings(tmp_path / "queries.emb"))
        write_embeddings(tmp_path / "wide.emb", np.ones((n_queries, 32)))
        capsys.readouterr()
        code = cli.main(
            [
                "evaluate", "--state", str(tmp_path / "engine.state"),
                "--queries", str(tmp_path / "wide.emb"), "--out", str(tmp_path / "run.tsv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: queries are 32 wide, but the state's dim is 16"

    def test_ingest_of_a_nan_row_is_a_clean_error(self, tmp_path, capsys):
        from ipqgr.io_formats import read_embeddings, write_embeddings

        self.gen(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"decoder_steps": 5, "v_epochs": 0}))
        assert cli.main([*self.base_args(tmp_path), "--config", str(tmp_path / "cfg.json")]) == 0
        new = read_embeddings(tmp_path / "docs.emb")[:6] + 0.01
        new[4, 2] = np.nan
        write_embeddings(tmp_path / "new.emb", new)
        capsys.readouterr()
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"),
                "--state", str(tmp_path / "engine.state"), "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: documents row 4 holds a value that is not finite"
        assert load_state(tmp_path / "engine.state").session == 0
        # With --state-out, no file is written.
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"), "--state", str(tmp_path / "engine.state"),
                "--state-out", str(tmp_path / "out.state"), "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "out.state").exists()

    def test_variant_label_without_its_preset_is_a_clean_error(self, tmp_path, capsys):
        # A config holds a variant's fields, not its name; `--variant` sets them.
        (tmp_path / "cfg.json").write_text(json.dumps({"variant": "base"}))
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"),
                "--state", str(tmp_path / "engine.state"),
                "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: unknown config keys: variant"

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("lam", "0.5", "a number, got '0.5'"),
            ("decoder_steps", 2.5, "an integer, got 2.5"),
            ("m_groups", True, "an integer, got True"),
            ("fractions", 5, "a list of numbers, got 5"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_a_clean_error(self, tmp_path, capsys, key, value, kind):
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"),
                "--state", str(tmp_path / "engine.state"),
                "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: config {key} must be {kind}"

    def test_variant_option_sets_its_presets_fields_over_the_files(self, tmp_path):
        self.gen(tmp_path)
        cfg = {"lam": 0.0, "n_q": 5, "threshold_mode": "ad_only", "decoder_steps": 5, "v_epochs": 0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert cli.main(
            [
                "run", "--config", str(tmp_path / "cfg.json"), "--variant", "no-mle-q",
                "--docs", str(tmp_path / "docs.emb"),
                "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"),
                "--out", str(out),
            ]
        ) == 0
        written = json.loads(out.read_text())["config"]
        assert (written["lam"], written["n_q"], written["threshold_mode"]) == (0.0, 0, "ad_only")
        assert "variant" not in written

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        code = cli.main(
            [
                "run",
                "--docs", str(tmp_path / "nope.emb"),
                "--queries", str(tmp_path / "nope.emb"),
                "--qrels", str(tmp_path / "nope.tsv"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
