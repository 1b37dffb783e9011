"""End-to-end tests for the experiment driver, persistence, and the CLI."""

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from ipqgr import cli, synthetic
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
    data = synthetic.generate(n_docs, 16, n_clusters, RandomSource(seed).derive("synthetic"))
    return ExperimentInputs.from_synthetic(data)


class TestSplitBenchmark:
    def test_default_fractions_give_exact_sizes(self):
        splits = split_benchmark(list(range(100)), (0.6, 0.1, 0.1, 0.1, 0.1), RandomSource(0))
        assert [len(s) for s in splits] == [60, 10, 10, 10, 10]
        assert sorted(d for s in splits for d in s) == list(range(100))

    def test_sizes_with_remainders(self):
        splits = split_benchmark(list(range(7)), (0.5, 0.5), RandomSource(1))
        assert sorted(len(s) for s in splits) == [3, 4]

    def test_single_fraction(self):
        (only,) = split_benchmark(list(range(10)), (1.0,), RandomSource(2))
        assert sorted(only) == list(range(10))

    def test_deterministic(self):
        a = split_benchmark(list(range(50)), (0.6, 0.4), RandomSource(3))
        b = split_benchmark(list(range(50)), (0.6, 0.4), RandomSource(3))
        assert a == b

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            split_benchmark([1, 2], (0.5, 0.6), RandomSource(0))
        with pytest.raises(ValueError):
            split_benchmark([1, 2], (1.5, -0.5), RandomSource(0))


class TestExperimentConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dim=10, m_groups=4).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(fractions=(0.5, 0.4)).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(setting="weekly").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(threshold_mode="all").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(recluster_each_session=True).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(random_bank=True, enable_memory_bank=False).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("tau", 0.0), ("tau", -0.1), ("tau", float("nan")), ("g_spans", 0), ("v_epochs", -1)],
    )
    def test_span_settings_are_validated(self, field, value):
        # Each of these would otherwise surface only partway through a token run.
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value}).validate()

    def test_variants_cover_the_ablation_grid(self):
        assert set(VARIANTS) == {
            "full", "base", "pq", "pq-re", "pq-dis", "pq-dis-ad", "pq-dis-md",
            "no-ewc", "no-mle-dneg", "no-mle-q", "random-bank",
        }
        base = ExperimentConfig().with_variant("base")
        assert not base.enable_memory_bank and base.threshold_mode == "none"
        with pytest.raises(ValueError):
            ExperimentConfig().with_variant("bespoke")

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(seed=9).with_variant("no-ewc")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_dict_keys_are_named(self):
        with pytest.raises(ValueError, match="unknown config keys: dimm, zeta"):
            ExperimentConfig.from_dict({"zeta": 1, "dim": 16, "dimm": 16})

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

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        read_and_unpickle = peak(lambda: pickle.loads(memoryview(path.read_bytes())[48:]))
        assert peak(lambda: load_state(path)) < read_and_unpickle + path.stat().st_size // 2

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

    def test_version_1_state_loads_and_ingests(self, tmp_path):
        state = self.make_state(tmp_path)
        fresh = tmp_path / "fresh.state"
        save_state(state, fresh)
        # Version 1 also stored member ids, cached member distances and each
        # doc's arrival session.
        old = load_state(fresh)
        old.doc_session = {d: 0 for d in old.codes}
        for g in old.codebook.groups:
            g.member_ids = [list(range(len(v))) for v in g.member_vecs]
            g.member_dists = [
                np.sqrt(((v - c) ** 2).sum(axis=1)) for v, c in zip(g.member_vecs, g.centroids)
            ]
        path = tmp_path / "v1.state"
        save_state(old, path)
        data = bytearray(path.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))

        loaded = load_state(path)
        assert not hasattr(loaded, "doc_session")
        for g in loaded.codebook.groups:
            assert not hasattr(g, "member_ids") and not hasattr(g, "member_dists")
        resaved_v1, resaved_fresh = tmp_path / "v1-resaved.state", tmp_path / "fresh-resaved.state"
        save_state(loaded, resaved_v1)
        save_state(load_state(fresh), resaved_fresh)
        assert resaved_v1.read_bytes() == resaved_fresh.read_bytes()

        new_ids = list(range(1000, 1010))
        new_embs = np.random.default_rng(11).normal(size=(10, 16))
        results = []
        for st in (load_state(path), load_state(fresh)):
            issued = dict(st.codes)
            engine = Engine(small_config(), st)
            info, _ = engine.ingest(st.session + 1, new_ids, new_embs)
            assert all(engine.state.codes[d] == code for d, code in issued.items())
            results.append((info, engine.state.codes))
        assert results[0] == results[1]


class TestRunExperiment:
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

    def test_timing_is_excluded_from_canonical_bytes(self):
        r, _ = run_experiment(small_config(), small_inputs(), include_timing=True)
        assert r["timing"]["wall_seconds"] > 0
        assert b"timing" not in canonical_report_bytes(r)

    def test_reclustering_rewrites_old_codes(self):
        cfg = small_config().with_variant("pq-re")
        cfg.decoder_steps = 20
        report, _ = run_experiment(cfg, small_inputs())
        assert report["decision_totals"].get("reclustered_old_codes_changed", 0) > 0

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
            fractions=(0.7, 0.3), proj_inner_iters=3,
        )
        report, state = run_experiment(cfg, ExperimentInputs.from_synthetic(data))
        assert state.projector is not None
        assert len(report["sessions"]) == 2


class TestEngineGuards:
    def test_ingest_requires_consecutive_sessions(self):
        cfg = small_config()
        _, state = run_experiment(cfg, small_inputs(), stop_after_session=1)
        engine = Engine(cfg, state)
        from ipqgr.ipq import InvalidStateError

        with pytest.raises(InvalidStateError):
            engine.ingest(5, [999], np.zeros((1, 16)))

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

    @pytest.mark.parametrize("n_embs, n_tokens", [(2, None), (4, None), (3, 2)])
    def test_ingest_refuses_mismatched_lengths(self, n_embs, n_tokens):
        cfg = small_config()
        _, state = run_experiment(cfg, small_inputs(), stop_after_session=1)
        issued = dict(state.codes)
        embs = np.random.default_rng(3).normal(size=(n_embs, 16))
        tokens = None if n_tokens is None else [np.zeros((6, 16))] * n_tokens
        with pytest.raises(ValueError, match="3 doc ids but"):
            Engine(cfg, state).ingest(2, [900, 901, 902], embs, token_docs=tokens)
        assert state.session == 1
        assert state.codes == issued


class TestCli:
    def gen(self, tmp_path, n_docs=80):
        args = [
            "gen-synthetic", "--n-docs", str(n_docs), "--dim", "16", "--clusters", "8",
            "--seed", "3",
            "--docs-out", str(tmp_path / "docs.emb"),
            "--queries-out", str(tmp_path / "queries.emb"),
            "--train-queries-out", str(tmp_path / "train_queries.emb"),
            "--qrels-out", str(tmp_path / "qrels.tsv"),
            "--train-qrels-out", str(tmp_path / "train_qrels.tsv"),
        ]
        assert cli.main(args) == 0

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
                "evaluate", *common, "--state", str(state),
                "--queries", str(tmp_path / "queries.emb"),
                "--qrels", str(tmp_path / "qrels.tsv"),
                "--out", str(tmp_path / "run.tsv"),
            ]
        ) == 0
        printed = capsys.readouterr().out
        assert "mrr@10" in printed
        assert (tmp_path / "run.tsv").read_text().count("\n") > 0

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

    def test_bad_span_setting_is_a_clean_error(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"g_spans": 0}))
        code = cli.main(
            [
                "ingest", "--config", str(tmp_path / "cfg.json"),
                "--state", str(tmp_path / "engine.state"),
                "--docs", str(tmp_path / "new.emb"),
            ]
        )
        assert code == 2
        assert "error: g_spans must be at least 1, got 0" in capsys.readouterr().err

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
