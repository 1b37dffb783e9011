"""Tests of the benchmark itself: span arithmetic, wrapper removal, smoke runs.

Run from the root of a checkout with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402

WORKLOADS = ("ingest-stream", "tokens")
SMOKE_SCALE = "0.1"
EXACT_COUNTS = (
    "ipq.unchanged", "ipq.changed", "ipq.added", "ipq.added_singleton",
    "codebook.centroids_total", "codebook.centroids_max", "decoder.params",
    "harness.state_bytes", "decoder.mle_loss.pairs", "rehearsal.bank_docs",
    "rehearsal.pseudo_pairs", "rehearsal.lookups", "repr_learner.contrastive_loss.rows",
)


def _bench(workload, trace, cwd=ROOT, runner=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", SMOKE_SCALE],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_of_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has two children named c, [5, 6] and [7, 8.5].
    spans = [
        [0, "root", 0.0, 10.0, None],
        [1, "a", 1.0, 4.0, 0],
        [2, "c", 2.0, 3.0, 1],
        [3, "b", 5.0, 9.0, 0],
        [4, "c", 5.0, 6.0, 3],
        [5, "c", 7.0, 8.5, 3],
    ]
    got = tracing.self_times(spans)
    assert got["root"] == (1, pytest.approx(10.0 - 3.0 - 4.0))
    assert got["a"] == (1, pytest.approx(3.0 - 1.0))
    assert got["b"] == (1, pytest.approx(4.0 - 2.5))
    assert got["c"] == (3, pytest.approx(1.0 + 1.0 + 1.5))
    assert sum(s for _, s in got.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_rejects_misnesting():
    tracer = tracing.Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (_, _, s0, e0, p0), (_, _, s1, e1, p1) = tracer.spans
    assert p0 is None and p1 == 0
    assert s0 <= s1 <= e1 <= e0
    outer = tracer.begin("x")
    tracer.begin("y")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def _raw_bindings():
    """Every attribute a wrapper may replace, as (owner, name) -> raw value."""
    out = {}
    for _, owner, attr, _ in tracing.targets():
        for target, key in tracing._bindings(owner, attr):
            out[(id(target), key)] = vars(target)[key]
    return out


def test_wrappers_are_installed_then_all_removed():
    from ipqgr import codebook, decoder, harness

    before = _raw_bindings()
    originals = (harness.train_session, decoder.mle_loss, codebook.kmeans,
                 harness.Engine.__dict__["ingest"], decoder.DocidTrie.__dict__["from_codes"])
    tracer = tracing.Tracer("t")
    with tracing.installed(tracer):
        assert harness.train_session is not originals[0]
        assert decoder.mle_loss is not originals[1]
        assert codebook.kmeans is not originals[2]
        assert harness.Engine.__dict__["ingest"] is not originals[3]
        decoder.DocidTrie.from_codes({0: (0, 1)})
    assert [s[1] for s in tracer.spans] == ["decoder.trie_build"]
    after = _raw_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert harness.train_session is originals[0]
    assert decoder.DocidTrie.__dict__["from_codes"] is originals[4]


def test_wrappers_removed_when_the_run_raises():
    from ipqgr import harness

    original = harness.save_state
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer("t")):
            1 / 0
    assert harness.save_state is original


@pytest.fixture(scope="module")
def smoke():
    return {
        (w, trace): [_result(_bench(w, trace)) for _ in range(1 + trace)]
        for w in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric_without_failures(smoke, workload):
    (result,) = smoke[(workload, 0)]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == END_TO_END[name][0]
        assert math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_matches_untraced_and_repeats_exact_counts(smoke, workload):
    first, second = smoke[(workload, 1)]
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
    names = {f"{n}.{kind}" for n in tracing.span_names() for kind in ("calls", "s")}
    assert names <= set(first["metrics"])
    for key in EXACT_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    m = {k: v["value"] for k, v in first["metrics"].items()}
    # The wrappers cover the run: little time is left outside every layer.
    assert 0.0 <= m["trace.bench_share"] < 0.2


def test_exact_counts_cover_the_layers_each_workload_exercises(smoke):
    m = {w: {k: v["value"] for k, v in smoke[(w, 1)][0]["metrics"].items()} for w in WORKLOADS}
    assert m["tokens"]["repr_learner.contrastive_loss.calls"] > 0
    assert m["ingest-stream"]["repr_learner.contrastive_loss.calls"] == 0
    for w in WORKLOADS:
        assert m[w]["ipq.added"] + m[w]["ipq.changed"] + m[w]["ipq.unchanged"] > 0
        assert m[w]["ipq.added_singleton"] <= m[w]["ipq.added"]
    assert m["ingest-stream"]["io_formats.read_embeddings.calls"] == 12


def test_exits_nonzero_without_the_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("tokens", 0, cwd=tmp_path, runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
