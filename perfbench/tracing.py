"""Span tracing of the engine's layers from outside the engine.

A traced run installs timing wrappers on the public functions of each layer
by replacing the module and class attributes that callers resolve at call
time (for example `ipqgr.harness.train_session`, `ipqgr.decoder.mle_loss`,
`ipqgr.codebook.kmeans`). Each call records one span: name, start, end,
parent span and run id. Spans stay in memory until the run ends. Self time
of a span is its duration minus the durations of its direct children, so the
self times of all spans under a root add up to the root's duration.

Some wrappers also read the wrapped function's arguments or result to count
work (decisions, rows, pairs). These counts depend only on the inputs, so they
repeat exactly for a fixed seed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "vector_core",
    "codebook",
    "ipq",
    "rehearsal",
    "decoder",
    "repr_learner",
    "harness",
    "metrics",
    "io_formats",
    "synthetic",
    "bench",
)


class Tracer:
    """In-memory span recorder for one run of one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [span id, name, start, end, parent id]; end is None while open.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was innermost")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time in seconds).

    `spans` holds [id, name, start, end, parent] records of closed spans whose
    ids index the list.
    """
    child_total = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_total[parent] += end - start
    out: dict[str, list] = {}
    for sid, name, start, end, _ in spans:
        agg = out.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += (end - start) - child_total[sid]
    return {name: (calls, s) for name, (calls, s) in out.items()}


# -- what gets wrapped ------------------------------------------------------


def _count_ingest(tracer, args, kwargs, out):
    _, _, log = out
    for d in log:
        tracer.counts[f"ipq.{d.kind.value}"] += 1
        if d.kind.value == "added" and d.ad == 0.0:
            tracer.counts["ipq.added_singleton"] += 1


def _count_mle_pairs(tracer, args, kwargs, out):
    tracer.counts["decoder.mle_loss.pairs"] += len(args[0])


def _count_bank(tracer, args, kwargs, out):
    tracer.counts["rehearsal.bank_docs"] += len(out.doc_ids())


def _count_pseudo(tracer, args, kwargs, out):
    tracer.counts["rehearsal.pseudo_pairs"] += len(out)


def _count_contrastive_rows(tracer, args, kwargs, out):
    tracer.counts["repr_learner.contrastive_loss.rows"] += len(args[0])


def _count_lookup(tracer, args, kwargs, out):
    tracer.counts["rehearsal.lookups"] += 1
    if out:
        tracer.counts["rehearsal.lookup_hits"] += 1


def targets():
    """(span name or None, owner, attribute, observer) for every wrapped callable.

    A module-level function is patched in every `ipqgr` module that binds it,
    so each caller's lookup finds the wrapper. A span name of None counts
    without recording a span, for calls too frequent to time individually.
    """
    from ipqgr import (
        codebook, decoder, harness, io_formats, ipq, metrics, rehearsal, repr_learner,
        synthetic, vector_core,
    )

    return [
        ("vector_core.kmeans", vector_core, "kmeans", None),
        ("codebook.build_base_codebook", codebook, "build_base_codebook", None),
        ("ipq.ingest_session", ipq, "ingest_session", _count_ingest),
        ("rehearsal.build_memory_bank", rehearsal, "build_memory_bank", _count_bank),
        ("rehearsal.code_index", rehearsal.CodeIndex, "from_codes", None),
        (None, rehearsal.CodeIndex, "lookup", _count_lookup),
        ("rehearsal.generate_pseudo_queries", rehearsal, "generate_pseudo_queries", _count_pseudo),
        ("decoder.train_session", decoder, "train_session", None),
        ("decoder.mle_loss", decoder, "mle_loss", _count_mle_pairs),
        ("decoder.ewc_loss", decoder, "ewc_loss", None),
        ("decoder.align_to_codebook", decoder, "align_to_codebook", None),
        ("decoder.estimate_fisher", decoder, "estimate_fisher", None),
        ("decoder.trie_build", decoder.DocidTrie, "from_codes", None),
        ("decoder.beam_search", decoder, "constrained_beam_search", None),
        ("harness.run_experiment", harness, "run_experiment", None),
        ("harness.build_base", harness.Engine, "build_base", None),
        ("harness.ingest", harness.Engine, "ingest", None),
        ("harness.evaluate", harness.Engine, "evaluate", None),
        ("harness.state_core_bytes", harness, "state_core_bytes", None),
        ("harness.save_state", harness, "save_state", None),
        ("harness.load_state", harness, "load_state", None),
        ("repr_learner.iterative_train", repr_learner, "iterative_train", None),
        ("repr_learner.contrastive_loss", repr_learner, "contrastive_loss", _count_contrastive_rows),
        ("repr_learner.doc_embedding", repr_learner, "doc_embedding", None),
        ("metrics.mrr_at", metrics, "mrr_at", None),
        ("metrics.vert", metrics, "vert", None),
        ("metrics.continual_metrics", metrics, "continual_metrics", None),
        ("io_formats.read_embeddings", io_formats, "read_embeddings", None),
        ("io_formats.write_embeddings", io_formats, "write_embeddings", None),
        ("synthetic.generate", synthetic, "generate", None),
    ]


def span_names() -> list[str]:
    return [name for name, *_ in targets() if name is not None]


def _wrap(fn, name, observer, tracer):
    if name is None:
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            out = fn(*args, **kwargs)
            observer(tracer, args, kwargs, out)
            return out

        return counting

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if observer is not None:
            observer(tracer, args, kwargs, out)
        return out

    return timed


def _bindings(owner, attr):
    """Every (namespace owner, attribute) through which callers reach owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = vars(owner)[attr]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ipqgr" or mod_name.startswith("ipqgr.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, key))
    return found


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them all."""
    saved = []  # (owner, attribute, original raw attribute value)
    try:
        for name, owner, attr, observer in targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(raw.__func__, name, observer, tracer))
            else:
                replacement = _wrap(raw, name, observer, tracer)
            for target, key in _bindings(owner, attr):
                saved.append((target, key, vars(target)[key]))
                setattr(target, key, replacement)
        yield tracer
    finally:
        for target, key, raw in reversed(saved):
            setattr(target, key, raw)


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("us_per_query"):
        return "us"
    if metric.endswith(("_ratio", "_share")) or metric.startswith("quality."):
        return "1"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls and self time, per-layer self time, and counts."""
    agg = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in span_names():
        calls, s = agg.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for name, (_, s) in agg.items() if name.split(".")[0] == layer)
    counts = tracer.counts
    for key in ("ipq.unchanged", "ipq.changed", "ipq.added", "ipq.added_singleton",
                "decoder.mle_loss.pairs", "rehearsal.bank_docs", "rehearsal.pseudo_pairs",
                "rehearsal.lookups", "repr_learner.contrastive_loss.rows"):
        out[key] = counts[key]
    lookups = counts["rehearsal.lookups"]
    out["rehearsal.lookup_hit_ratio"] = counts["rehearsal.lookup_hits"] / lookups if lookups else 0.0
    calls, s = agg.get("decoder.beam_search", (0, 0.0))
    out["decoder.beam_search.us_per_query"] = 1e6 * s / calls if calls else 0.0
    return out
