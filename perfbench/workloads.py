"""The benchmark's workloads, driven through the engine's public API only.

Each workload has a set-up step (inputs from the seed, and for
`ingest-stream` the base index and the session files) and a timed phase made
of units of work: one protocol run or one stream of ingest sessions. A unit
reports `op_s`, the time of each operation the latency metric pools, and
`items_s`, the timed parts over which its `items` are processed. Every
operation (a query, an ingest session, a save or a load) is counted, and a
failed correctness check fails the operation it belongs to.

Calls go through the defining module (`harness.save_state`, not a name bound
at import) so that a traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from types import SimpleNamespace

from ipqgr import harness, io_formats, metrics, synthetic
from ipqgr.rng import RandomSource

CUTOFF = 10

# Clock of the timed operations: the CPU time of this process. The process is
# single-threaded (one BLAS thread), so this is the wall time minus the time
# the operating system ran something else; see README.md.
CLOCK = time.process_time


class Ops:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str | None = None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"failed {what}: {problem}", file=sys.stderr)


# -- correctness checks -----------------------------------------------------


def ranking_problem(ranking, top_n: int, codes: dict) -> str | None:
    """Why a ranking is malformed, or None when it is well formed."""
    if ranking is None:
        return "no ranking returned"
    if len(ranking) > top_n:
        return f"{len(ranking)} entries exceed top_n={top_n}"
    scores = [s for _, s in ranking]
    if any(b > a for a, b in zip(scores, scores[1:])):
        return f"scores increase along the ranking: {scores}"
    unknown = [d for d, _ in ranking if d not in codes]
    if unknown:
        return f"doc ids not in the state: {unknown[:5]}"
    return None


def docid_problem(before: dict, after: dict) -> str | None:
    """Why an ingest broke an issued docid, or None when none changed."""
    changed = [d for d, code in before.items() if after.get(d) != code]
    if changed:
        return f"{len(changed)} issued docids changed, e.g. doc {changed[0]}"
    return None


def state_problem(saved, loaded) -> str | None:
    if loaded.session != saved.session:
        return f"loaded session {loaded.session} != saved {saved.session}"
    if loaded.codes != saved.codes:
        return "loaded codes differ from saved codes"
    return None


def fingerprint(*parts) -> str:
    """Digest of rankings (and report bytes) for exact run-to-run comparison."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _rows(rankings: dict) -> list:
    return [[q, [[d, s] for d, s in r]] for q, r in rankings.items()]


# -- shared steps -----------------------------------------------------------


def _mrr(rankings: dict, qrels: dict) -> float:
    run = {q: [d for d, _ in r] for q, r in rankings.items()}
    return metrics.mrr_at(run, {q: metrics.QrelEntry(qrels[q], 0) for q in run}, CUTOFF)


def _continual(diag: list[float], final: list[float]) -> dict:
    """AP/BWT/FWT from per-session probes.

    `diag[i]` is probe set i scored right after session i, `final[i]` the same
    set after the last session. Those are the only entries the program's
    definition reads, so the others are left NaN.
    """
    t_max = len(diag) - 1
    matrix = [[math.nan] * t + [diag[t]] for t in range(t_max)] + [list(final)]
    ap, bwt, fwt = metrics.continual_metrics(matrix)
    return {"ap": ap, "bwt": bwt, "fwt": fwt}


def _probe(engine, qids, data, ops) -> dict:
    scored = engine.evaluate(qids, data.test_query_embs[qids])
    for q in qids:
        ops.record("query", ranking_problem(scored.get(q), engine.config.top_n, engine.state.codes))
    return scored


def _train_pairs(data, doc_ids) -> list:
    """(query embedding, doc id) training pairs for the given documents."""
    base = set(doc_ids)
    pairs = zip(data.train_query_ids, data.train_query_embs)
    return [(emb, data.train_qrels[q]) for q, emb in pairs if data.train_qrels[q] in base]


def _save_and_reload(state, path, ops) -> int:
    """Save and load the state back; returns the state file's size in bytes."""
    harness.save_state(state, path)
    ops.record("save")
    loaded = harness.load_state(path)
    ops.record("load", state_problem(state, loaded))
    return os.path.getsize(path)


def _exact_counts(state, state_file_bytes: int) -> dict:
    sizes = state.codebook.sizes()
    return {
        "codebook.centroids_total": sum(sizes),
        "codebook.centroids_max": max(sizes),
        "decoder.params": state.decoder.n_params(),
        "harness.state_bytes": state_file_bytes,
    }


# -- running a workload -----------------------------------------------------


def run(workload, seed: int, seconds: float, work: str, ops: Ops, corpora: int | None = None,
        setups: int | None = None):
    """Set up every corpus `setups` times, then time rounds of one unit per corpus.

    Rounds repeat until the next one would end after `seconds` (predicted
    from the last round), and at least once.
    Returns (set-up times, per-round timings per corpus, finish figures per corpus).
    """
    corpora = workload.params["corpora"] if corpora is None else corpora
    setups = workload.params["setups"] if setups is None else setups
    dirs = [os.path.join(work, f"corpus-{c}") for c in range(corpora)]
    setup_times, ctxs = [], []
    for r in range(setups):
        for c, d in enumerate(dirs):
            os.makedirs(d, exist_ok=True)
            t0 = CLOCK()
            ctx = workload.setup(seed, c, d, ops if r == 0 else Ops())
            setup_times.append(CLOCK() - t0)
            if r == 0:
                ctxs.append(ctx)

    # Per corpus: the timings of every round, and the latest full result only,
    # so that memory does not grow with the number of rounds.
    units, latest = [[] for _ in ctxs], [None] * len(ctxs)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for c, ctx in enumerate(ctxs):
            u = workload.unit(ctx, ops)
            if latest[c] is not None:
                ops.record("repeat", None if u.fingerprint == latest[c].fingerprint
                           else f"corpus {c}: round {len(units[c])} differs from the round before")
            latest[c] = u
            units[c].append(SimpleNamespace(op_s=u.op_s, items=u.items, items_s=u.items_s))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    figs = [workload.finish(ctx, u, ops) for ctx, u in zip(ctxs, latest)]
    return setup_times, units, figs


# -- workloads --------------------------------------------------------------


class Workload:
    """A named workload: corpus size, engine settings and its own parameters.

    Each run draws `corpora` corpora from its seed with `synthetic.generate`
    (one cluster per 20 documents), so document and query ids are row indices
    of the generated arrays. How much work a corpus costs varies from corpus
    to corpus, mostly with how far IPQ grows the codebook, so a run times
    several corpora instead of one. `config` overrides `ExperimentConfig`
    fields; the variant is always `full`.
    """

    def __init__(self, name, n_docs, config, corpora, setups, tokens=False, **extra):
        self.name = name
        self.params = {"n_docs": n_docs, "n_clusters": n_docs // 20, "corpora": corpora,
                       "setups": setups, "tokens": tokens, "config": config, **extra}

    def _inputs(self, seed, corpus):
        p = self.params
        rng = RandomSource(seed).derive("synthetic", *([corpus] if corpus else []))
        data = synthetic.generate(p["n_docs"], p["config"]["dim"], p["n_clusters"], rng,
                                  with_tokens=p["tokens"])
        return data, harness.ExperimentConfig(seed=seed, **p["config"])


class Protocol(Workload):
    """One `run_experiment` call per unit: the researcher's path."""

    def setup(self, seed, corpus, work, ops):
        data, cfg = self._inputs(seed, corpus)
        return SimpleNamespace(cfg=cfg, data=data, work=work,
                               inputs=harness.ExperimentInputs.from_synthetic(data))

    def unit(self, ctx, ops):
        t0 = CLOCK()
        report, state = harness.run_experiment(ctx.cfg, ctx.inputs)
        elapsed = CLOCK() - t0
        ops.record("protocol")
        report_bytes = harness.canonical_report_bytes(report)
        return SimpleNamespace(op_s=[elapsed], items=len(ctx.data.doc_ids), items_s=[elapsed],
                               report=report, state=state, report_bytes=report_bytes,
                               fingerprint=fingerprint(report_bytes))

    def finish(self, ctx, u, ops) -> dict:
        """Save/load and probe the final state; quality comes from the report."""
        state_bytes = _save_and_reload(u.state, os.path.join(ctx.work, "final.state"), ops)
        engine = harness.Engine(ctx.cfg, u.state)
        probed = _probe(engine, ctx.data.test_query_ids[::10], ctx.data, ops)
        return {
            "quality": {"mrr10": u.report["sessions"][-1]["metrics"]["vert"],
                        **u.report["continual"]},
            "state_bytes": state_bytes,
            "docs": len(u.state.codes),
            "exact": _exact_counts(u.state, state_bytes),
            "fingerprint": fingerprint(u.report_bytes, _rows(probed)),
        }


class IngestStream(Workload):
    """The CLI `ingest` path: read docs, load state, ingest, save state, probe."""

    def setup(self, seed, corpus, work, ops):
        p = self.params
        data, cfg = self._inputs(seed, corpus)
        n_base = round(p["base"] * p["n_docs"])
        per_session = (p["n_docs"] - n_base) // p["sessions"]
        base_ids = data.doc_ids[:n_base]
        engine = harness.Engine(cfg)
        engine.build_base(base_ids, data.doc_embs[:n_base], _train_pairs(data, base_ids))
        probes = [base_ids[-p["probe"]:]]
        diag0 = _mrr(_probe(engine, probes[0], data, ops), data.test_qrels)
        base_state = os.path.join(work, "base.state")
        harness.save_state(engine.state, base_state)
        files = []
        for s in range(p["sessions"]):
            lo = n_base + s * per_session
            path = os.path.join(work, f"session-{s + 1:02d}.emb")
            io_formats.write_embeddings(path, data.doc_embs[lo : lo + per_session])
            files.append(path)
            probes.append(data.doc_ids[lo : lo + per_session][-p["probe"]:])
        return SimpleNamespace(cfg=cfg, data=data, base_engine_state=engine.state, diag0=diag0,
                               base_state=base_state, files=files, probes=probes, work=work,
                               n_ingested=per_session * p["sessions"])

    def unit(self, ctx, ops):
        """One pass over every session file, starting from the base state."""
        state_path = os.path.join(ctx.work, "stream.state")
        data, top_n = ctx.data, ctx.cfg.top_n
        saved, path, diag, rankings, times = ctx.base_engine_state, ctx.base_state, [ctx.diag0], {}, []
        for s, doc_file in enumerate(ctx.files, start=1):
            t0 = CLOCK()
            docs = io_formats.read_embeddings(doc_file)
            state = harness.load_state(path)
            t1 = CLOCK()
            ops.record("load", state_problem(saved, state))
            before = dict(state.codes)
            t2 = CLOCK()
            first_id = max((i for i in state.codes if isinstance(i, int)), default=-1) + 1
            ids = list(range(first_id, first_id + docs.shape[0]))
            engine = harness.Engine(ctx.cfg, state)
            engine.ingest(state.session + 1, ids, docs)
            harness.save_state(engine.state, state_path)
            scored = engine.evaluate(ctx.probes[s], data.test_query_embs[ctx.probes[s]])
            t3 = CLOCK()
            times.append((t1 - t0) + (t3 - t2))
            ops.record("save")
            ops.record("ingest", docid_problem(before, engine.state.codes)
                       or (None if ids[-len(ctx.probes[s]):] == ctx.probes[s]
                           else "session docs got unexpected ids"))
            for q in ctx.probes[s]:
                ops.record("query", ranking_problem(scored.get(q), top_n, engine.state.codes))
            diag.append(_mrr(scored, data.test_qrels))
            rankings.update(scored)
            saved, path = engine.state, state_path
        return SimpleNamespace(op_s=times, items=ctx.n_ingested, items_s=times,
                               state=saved, state_bytes=os.path.getsize(state_path), diag=diag,
                               rankings=rankings, fingerprint=fingerprint(_rows(rankings), diag))

    def finish(self, ctx, u, ops) -> dict:
        """Score every probe set again on the final state, for the forgetting figures."""
        engine = harness.Engine(ctx.cfg, u.state)
        rescored = _probe(engine, [q for ids in ctx.probes for q in ids], ctx.data, ops)
        qrels = ctx.data.test_qrels
        final = [_mrr({q: rescored[q] for q in ids}, qrels) for ids in ctx.probes]
        return {
            "quality": {"mrr10": _mrr(u.rankings, qrels), **_continual(u.diag, final)},
            "state_bytes": u.state_bytes,
            "docs": len(u.state.codes),
            "exact": _exact_counts(u.state, u.state_bytes),
            "fingerprint": fingerprint(u.fingerprint, _rows(rescored)),
        }


def build(scale: float = 1.0) -> dict:
    """The workloads by name. `scale` < 1 shrinks document counts for smoke tests."""

    def n(count, floor):
        return max(floor, int(count * scale))

    m_scale = {"dim": 32, "m_groups": 8, "k_clusters": 32}
    return {
        w.name: w
        for w in (
            IngestStream("ingest-stream", n_docs=n(1000, 200),
                         config={**m_scale, "decoder_steps": 10}, corpora=3, setups=3,
                         base=0.4, sessions=12, probe=50),
            Protocol("tokens", n_docs=n(64, 40), config={"dim": 16, "m_groups": 4, "k_clusters": 8},
                     corpora=4, setups=15, tokens=True),
        )
    }
