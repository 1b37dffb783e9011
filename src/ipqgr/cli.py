"""Command-line driver for the continual indexing/retrieval engine.

Subcommands:
    gen-synthetic   write a synthetic corpus (EMB1 or TOK1 docs, EMB1 queries, qrels TSV)
    run             execute the full multi-session protocol, emit a report
    build-base      index every document as session 0 and save the engine state
    ingest          index one more session of documents into a saved state
    evaluate        score queries against a saved state, emit a run TSV

A --docs file is read by its magic: EMB1 embedding rows, or TOK1 token
matrices, which a state with a projector (a TOK1 base's) ingests. Documents
and queries are numbered by their rows; a qrels line names a query row and
the document row that answers it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import io_formats, synthetic
from .harness import (
    Engine,
    ExperimentConfig,
    ExperimentInputs,
    VARIANTS,
    canonical_report_bytes,
    load_state,
    run_experiment,
    save_state,
)
from .ipq import decision_log_lines
from .metrics import CUTOFF, QrelEntry, hits_at, mrr_at
from .rng import RandomSource


def _load_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
    else:
        cfg = ExperimentConfig()
    if args.variant:
        cfg = cfg.with_variant(args.variant)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _judged(path, n_rows: int, option: str) -> dict:
    """Query row -> judged doc id, from a qrels file that judges only rows of the `option` file."""
    qrels = io_formats.read_qrels(path)
    for q in qrels:
        if q not in range(n_rows):
            raise ValueError(f"{path} judges query {q!r}, but {option} has {n_rows} rows")
    return {q: qrels[q].doc_id for q in range(n_rows) if q in qrels}


def _load_inputs(args) -> ExperimentInputs:
    if args.train_queries and not args.train_qrels:
        raise ValueError("--train-queries needs --train-qrels, the qrels that judge them")
    if args.train_qrels and not args.train_queries:
        raise ValueError("--train-qrels needs --train-queries, the queries it judges")
    docs = io_formats.read_docs(args.docs)
    queries = io_formats.read_embeddings(args.queries)
    test_qrels = _judged(args.qrels, queries.shape[0], "--queries")
    train_embs, train_qrels = queries[:0], {}
    if args.train_queries:
        train_embs = io_formats.read_embeddings(args.train_queries)
        train_qrels = _judged(args.train_qrels, train_embs.shape[0], "--train-queries")
    return ExperimentInputs(docs, queries, test_qrels, train_embs, train_qrels)


def cmd_gen_synthetic(args) -> int:
    rng = RandomSource(args.seed).derive("synthetic")
    data = synthetic.generate(args.n_docs, args.dim, args.clusters, rng, with_tokens=args.tokens)
    write = io_formats.write_token_docs if args.tokens else io_formats.write_embeddings
    write(args.docs_out, data.docs)
    io_formats.write_embeddings(args.queries_out, data.test_query_embs)
    io_formats.write_embeddings(args.train_queries_out, data.train_query_embs)
    for path, qrels in ((args.qrels_out, data.test_qrels), (args.train_qrels_out, data.train_qrels)):
        io_formats.write_qrels(path, {q: QrelEntry(d, 0) for q, d in qrels.items()})
    print(f"wrote {args.n_docs} docs (dim {args.dim}) and matching query files")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    inputs = _load_inputs(args)
    report, state = run_experiment(cfg, inputs, include_timing=args.timing)
    if args.state_out:
        save_state(state, args.state_out)
    payload = (
        json.dumps(report, indent=2, sort_keys=True).encode()
        if args.timing
        else canonical_report_bytes(report)
    )
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"report written to {args.out}")
    return 0


def cmd_build_base(args) -> int:
    # One session over every document; `fractions` splits only a `run`.
    cfg = dataclasses.replace(_load_config(args), fractions=(1.0,))
    inputs = _load_inputs(args)
    _, state = run_experiment(cfg, inputs)
    save_state(state, args.state_out)
    print(f"base state (session 0) written to {args.state_out}")
    return 0


def cmd_ingest(args) -> int:
    cfg = _load_config(args)
    state = load_state(args.state)
    docs = io_formats.read_docs(args.docs)
    first_id = max(state.codes, default=-1) + 1
    ids = list(range(first_id, first_id + len(docs)))
    engine = Engine(cfg, state)
    info, log = engine.ingest(state.session + 1, ids, docs)
    engine.state.history.append(info)
    save_state(engine.state, args.state_out or args.state)
    if args.decision_log:
        with open(args.decision_log, "w") as fh:
            fh.write("\n".join(decision_log_lines(engine.state.session, log)) + "\n")
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    state = load_state(args.state)
    queries = io_formats.read_embeddings(args.queries)
    # Read before any scoring, so a bad qrels file leaves no run behind.
    judged = _judged(args.qrels, len(queries), "--queries") if args.qrels else {}
    scored = Engine(ExperimentConfig(), state).evaluate(range(len(queries)), queries)
    io_formats.write_run(args.out, scored)
    if args.qrels:
        run = {q: [d for d, _ in scored[q]] for q in judged}
        qrels = {q: QrelEntry(d, 0) for q, d in judged.items()}
        scores = {f"mrr@{CUTOFF}": mrr_at(run, qrels, CUTOFF), f"hits@{CUTOFF}": hits_at(run, qrels, CUTOFF)}
        print(json.dumps(scores, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ipqgr", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    g.add_argument("--n-docs", type=int, default=500)
    g.add_argument("--dim", type=int, default=16)
    g.add_argument("--clusters", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--docs-out", default="docs.emb")
    g.add_argument("--queries-out", default="queries.emb")
    g.add_argument("--train-queries-out", default="train_queries.emb")
    g.add_argument("--qrels-out", default="qrels.tsv")
    g.add_argument("--train-qrels-out", default="train_qrels.tsv")
    g.add_argument("--tokens", action="store_true", help="write --docs-out as TOK1 token matrices")
    g.set_defaults(func=cmd_gen_synthetic)

    def add_config(sp):
        sp.add_argument("--config", default=None, help="JSON experiment config")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--variant", choices=sorted(VARIANTS), help="set this preset's fields over the config's")

    def add_common(sp):
        add_config(sp)
        sp.add_argument("--docs", required=True)
        sp.add_argument("--queries", required=True)
        sp.add_argument("--qrels", required=True)
        sp.add_argument("--train-queries", default=None)
        sp.add_argument("--train-qrels", default=None)

    r = sub.add_parser("run", help="run the full continual protocol")
    add_common(r)
    r.add_argument("--out", required=True)
    r.add_argument("--state-out", default=None)
    r.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("build-base", help="index every document as session 0 and save state")
    add_common(b)
    b.add_argument("--state-out", required=True)
    b.set_defaults(func=cmd_build_base)

    i = sub.add_parser("ingest", help="index one session of new documents")
    add_config(i)
    i.add_argument("--state", required=True)
    i.add_argument("--state-out", default=None)
    i.add_argument("--docs", required=True)
    i.add_argument("--decision-log", default=None)
    i.set_defaults(func=cmd_ingest)

    e = sub.add_parser("evaluate", help="score queries against a saved state")
    e.add_argument("--state", required=True)
    e.add_argument("--queries", required=True)
    e.add_argument("--qrels", default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
