"""Experiment driver: session splitting, engine state, variants, reports.

A run covers a base session plus T incremental sessions. Session 0 builds the
codebook (optionally via the discriminative two-step trainer when token
documents are available) and trains the decoder on labeled query pairs; later
sessions arrive as documents only and are indexed incrementally, with
rehearsal, pseudo queries, and an EWC anchor configurable per variant.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import struct
import sys
import time
import dataclasses
from dataclasses import dataclass, field, asdict

import numpy as np

from . import synthetic
from .codebook import Codebook, build_base_codebook
from .decoder import (
    DecoderParams,
    DocidTrie,
    FisherDiag,
    align_to_codebook,
    beam_search,
    estimate_fisher,
    train_session,
)
from .ipq import THRESHOLD_MODES, InvalidStateError, UpdateKind, ingest_session
from .metrics import QrelEntry, continual_metrics, hits_at, mrr_at, vert
from .rehearsal import (
    CodeIndex,
    MemoryBank,
    MemoryBankEntry,
    build_memory_bank,
    generate_pseudo_queries,
)
from .repr_learner import doc_embedding, iterative_train
from .rng import RandomSource

REPORT_SCHEMA = "ipqgr-report/1"

# Named presets for the model-variant ablations the harness supports.
VARIANTS: dict[str, dict] = {
    "full": {},
    "base": {
        "enable_memory_bank": False,
        "enable_pseudo_queries": False,
        "enable_ewc": False,
        "enable_mle_dneg": False,
        "threshold_mode": "none",
        "v_epochs": 0,
    },
    "pq": {"threshold_mode": "none", "v_epochs": 0},
    "pq-re": {"threshold_mode": "none", "v_epochs": 0, "recluster_each_session": True},
    "pq-dis": {"threshold_mode": "none"},
    "pq-dis-ad": {"threshold_mode": "ad_only"},
    "pq-dis-md": {"threshold_mode": "md_only"},
    "no-ewc": {"enable_ewc": False},
    "no-mle-dneg": {"enable_mle_dneg": False},
    "no-mle-q": {"enable_pseudo_queries": False},
    "random-bank": {"random_bank": True},
}


@dataclass
class ExperimentConfig:
    dim: int = 16
    m_groups: int = 4
    k_clusters: int = 8
    v_epochs: int = 2
    tau: float = 0.1
    g_spans: int = 5
    c_repeats: int = 10
    sigma: float = 0.1
    n_q: int = 3
    lam: float = 0.5
    beam: int = 15
    top_n: int = 10
    proj_step: float = 1e-2
    proj_inner_iters: int = 20
    decoder_step: float = 5e-2
    decoder_steps: int = 200
    seed: int = 0
    fractions: tuple = (0.6, 0.1, 0.1, 0.1, 0.1)
    setting: str = "sequential"  # "single" | "sequential"
    metric: str = "mrr"  # "mrr" | "hits"
    metric_cutoff: int = 10
    enable_memory_bank: bool = True
    enable_pseudo_queries: bool = True
    enable_ewc: bool = True
    enable_mle_dneg: bool = True
    threshold_mode: str = "both"
    recluster_each_session: bool = False
    random_bank: bool = False
    variant: str = "full"

    def validate(self) -> None:
        if self.dim % self.m_groups != 0:
            raise ValueError(f"dim {self.dim} not divisible by {self.m_groups} groups")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("session fractions must sum to 1")
        if self.setting not in ("single", "sequential"):
            raise ValueError(f"unknown evaluation setting {self.setting!r}")
        if self.metric not in ("mrr", "hits"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(f"unknown threshold mode {self.threshold_mode!r}")
        if self.recluster_each_session and self.threshold_mode != "none":
            raise ValueError("re-clustering requires threshold_mode 'none'")
        if self.random_bank and not self.enable_memory_bank:
            raise ValueError("random_bank requires the memory bank to be enabled")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.g_spans < 1:
            raise ValueError(f"g_spans must be at least 1, got {self.g_spans}")
        if self.v_epochs < 0:
            raise ValueError(f"v_epochs must be non-negative, got {self.v_epochs}")

    def with_variant(self, name: str) -> "ExperimentConfig":
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
        cfg = ExperimentConfig(**{**asdict(self), **VARIANTS[name]})
        cfg.fractions = tuple(cfg.fractions)
        cfg.variant = name
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fractions"] = list(self.fractions)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**d)
        cfg.fractions = tuple(cfg.fractions)
        return cfg

    def metric_fn(self):
        cutoff = self.metric_cutoff
        if self.metric == "mrr":
            return lambda run, qrels: mrr_at(run, qrels, cutoff)
        return lambda run, qrels: hits_at(run, qrels, cutoff)


@dataclass
class ExperimentInputs:
    doc_ids: list
    doc_embs: np.ndarray
    test_query_ids: list
    test_query_embs: np.ndarray
    test_qrels: dict  # query id -> relevant doc id
    train_query_ids: list = field(default_factory=list)
    train_query_embs: np.ndarray | None = None
    train_qrels: dict = field(default_factory=dict)
    token_docs: list | None = None

    @classmethod
    def from_synthetic(cls, data: synthetic.SyntheticData) -> "ExperimentInputs":
        return cls(
            doc_ids=data.doc_ids,
            doc_embs=data.doc_embs,
            test_query_ids=data.test_query_ids,
            test_query_embs=data.test_query_embs,
            test_qrels=data.test_qrels,
            train_query_ids=data.train_query_ids,
            train_query_embs=data.train_query_embs,
            train_qrels=data.train_qrels,
            token_docs=data.token_docs,
        )


def split_benchmark(ids: list, fractions, rng: RandomSource) -> list[list]:
    """Disjoint random split of ids into per-session groups of exact sizes.

    Sizes are floor(fraction * n) with leftovers assigned by largest
    fractional remainder (ties to the earlier session).
    """
    fractions = list(fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    n = len(ids)
    raw = [f * n for f in fractions]
    sizes = [math.floor(r) for r in raw]
    leftovers = n - sum(sizes)
    order = sorted(range(len(fractions)), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in order[:leftovers]:
        sizes[i] += 1
    perm = rng.permutation(n)
    out, pos = [], 0
    for s in sizes:
        out.append([ids[i] for i in perm[pos : pos + s]])
        pos += s
    return out


@dataclass
class EngineState:
    session: int
    codebook: Codebook
    codes: dict
    doc_embs: dict
    decoder: DecoderParams
    fisher: FisherDiag | None
    projector: object | None
    history: list = field(default_factory=list)


STATE_MAGIC = b"IPQS"
STATE_VERSION = 2


def state_core_bytes(state: EngineState) -> int:
    """Serialized size of the model state, excluding run bookkeeping."""
    core = (state.codebook, state.codes, state.decoder, state.fisher, state.projector)
    return len(pickle.dumps(core, protocol=4))


def save_state(state: EngineState, path) -> None:
    payload = pickle.dumps(state, protocol=4)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(STATE_MAGIC)
        fh.write(struct.pack("<I", STATE_VERSION))
        fh.write(digest)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)


def _canonicalize_loaded(obj, seen: set | None = None) -> None:
    """Restore interned identities that unpickling loses.

    A freshly built state holds interned str keys and numpy's singleton dtype
    instances; unpickling produces equal-but-distinct copies. The mix changes
    how pickle memoizes a later save, so without this pass a resumed run would
    serialize to slightly different bytes than an uninterrupted one.
    """
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.dtype = np.dtype(obj.dtype.str)
    elif isinstance(obj, dict):
        for k in list(obj):
            v = obj.pop(k)
            obj[sys.intern(k) if isinstance(k, str) else k] = v
            _canonicalize_loaded(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _canonicalize_loaded(v, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _canonicalize_loaded(getattr(obj, f.name), seen)


def load_state(path) -> EngineState:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 48 or data[:4] != STATE_MAGIC:
        raise ValueError(f"{path}: not an engine state file (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version > STATE_VERSION:
        raise ValueError(f"{path}: state version {version} is newer than supported {STATE_VERSION}")
    digest = data[8:40]
    (length,) = struct.unpack_from("<Q", data, 40)
    payload = memoryview(data)[48:]  # hashed and unpickled without a copy
    if len(payload) != length:
        raise ValueError(f"{path}: truncated payload ({len(payload)} of {length} bytes)")
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path}: checksum mismatch, file is corrupt")
    state = pickle.loads(payload)
    if version < 2:  # version 1 also stored doc_session and per-cluster ids and distances
        vars(state).pop("doc_session", None)
        for g in state.codebook.groups:
            vars(g).pop("member_ids", None)
            vars(g).pop("member_dists", None)
    _canonicalize_loaded(state)
    return state


class Engine:
    """Stateful continual-indexing engine driven session by session."""

    def __init__(self, config: ExperimentConfig, state: EngineState | None = None):
        config.validate()
        self.config = config
        self.state = state
        self._trie_session: int | None = None
        self._trie: DocidTrie | None = None

    def _rng(self, *keys) -> RandomSource:
        return RandomSource(self.config.seed).derive(*keys)

    # -- session 0 ---------------------------------------------------------

    def build_base(self, doc_ids, doc_embs, train_query_pairs, token_docs=None) -> dict:
        """Construct codebook and decoder from the base corpus.

        train_query_pairs is a list of (query embedding, relevant doc id)
        limited to base documents.
        """
        cfg = self.config
        rng = self._rng("base")
        projector = None
        if token_docs is not None:
            projector, cb, code_list = iterative_train(
                token_docs,
                cfg.m_groups,
                cfg.k_clusters,
                cfg.v_epochs,
                cfg.tau,
                cfg.g_spans,
                cfg.proj_step,
                rng.derive("repr"),
                out_dim=cfg.dim,
                inner_iters=cfg.proj_inner_iters,
            )
            embs = np.stack([doc_embedding(d, projector) for d in token_docs])
            codes = {doc_id: code for doc_id, code in zip(doc_ids, code_list)}
        else:
            embs = np.asarray(doc_embs, dtype=float)
            cb = build_base_codebook(embs, cfg.m_groups, cfg.k_clusters, rng.derive("cluster"))
            codes = {doc_id: cb.quantize(e) for doc_id, e in zip(doc_ids, embs)}

        decoder = DecoderParams.zeros(cb.sizes(), cfg.dim, session=-1)
        doc_pairs = [(e, codes[doc_id]) for doc_id, e in zip(doc_ids, embs)]
        query_pairs = [(qe, codes[d]) for qe, d in train_query_pairs if d in codes]
        decoder = train_session(
            decoder, cb, doc_pairs, [], query_pairs, None, 0.0, cfg.decoder_step, cfg.decoder_steps
        )
        fisher = estimate_fisher(doc_pairs + query_pairs, decoder)
        self.state = EngineState(
            session=0,
            codebook=cb,
            codes=codes,
            doc_embs={doc_id: np.asarray(e, dtype=float) for doc_id, e in zip(doc_ids, embs)},
            decoder=decoder,
            fisher=fisher,
            projector=projector,
        )
        self._trie = None
        return {
            "session": 0,
            "n_new_docs": len(doc_ids),
            "n_train_query_pairs": len(query_pairs),
            "decisions": {},
            "bank_size": 0,
            "n_pseudo_pairs": 0,
            "codebook_sizes": cb.sizes(),
        }

    # -- sessions >= 1 -----------------------------------------------------

    def ingest(self, t: int, doc_ids, doc_embs, token_docs=None) -> tuple[dict, list]:
        """Index one session of new documents and retrain the decoder."""
        cfg = self.config
        st = self.state
        if st is None or st.session != t - 1:
            have = "no state" if st is None else f"session {st.session}"
            raise InvalidStateError(f"cannot ingest session {t} from {have}")
        for what, given in (("embedding rows", doc_embs), ("token docs", token_docs)):
            if given is not None and len(given) != len(doc_ids):
                raise ValueError(f"{len(doc_ids)} doc ids but {len(given)} {what}")
        seen = set(st.codes)
        for i in doc_ids:
            if i in seen:
                raise ValueError(f"doc id {i!r} is already indexed or repeated in this session")
            seen.add(i)
        if token_docs is not None and st.projector is not None:
            embs = np.stack([doc_embedding(d, st.projector) for d in token_docs])
        else:
            embs = np.asarray(doc_embs, dtype=float)

        old_codes = dict(st.codes)
        decision_counts: dict[str, int] = {}
        log: list = []
        if cfg.recluster_each_session:
            all_ids = list(st.codes.keys()) + list(doc_ids)
            all_embs = np.vstack([np.stack([st.doc_embs[i] for i in st.codes]), embs])
            cb = build_base_codebook(all_embs, cfg.m_groups, cfg.k_clusters, self._rng("ingest", t))
            cb.session = t
            st.codes = {i: cb.quantize(e) for i, e in zip(all_ids, all_embs)}
            new_code_map = {i: st.codes[i] for i in doc_ids}
            changed_old = sum(1 for i in old_codes if st.codes[i] != old_codes[i])
            decision_counts["reclustered_old_codes_changed"] = changed_old
        else:
            cb, new_code_map, log = ingest_session(
                st.codebook,
                list(zip(doc_ids, embs)),
                self._rng("ingest", t),
                cfg.threshold_mode,
                target_session=t,
            )
            st.codes.update(new_code_map)
            for d in log:
                decision_counts[d.kind.value] = decision_counts.get(d.kind.value, 0) + 1

        index = CodeIndex.from_codes(old_codes)
        if cfg.enable_memory_bank:
            bank = build_memory_bank(new_code_map, index, cfg.c_repeats, cb, self._rng("bank", t), t)
            if cfg.random_bank:
                size = len(bank.doc_ids())
                pool = list(old_codes.keys())
                pick = self._rng("random-bank", t).choice_without_replacement(
                    len(pool), min(size, len(pool))
                )
                bank = MemoryBank(
                    t, [MemoryBankEntry(pool[int(i)], None, 0) for i in sorted(pick)]
                )
        else:
            bank = MemoryBank(t)
        bank_ids = bank.doc_ids()
        bank_pairs = (
            [(st.doc_embs[i], st.codes[i]) for i in bank_ids] if cfg.enable_mle_dneg else []
        )

        pseudo_pairs = []
        if cfg.enable_pseudo_queries:
            pseudo_rng = self._rng("pseudo", t)
            targets = list(zip(doc_ids, embs)) + [(i, st.doc_embs[i]) for i in bank_ids]
            for doc_id, emb in targets:
                for pair in generate_pseudo_queries(
                    doc_id, emb, st.codes[doc_id], cfg.n_q, cfg.sigma, pseudo_rng.derive(doc_id)
                ):
                    pseudo_pairs.append((pair.query, pair.code))

        doc_pairs = [(e, new_code_map[i]) for i, e in zip(doc_ids, embs)]
        fisher = st.fisher if cfg.enable_ewc else None
        lam = cfg.lam if cfg.enable_ewc else 0.0
        decoder = train_session(
            st.decoder, cb, doc_pairs, bank_pairs, pseudo_pairs, fisher, lam,
            cfg.decoder_step, cfg.decoder_steps,
        )
        fisher_pairs = doc_pairs + pseudo_pairs
        st.fisher = estimate_fisher(fisher_pairs, decoder) if fisher_pairs else st.fisher
        st.codebook = cb
        st.decoder = decoder
        st.session = t
        for i, e in zip(doc_ids, embs):
            st.doc_embs[i] = np.asarray(e, dtype=float)
        self._trie = None
        info = {
            "session": t,
            "n_new_docs": len(doc_ids),
            "decisions": decision_counts,
            "bank_size": len(bank_ids),
            "n_pseudo_pairs": len(pseudo_pairs),
            "codebook_sizes": cb.sizes(),
        }
        return info, log

    # -- retrieval ---------------------------------------------------------

    def _get_trie(self) -> DocidTrie:
        if self._trie is None or self._trie_session != self.state.session:
            self._trie = DocidTrie.from_codes(self.state.codes)
            self._trie_session = self.state.session
        return self._trie

    def evaluate(self, query_ids, query_embs) -> dict:
        """Scored rankings for each query: query id -> [(doc id, score), ...]."""
        cfg = self.config
        rankings = beam_search(query_embs, self.state.decoder, self._get_trie(), cfg.beam, cfg.top_n)
        return dict(zip(query_ids, rankings))


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic serialization of a report, excluding wall-clock timing."""
    stripped = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()


def run_experiment(
    config: ExperimentConfig,
    inputs: ExperimentInputs,
    resume_state: EngineState | None = None,
    stop_after_session: int | None = None,
    include_timing: bool = False,
):
    """Run the full continual protocol; returns (report | None, engine state).

    With `stop_after_session` set, the run halts after that session and
    returns (None, state); the state can later be passed back as
    `resume_state` to continue the identical run.
    """
    config.validate()
    t_start = time.perf_counter()
    root = RandomSource(config.seed)
    doc_splits = split_benchmark(list(inputs.doc_ids), config.fractions, root.derive("split-docs"))
    n_sessions = len(config.fractions)
    doc_arrival = {d: s for s, ids in enumerate(doc_splits) for d in ids}
    qrels = {
        qid: QrelEntry(doc_id, doc_arrival[doc_id]) for qid, doc_id in inputs.test_qrels.items()
    }
    # Session-specific query sets follow their relevant document's arrival, so
    # Q_i is answerable exactly from session i onward; unjudged queries are
    # only ever scored in the single-query-set setting.
    query_splits = [
        [q for q in inputs.test_query_ids if q in qrels and qrels[q].session == s]
        for s in range(n_sessions)
    ]
    emb_of = {d: e for d, e in zip(inputs.doc_ids, np.asarray(inputs.doc_embs, dtype=float))}
    qemb_of = {
        q: e for q, e in zip(inputs.test_query_ids, np.asarray(inputs.test_query_embs, dtype=float))
    }
    tokens_of = (
        {d: tok for d, tok in zip(inputs.doc_ids, inputs.token_docs)}
        if inputs.token_docs is not None
        else None
    )
    metric = config.metric_fn()

    engine = Engine(config, state=resume_state)
    start = 0 if resume_state is None else resume_state.session + 1
    for t in range(start, n_sessions):
        ids = doc_splits[t]
        if t == 0:
            base_ids = set(ids)
            train_pairs = []
            if inputs.train_query_embs is not None:
                for qid, qe in zip(inputs.train_query_ids, np.asarray(inputs.train_query_embs, dtype=float)):
                    d = inputs.train_qrels.get(qid)
                    if d in base_ids:
                        train_pairs.append((qe, d))
            info = engine.build_base(
                ids,
                np.stack([emb_of[d] for d in ids]) if ids else np.zeros((0, config.dim)),
                train_pairs,
                token_docs=[tokens_of[d] for d in ids] if tokens_of else None,
            )
        else:
            info, _ = engine.ingest(
                t,
                ids,
                np.stack([emb_of[d] for d in ids]) if ids else np.zeros((0, config.dim)),
                token_docs=[tokens_of[d] for d in ids] if tokens_of else None,
            )

        if config.setting == "sequential":
            eval_qids = [q for i in range(t + 1) for q in query_splits[i]]
        else:
            eval_qids = list(inputs.test_query_ids)
        scored = engine.evaluate(eval_qids, [qemb_of[q] for q in eval_qids])
        run = {qid: [d for d, _ in ranking] for qid, ranking in scored.items()}
        metrics_block = {"vert": vert(run, qrels, metric, max_session=t)}
        if config.setting == "sequential":
            row = []
            for i in range(t + 1):
                sub = {q: run[q] for q in query_splits[i]}
                row.append(metric(sub, qrels))
            metrics_block["matrix_row"] = row
        info["metrics"] = metrics_block
        info["state_bytes"] = state_core_bytes(engine.state)
        engine.state.history.append(info)
        if stop_after_session is not None and t == stop_after_session and t < n_sessions - 1:
            return None, engine.state

    history = engine.state.history
    matrix = None
    continual = None
    if config.setting == "sequential":
        matrix = [rec["metrics"]["matrix_row"] for rec in history]
        ap, bwt, fwt = continual_metrics(matrix)
        continual = {"ap": ap, "bwt": bwt, "fwt": fwt}
    decision_totals: dict[str, int] = {}
    for rec in history:
        for k, v in rec["decisions"].items():
            decision_totals[k] = decision_totals.get(k, 0) + v
    report = {
        "schema": REPORT_SCHEMA,
        "config": config.to_dict(),
        "n_docs": len(inputs.doc_ids),
        "n_test_queries": len(inputs.test_query_ids),
        "sessions": history,
        "session_matrix": matrix,
        "continual": continual,
        "decision_totals": decision_totals,
    }
    if include_timing:
        report["timing"] = {"wall_seconds": time.perf_counter() - t_start}
    return report, engine.state


def run_synthetic_benchmark(
    variant: str,
    seed: int,
    n_docs: int = 500,
    dim: int = 16,
    m_groups: int = 4,
    k_clusters: int = 8,
    n_clusters: int = 25,
    **config_overrides,
):
    """Full protocol on a generated corpus; returns the report.

    Benchmark defaults differ from ExperimentConfig in two places: a smaller
    per-session training budget (100 steps) and a saturated perturbation
    budget (c=50), chosen so the rehearsal effects are visible at this corpus
    size; both can be overridden.
    """
    cfg = ExperimentConfig(
        dim=dim, m_groups=m_groups, k_clusters=k_clusters, seed=seed,
        decoder_steps=100, c_repeats=50,
    )
    cfg = dataclasses.replace(cfg, **config_overrides).with_variant(variant)
    data = synthetic.generate(n_docs, dim, n_clusters, RandomSource(seed).derive("synthetic"))
    report, _ = run_experiment(cfg, ExperimentInputs.from_synthetic(data))
    return report
