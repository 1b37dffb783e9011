"""Experiment driver: session splitting, engine state, variants, reports.

A run covers a base session plus T incremental sessions. Session 0 builds the
codebook (via the discriminative two-step trainer when its documents are
token matrices) and trains the decoder on labeled query pairs; later
sessions arrive as documents only and are indexed incrementally, with
rehearsal, pseudo queries, and an EWC anchor configurable per variant.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import struct
import time
from collections import Counter
from dataclasses import dataclass, field, asdict

import numpy as np

from . import synthetic
from .codebook import Codebook, SubCodebook, cluster_base, member_rows, split_rows
from .decoder import (
    DecoderParams,
    DocidTrie,
    FisherDiag,
    Layout,
    PairBatch,
    estimate_fisher,
    search,
    train_session,
)
from .ipq import THRESHOLD_MODES, InvalidStateError, ingest_session
from .metrics import CUTOFF, QrelEntry, continual_metrics, mrr_at, vert
from .rehearsal import CodeIndex, build_memory_bank, generate_pseudo_queries
from .repr_learner import ProjectorParams, doc_embedding, iterative_train
from .rng import RandomSource
from .synthetic import ExperimentInputs

REPORT_SCHEMA = "ipqgr-report/1"

# Named presets for the model-variant ablations the harness supports: each sets
# the config fields it names (`ExperimentConfig.with_variant`). A part governed by
# a count or a weight is ablated by its zero: c_repeats=0 draws no perturbations
# (no memory bank), n_q=0 samples no pseudo queries, lam=0 drops the EWC anchor.
VARIANTS: dict[str, dict] = {
    "full": {},
    "base": {
        "c_repeats": 0,
        "n_q": 0,
        "lam": 0.0,
        "enable_mle_dneg": False,
        "threshold_mode": "none",
        "v_epochs": 0,
    },
    "pq": {"threshold_mode": "none", "v_epochs": 0},
    "pq-re": {"threshold_mode": "recluster", "v_epochs": 0},
    "pq-dis": {"threshold_mode": "none"},
    "pq-dis-ad": {"threshold_mode": "ad_only"},
    "pq-dis-md": {"threshold_mode": "md_only"},
    "no-ewc": {"lam": 0.0},
    "no-mle-dneg": {"enable_mle_dneg": False},
    "no-mle-q": {"n_q": 0},
    "random-bank": {"random_bank": True},
}

# JSON value kinds, as (description, test): a config field's by its annotation,
# a state metadata field's by `_META_FIELDS`.
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "str": ("a string", lambda v: type(v) is str),
    "bool": ("true or false", lambda v: type(v) is bool),
    "tuple": ("a list of numbers", lambda v: isinstance(v, list)
              and all(type(x) in (int, float) for x in v)),
    "count": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "counts": ("a list of integers >= 0", lambda v: isinstance(v, list)
               and all(type(x) is int and x >= 0 for x in v)),
    "list": ("a list", lambda v: isinstance(v, list)),
}


@dataclass
class ExperimentConfig:
    dim: int = 16
    m_groups: int = 4
    k_clusters: int = 8
    v_epochs: int = 2
    c_repeats: int = 10
    n_q: int = 3
    lam: float = 0.5
    decoder_steps: int = 200
    seed: int = 0
    fractions: tuple = (0.6, 0.1, 0.1, 0.1, 0.1)
    enable_mle_dneg: bool = True
    threshold_mode: str = "both"  # one of ipq.THRESHOLD_MODES, or "recluster" (k-means anew)
    random_bank: bool = False

    @property
    def top_n(self) -> int:  # not a field: a ranking stops at the metric cutoff
        return CUTOFF

    def validate(self) -> None:
        # Below 1, each count fails late: m_groups divides by zero, and dim and
        # k_clusters fail inside k-means without naming the field.
        for name in ("dim", "m_groups", "k_clusters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # Zero turns a part off (c_repeats, n_q) or skips its training. A negative
        # c_repeats or n_q would fail in `ingest` after it has issued the codes.
        for name in ("c_repeats", "n_q", "v_epochs", "decoder_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        # A NaN or infinite lam stalls every anchored session at its first step
        # (inf x 0 is NaN), leaving the decoder at its anchor.
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")
        if self.dim % self.m_groups != 0:
            raise ValueError(f"dim {self.dim} not divisible by {self.m_groups} groups")
        # `split_benchmark` relies on these.
        if not all(0 <= f < math.inf for f in self.fractions):
            raise ValueError(f"session fractions must be finite and non-negative, got {list(self.fractions)}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("session fractions must sum to 1")
        if self.threshold_mode not in THRESHOLD_MODES + ("recluster",):
            raise ValueError(f"unknown threshold mode {self.threshold_mode!r}")
        if self.random_bank and self.c_repeats < 1:
            raise ValueError("random_bank requires a memory bank, c_repeats >= 1")

    def with_variant(self, name: str) -> "ExperimentConfig":
        """This config with the fields of preset `name` set."""
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
        return dataclasses.replace(self, **VARIANTS[name])

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fractions"] = list(self.fractions)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object")
        kinds = {f.name: _KINDS[f.type] for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - set(kinds))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in d.items():
            if not kinds[name][1](value):
                raise ValueError(f"config {name} must be {kinds[name][0]}, got {value!r}")
        return cls(**{**d, "fractions": tuple(d.get("fractions", cls.fractions))})


def split_benchmark(n: int, fractions, rng: RandomSource) -> list[list]:
    """Disjoint random split of the rows 0..n-1 into per-session groups of exact sizes.

    Sizes are floor(fraction * n) with leftovers assigned by largest
    fractional remainder (ties to the earlier session). The fractions are
    ones `ExperimentConfig.validate` accepts.
    """
    raw = [f * n for f in fractions]
    sizes = [math.floor(r) for r in raw]
    leftovers = n - sum(sizes)
    order = sorted(range(len(fractions)), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in order[:leftovers]:
        sizes[i] += 1
    return [part.tolist() for part in split_rows(rng.permutation(n), sizes)]


@dataclass
class EngineState:
    codebook: Codebook
    codes: dict  # doc id -> code, in the row order of the codebook's vectors
    decoder: DecoderParams
    fisher: FisherDiag
    projector: object | None
    history: list = field(default_factory=list)

    @property
    def session(self) -> int:
        """The last session indexed: the codebook's counter."""
        return self.codebook.session


STATE_MAGIC = b"IPQS"
STATE_VERSION = 6
_HEADER = struct.Struct("<4sI32sQ")  # magic, version, SHA-256 of the payload, payload length
_ALIGN = 16  # every array starts at a multiple of this many bytes into the file

# Metadata fields and what each holds; every array's shape follows from them.
# "projector" may be null.
_META_FIELDS = {
    "session": "count",
    "ids": "list",
    "history": "list",
    "codebook": {"dim": "count", "sizes": "counts"},
    "projector": {"hidden": "count", "in_dim": "count"},
}


def _array_layout(meta: dict) -> dict:
    """Name -> (dtype, shape) of each array the metadata calls for, in file order.

    The decoder and the Fisher have the codebook's group sizes, so the
    codebook's counts fix their shapes.
    """
    n, cb = len(meta["ids"]), meta["codebook"]
    dim, m, k = cb["dim"], len(cb["sizes"]), sum(cb["sizes"])
    layout = {
        "embeddings": ("<f8", (n, dim)),
        "centroids": ("<f8", (k, dim // m)),
        "decoder_weights": ("<f8", (k, dim)),
        "decoder_biases": ("<f8", (k,)),
        "fisher_weights": ("<f8", (k, dim)),
        "fisher_biases": ("<f8", (k,)),
    }
    if meta["projector"] is not None:
        hidden, in_dim = meta["projector"]["hidden"], meta["projector"]["in_dim"]
        layout["projector_w1"] = ("<f8", (hidden, in_dim))
        layout["projector_b1"] = ("<f8", (hidden,))
        layout["projector_w2"] = ("<f8", (dim, hidden))
        layout["projector_b2"] = ("<f8", (dim,))
    layout["codes"] = ("<i4", (n, m))
    layout["member"] = ("<u1", (n, m))
    return layout


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _metadata(state: EngineState, history: list) -> dict:
    """The state file's metadata: the counts that fix every array's shape."""
    cb, projector = state.codebook, state.projector
    ids = list(state.codes)
    for i in ids:
        if type(i) is not int:
            raise ValueError(f"cannot save doc id {i!r}: it has type {type(i).__name__}; doc ids are ints")
    for m, g in enumerate(cb.groups):
        if len(g.vecs) != len(ids):
            raise ValueError(f"{len(ids)} coded docs but {len(g.vecs)} rows of group {m}'s vectors")
    for what, rows in (("decoder", state.decoder), ("fisher", state.fisher)):
        if rows.sizes() != cb.sizes():
            raise ValueError(f"{what} group sizes {rows.sizes()} differ from the codebook's {cb.sizes()}")
    return {
        "session": cb.session,
        "ids": ids,
        "history": history,
        "codebook": {"dim": cb.dim, "sizes": cb.sizes()},
        "projector": None if projector is None else {
            "hidden": projector.w1.shape[0], "in_dim": projector.w1.shape[1]
        },
    }


def _payload(state: EngineState, history: list) -> list:
    """The payload as buffers in file order: metadata length and JSON, then arrays."""
    meta = _metadata(state, history)
    cb, projector = state.codebook, state.projector
    member = np.zeros((len(state.codes), cb.n_groups), "u1")  # 1 if the doc is in its code's cluster
    for m, g in enumerate(cb.groups):
        member[np.fromiter(itertools.chain.from_iterable(g.members), np.intp), m] = 1
    arrays = {
        "embeddings": cb.vectors(),
        "centroids": np.concatenate([g.centroids for g in cb.groups]),
        "decoder_weights": state.decoder.w,
        "decoder_biases": state.decoder.b,
        "fisher_weights": state.fisher.w,
        "fisher_biases": state.fisher.b,
        "codes": np.array(list(state.codes.values()), "<i4").reshape(len(state.codes), cb.n_groups),
        "member": member,
    }
    if projector is not None:
        for name in ("w1", "b1", "w2", "b2"):
            arrays[f"projector_{name}"] = getattr(projector, name)
    text = json.dumps(meta, separators=(",", ":")).encode()
    out, end = [struct.pack("<Q", len(text)), text], _HEADER.size + 8 + len(text)
    for name, (dtype, shape) in _array_layout(meta).items():
        a = np.ascontiguousarray(arrays[name], dtype=dtype)
        if a.shape != shape:
            raise ValueError(f"cannot save {name} of shape {a.shape}, expected {shape}")
        out.append(b"\0" * (_aligned(end) - end))
        out.append(a)
        end = _aligned(end) + a.nbytes
    return out


def _nbytes(payload: list) -> int:
    return sum(memoryview(b).nbytes for b in payload)


def state_core_bytes(state: EngineState) -> int:
    """Size of the state file for `state` without its history (run bookkeeping)."""
    return _HEADER.size + _nbytes(_payload(state, history=[]))


def save_state(state: EngineState, path) -> None:
    """Write `state` to `path` through a temporary file, so a failed save leaves the old file."""
    payload = _payload(state, state.history)
    digest = hashlib.sha256()
    for b in payload:
        digest.update(b)
    header = _HEADER.pack(STATE_MAGIC, STATE_VERSION, digest.digest(), _nbytes(payload))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for b in payload:
                fh.write(b)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _check_fields(obj, fields: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key, kind in fields.items():
        if key not in obj:
            raise ValueError(f"{where} lacks {key!r}")
        value, name = obj[key], f"{where}.{key}"
        if isinstance(kind, dict):
            if value is not None or key != "projector":
                _check_fields(value, kind, name)
        elif not _KINDS[kind][1](value):
            raise ValueError(f"{name} must be {_KINDS[kind][0]}")


class _HashedReader:
    """Sequential reads from a file that feed every byte read to a SHA-256."""

    def __init__(self, fh):
        self.fh, self.digest = fh, hashlib.sha256()

    def read(self, n: int) -> bytes:
        data = self.fh.read(n)
        if len(data) != n:
            raise ValueError("file shrank while being read")
        self.digest.update(data)
        return data

    def read_array(self, dtype: str, shape: list) -> np.ndarray:
        a = np.empty(shape, dtype)
        if self.fh.readinto(a) != a.nbytes:
            raise ValueError("file shrank while being read")
        self.digest.update(a)
        return a

    def finish(self) -> bytes:
        """SHA-256 of everything read plus the rest of the file."""
        self.digest.update(self.fh.read())
        return self.digest.digest()


def _decode(reader: _HashedReader, length: int) -> EngineState:
    """Read a payload of `length` bytes into a state, checking it against its metadata.

    Each array is read straight into its own buffer, so no copy of the whole
    file is held and a stale part of the file does not pin the rest.
    """
    if length < 8:
        raise ValueError("payload too short to hold its metadata length")
    (n_text,) = struct.unpack("<Q", reader.read(8))
    if n_text > length - 8:
        raise ValueError(f"metadata length {n_text} runs past the payload")
    try:
        meta = json.loads(reader.read(n_text))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"unreadable metadata: {exc}") from None
    _check_fields(meta, _META_FIELDS, "metadata")
    cb = meta["codebook"]
    sizes, dim, ids = cb["sizes"], cb["dim"], meta["ids"]
    if not sizes or dim % len(sizes):
        raise ValueError(f"codebook dim {dim} does not split into {len(sizes)} groups")
    if not all(type(i) is int for i in ids):
        raise ValueError("doc ids must be integers")
    if len(set(ids)) != len(ids):
        raise ValueError("doc ids repeat")

    arrays, end = {}, _HEADER.size + 8 + n_text
    for name, (dtype, shape) in _array_layout(meta).items():
        start = _aligned(end)
        if start + math.prod(shape) * int(dtype[2:]) > _HEADER.size + length:
            raise ValueError(f"array {name!r} runs past the payload")
        reader.read(start - end)
        arrays[name] = reader.read_array(dtype, shape)
        end = start + arrays[name].nbytes
    if end != _HEADER.size + length:
        raise ValueError(f"{_HEADER.size + length - end} bytes after the last array")

    codes, flags, sub_dim = arrays["codes"], arrays["member"], dim // len(sizes)
    if len(codes) and ((codes.min(axis=0) < 0) | (codes.max(axis=0) >= sizes)).any():
        raise ValueError("a code is out of range of its group's centroids")
    if (flags > 1).any():
        raise ValueError("array 'member' holds a flag other than 0 or 1")
    # Built before the groups: with them held, its scratch raised the load's peak memory.
    code_of = dict(zip(ids, zip(*codes.T.tolist())))
    # A group's vectors are a view of its columns; a cluster's members are its flagged docs' rows.
    groups = [
        SubCodebook(centroids, arrays["embeddings"][:, m * sub_dim : (m + 1) * sub_dim],
                    member_rows(codes[:, m], np.flatnonzero(flags[:, m]), k))
        for m, (k, centroids) in enumerate(zip(sizes, split_rows(arrays["centroids"], sizes)))
    ]
    # IPQ reads a centroid's thresholds from its members, so a memberless one cannot take a document.
    for m, g in enumerate(groups):
        if () in g.members:
            raise ValueError(f"group {m}, centroid {g.members.index(())} has no member")
    decoder = DecoderParams(arrays["decoder_weights"], arrays["decoder_biases"], layout=Layout.of(sizes))
    fisher = FisherDiag(arrays["fisher_weights"], arrays["fisher_biases"], layout=Layout.of(sizes))
    projector = None
    if meta["projector"] is not None:
        projector = ProjectorParams(*(arrays[f"projector_{n}"] for n in ("w1", "b1", "w2", "b2")))
    return EngineState(Codebook(meta["session"], dim, groups), code_of, decoder, fisher, projector,
                       meta["history"])


def load_state(path) -> EngineState:
    """Read a state file written by `save_state`.

    Only the current version loads. Versions 1 and 2 held a pickle, 3 a table of
    array shapes, 4 each member's sub-vector (version 5 flags it by document)
    and 5 a Fisher that was optional and sized apart from the codebook. They
    are refused unread, so loading never runs code from the file.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != STATE_MAGIC:
            raise ValueError(f"{path}: not an engine state file (bad magic)")
        _, version, digest, length = _HEADER.unpack(head)
        if version > STATE_VERSION:
            raise ValueError(f"{path}: state version {version} is newer than supported {STATE_VERSION}")
        if version < STATE_VERSION:
            held = {3: "a per-array table", 4: "member vectors",
                    5: "a separately sized Fisher"}.get(version, "a pickle")
            raise ValueError(f"{path}: state version {version} holds {held} and is not read; "
                             f"rebuild it (version {STATE_VERSION})")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != length:
            raise ValueError(f"{path}: truncated payload ({size} of {length} bytes)")
        reader = _HashedReader(fh)
        try:
            state = _decode(reader, length)
        except ValueError as exc:
            problem = f"malformed state: {exc}"
        else:
            problem = None
        # A corrupt file is reported as such, whatever its payload broke first.
        if reader.finish() != digest:
            problem = "checksum mismatch, file is corrupt"
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    return state


# The largest magnitude an input value may have. The EWC anchor, the engine's
# largest quantity, grows as the fourth power of the input scale: a Fisher of
# squared inputs times the square of weights that move with the inputs. At 1e30
# that power is 1e120, far below float64's largest value (1.8e308) whatever the
# sums over documents, decoder rows and steps add; and EMB1's float32 (largest
# 3.4e38) holds values beyond it, so a file meets the same refusal as an array.
MAX_ABS = 1e30


def _check_rows(what: str, rows, dim: int, whose: str) -> None:
    """Refuse vectors of the wrong width, or the first row holding a value that is not finite or beyond ±MAX_ABS."""
    rows = np.asarray(rows, dtype=float)
    if len(rows) and rows.shape[-1] != dim:
        raise ValueError(f"{what} are {rows.shape[-1]} wide, but {whose} dim is {dim}")
    fit = (np.abs(rows) <= MAX_ABS).all(axis=-1)  # False where a value is NaN, too
    if not fit.all():
        i = int(fit.argmin())
        problem = "that is not finite" if not np.isfinite(rows[i]).all() else f"beyond ±{MAX_ABS:g}"
        raise ValueError(f"{what} row {i} holds a value {problem}")


def _check_session(doc_ids, issued, docs, ndim: int, takes: str) -> None:
    """Refuse documents that do not pair with the ids, an id that is not an int, issued already or
    repeated, or a document that is not an `ndim`-D array, the kind that `takes` names."""
    if len(docs) != len(doc_ids):
        raise ValueError(f"{len(doc_ids)} doc ids but {len(docs)} documents")
    seen = set()
    for i in doc_ids:
        if type(i) is not int:
            raise ValueError(f"doc id {i!r} has type {type(i).__name__}; doc ids are ints")
        if i in issued or i in seen:
            raise ValueError(f"doc id {i!r} is already indexed or repeated in this session")
        seen.add(i)
    for i, doc in zip(doc_ids, docs):
        if np.ndim(doc) != ndim:
            raise ValueError(f"document {i!r} is a {np.ndim(doc)}-D array, but {takes}")


def _check_tokens(doc_ids, docs, dim: int, whose: str) -> None:
    """Refuse a token document with no tokens, or whose tokens `_check_rows` refuses."""
    for i, doc in zip(doc_ids, docs):
        if not np.size(doc):
            raise ValueError(f"document {i!r} holds no token values")
        _check_rows(f"document {i!r}'s tokens", doc, dim, whose)


def _decoder_queries(what: str, rows, projector, dim: int, whose: str) -> np.ndarray:
    """Query rows as the decoder reads them: through the projector as one-token documents, if there is one."""
    if projector is not None:
        dim, whose = projector.in_dim, "the projector's input"
    _check_rows(what, rows, dim, whose)
    rows = np.asarray(rows, dtype=float).reshape(len(rows), dim)  # no queries may come as []
    return rows if projector is None else projector.forward(rows)


class Engine:
    """Stateful continual-indexing engine driven session by session."""

    def __init__(self, config: ExperimentConfig, state: EngineState | None = None):
        config.validate()
        self.config = config
        self.state = state

    def _rng(self, *keys) -> RandomSource:
        return RandomSource(self.config.seed).derive(*keys)

    # -- session 0 ---------------------------------------------------------

    def build_base(self, doc_ids, docs, train_query_pairs) -> dict:
        """Construct codebook and decoder from the base corpus.

        `docs` are token matrices, which train the projector, if the first is 2-D; else embedding rows.
        train_query_pairs is a list of (query embedding, relevant doc id);
        a pair whose id is not one of `doc_ids`, or None (unjudged), is dropped.
        """
        cfg = self.config
        rng = self._rng("base")
        projector = None
        if len(docs) and np.ndim(docs[0]) == 2:
            _check_session(doc_ids, {}, docs, 2, "the base takes token matrices, as its first document is one")
            _check_tokens(doc_ids, docs, np.shape(docs[0])[1], f"document {doc_ids[0]!r}'s token")
            projector, cb, code_rows, embs = iterative_train(
                docs, cfg.m_groups, cfg.k_clusters, cfg.v_epochs, rng.derive("repr"), out_dim=cfg.dim)
        else:
            _check_session(doc_ids, {}, docs, 1, "the base takes embedding rows, unless its first is a token matrix")
            _check_rows("documents", docs, cfg.dim, "the config's")
            embs = np.asarray(docs, dtype=float)
            cb, code_rows = cluster_base(embs, cfg.m_groups, cfg.k_clusters, rng.derive("cluster"))
        codes = dict(zip(doc_ids, map(tuple, code_rows.tolist())))

        # One batch: the documents, then the training queries of base documents,
        # each row carrying its document's code. The Fisher is taken on it too.
        row_of = dict(zip(doc_ids, range(len(doc_ids))))
        kept = [(qe, row_of[d]) for qe, d in train_query_pairs if d in row_of]
        queries = _decoder_queries("training queries", [qe for qe, _ in kept], projector, cfg.dim, "the config's")
        batch = PairBatch(np.concatenate([embs, queries]),
                          np.concatenate([code_rows, code_rows[[r for _, r in kept]]]))
        decoder = train_session(DecoderParams.zeros(cb.sizes(), cfg.dim), cb, batch, None, 0.0,
                                cfg.decoder_steps)
        fisher = estimate_fisher(batch, decoder)
        self.state = EngineState(cb, codes, decoder, fisher, projector)
        return {
            "session": 0,
            "n_new_docs": len(doc_ids),
            "n_train_query_pairs": len(kept),
            "decisions": {},
            "bank_size": 0,
            "n_pseudo_pairs": 0,
            "codebook_sizes": cb.sizes(),
        }

    # -- sessions >= 1 -----------------------------------------------------

    def ingest(self, t: int, doc_ids, docs) -> tuple[dict, list]:
        """Index one session of new documents, token matrices if the state has a projector, else
        embedding rows, and retrain the decoder."""
        cfg = self.config
        st = self.state
        if st is None or st.session != t - 1:
            have = "no state" if st is None else f"session {st.session}"
            raise InvalidStateError(f"cannot ingest session {t} from {have}")
        for name, have in (("dim", st.codebook.dim), ("m_groups", st.codebook.n_groups)):
            if getattr(cfg, name) != have:
                raise ValueError(f"the config's {name} is {getattr(cfg, name)}, but the state's is {have}")
        if st.projector is None:
            _check_session(doc_ids, st.codes, docs, 1, "this state has no projector, so it takes embedding rows")
            embs = np.asarray(docs, dtype=float)
        else:
            _check_session(doc_ids, st.codes, docs, 2, "this state has a projector, so it takes token matrices")
            _check_tokens(doc_ids, docs, st.projector.in_dim, "the projector's input")
            embs = np.array([doc_embedding(d, st.projector) for d in docs])
        _check_rows("documents", embs, st.codebook.dim, "the state's")
        embs = embs.reshape(len(doc_ids), st.codebook.dim)  # an empty session may come as []

        # Nothing is written to the state until the session has succeeded. `codes` maps
        # the old documents to their current codes; under IPQ it is the state's own map.
        old_ids = list(st.codes)
        log: list = []
        if cfg.threshold_mode == "recluster":
            all_embs = np.vstack([st.codebook.vectors(), embs])
            cb, code_rows = cluster_base(all_embs, cfg.m_groups, cfg.k_clusters, self._rng("ingest", t))
            cb.session = t
            rows = list(map(tuple, code_rows.tolist()))
            codes, new_code_map = dict(zip(old_ids, rows)), dict(zip(doc_ids, rows[len(old_ids):]))
            decision_counts = {"reclustered_old_codes_changed": sum(codes[i] != st.codes[i] for i in old_ids)}
        else:
            codes = st.codes
            cb, new_code_map, log = ingest_session(
                st.codebook, list(zip(doc_ids, embs)), self._rng("ingest", t), cfg.threshold_mode)
            decision_counts = dict(Counter(d.kind.value for d in log))

        # The bank is old-document rows: in the order the search found them, or as many drawn at random.
        bank_rows = []
        if cfg.c_repeats:
            bank = build_memory_bank(new_code_map, CodeIndex.from_codes(codes), cfg.c_repeats, cb,
                                     self._rng("bank", t), t)
            row_of = dict(zip(old_ids, range(len(old_ids))))
            bank_rows = [row_of[i] for i in bank.doc_ids()]
            if cfg.random_bank:
                pick = self._rng("random-bank", t).choice_without_replacement(len(old_ids), len(bank_rows))
                bank_rows = sorted(pick.tolist())
        bank_ids = [old_ids[r] for r in bank_rows]

        # One batch: the new documents, the bank documents when they are trained
        # on, then n_q pseudo queries per new and per bank document, each row
        # carrying its document's code.
        docs = np.concatenate([embs, cb.vectors(bank_rows)])
        doc_codes = np.array([new_code_map[i] for i in doc_ids] + [codes[i] for i in bank_ids],
                             dtype=int).reshape(len(docs), cb.n_groups)
        n = len(doc_ids)
        n_head = len(docs) if cfg.enable_mle_dneg else n
        vecs, targets = [docs[:n_head]], [doc_codes[:n_head]]
        if cfg.n_q:
            pseudo_rng = self._rng("pseudo", t)
            for doc_id, emb in zip([*doc_ids, *bank_ids], docs):
                vecs.append(generate_pseudo_queries(emb, cfg.n_q, pseudo_rng.derive(doc_id)))
            targets.append(np.repeat(doc_codes, cfg.n_q, axis=0))
        batch = PairBatch(np.concatenate(vecs), np.concatenate(targets))
        decoder = train_session(st.decoder, cb, batch, st.fisher, cfg.lam, cfg.decoder_steps)
        # The Fisher leaves out the bank documents' own rows: new documents and pseudo queries.
        if n_head > n:
            batch = PairBatch(*(np.delete(a, np.s_[n:n_head], axis=0) for a in (batch.vecs, batch.codes)))
        fisher = estimate_fisher(batch, decoder) if len(batch) else st.fisher
        codes.update(new_code_map)
        st.codes, st.codebook, st.decoder, st.fisher = codes, cb, decoder, fisher
        info = {
            "session": t,
            "n_new_docs": len(doc_ids),
            "decisions": decision_counts,
            "bank_size": len(bank_rows),
            "n_pseudo_pairs": cfg.n_q * len(docs),
            "codebook_sizes": cb.sizes(),
        }
        return info, log

    # -- retrieval ---------------------------------------------------------

    def evaluate(self, query_ids, query_embs) -> dict:
        """Scored rankings for each query: query id -> [(doc id, score), ...]."""
        st = self.state
        if st is None:
            raise InvalidStateError("cannot evaluate from no state")
        if len(query_ids) != len(query_embs):
            raise ValueError(f"{len(query_ids)} query ids but {len(query_embs)} query rows")
        repeated = [q for q, n in Counter(query_ids).items() if n > 1]
        if repeated:
            raise ValueError(f"query id {repeated[0]!r} is repeated; each query gets one ranking")
        queries = _decoder_queries("queries", query_embs, st.projector, st.codebook.dim, "the state's")
        rankings = search(queries, st.decoder, DocidTrie.from_codes(st.codes), CUTOFF)
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
    t_start = time.perf_counter()
    engine = Engine(config, state=resume_state)  # which validates the config
    root = RandomSource(config.seed)
    docs = np.asarray(inputs.doc_embs, dtype=float) if inputs.token_docs is None else inputs.token_docs
    query_embs = np.asarray(inputs.test_query_embs, dtype=float)
    doc_splits = split_benchmark(len(docs), config.fractions, root.derive("split-docs"))
    n_sessions = len(config.fractions)
    doc_arrival = {d: s for s, ids in enumerate(doc_splits) for d in ids}
    for what, judged in (("test", inputs.test_qrels), ("training", inputs.train_qrels)):
        for qid, doc_id in judged.items():
            if doc_id not in doc_arrival:
                raise ValueError(f"{what} query {qid!r} is judged by document {doc_id!r}, "
                                 "which is not in the corpus")
    qrels = {qid: QrelEntry(doc_id, doc_arrival[doc_id]) for qid, doc_id in inputs.test_qrels.items()}
    # Session-specific query sets follow their relevant document's arrival, so
    # Q_i is answerable exactly from session i onward; unjudged queries are not scored.
    query_splits = [
        [q for q in range(len(query_embs)) if q in qrels and qrels[q].session == s]
        for s in range(n_sessions)
    ]

    def metric(ranked, judged):
        return mrr_at(ranked, judged, CUTOFF)

    start = 0 if resume_state is None else resume_state.session + 1
    for t in range(start, n_sessions):
        ids = doc_splits[t]
        session_docs = docs[ids] if isinstance(docs, np.ndarray) else [docs[d] for d in ids]
        if t == 0:
            train_embs = () if inputs.train_query_embs is None else np.asarray(inputs.train_query_embs, dtype=float)
            train_pairs = [(qe, inputs.train_qrels.get(q)) for q, qe in enumerate(train_embs)]
            info = engine.build_base(ids, session_docs, train_pairs)
        else:
            info, _ = engine.ingest(t, ids, session_docs)

        eval_qids = [q for i in range(t + 1) for q in query_splits[i]]
        scored = engine.evaluate(eval_qids, query_embs[eval_qids])
        run = {qid: [d for d, _ in ranking] for qid, ranking in scored.items()}
        info["metrics"] = {
            "vert": vert(run, qrels, metric, max_session=t),
            "matrix_row": [metric({q: run[q] for q in query_splits[i]}, qrels) for i in range(t + 1)],
        }
        info["state_bytes"] = state_core_bytes(engine.state)
        engine.state.history.append(info)
        if stop_after_session is not None and t == stop_after_session and t < n_sessions - 1:
            return None, engine.state

    history = engine.state.history
    matrix = [rec["metrics"]["matrix_row"] for rec in history]
    ap, bwt, fwt = continual_metrics(matrix)
    decision_totals: Counter = Counter()
    for rec in history:
        decision_totals.update(rec["decisions"])
    report = {
        "schema": REPORT_SCHEMA,
        "config": config.to_dict(),
        "n_docs": len(docs),
        "n_test_queries": len(query_embs),
        "sessions": history,
        "session_matrix": matrix,
        "continual": {"ap": ap, "bwt": bwt, "fwt": fwt},
        "decision_totals": dict(decision_totals),
    }
    if include_timing:
        report["timing"] = {"wall_seconds": time.perf_counter() - t_start}
    return report, engine.state


def run_synthetic_benchmark(
    variant: str,
    seed: int,
    n_docs: int = 500,
    n_clusters: int = 25,
    **config_overrides,
):
    """Full protocol on a corpus generated at the config's `dim`; returns the report.

    Benchmark defaults differ from ExperimentConfig in two places: a smaller
    per-session training budget (100 steps) and a saturated perturbation
    budget (c=50), chosen so the rehearsal effects are visible at this corpus
    size; every config field, these two included, is a keyword override.
    """
    cfg = ExperimentConfig(seed=seed, decoder_steps=100, c_repeats=50)
    cfg = dataclasses.replace(cfg, **config_overrides).with_variant(variant)
    data = synthetic.generate(n_docs, cfg.dim, n_clusters, RandomSource(seed).derive("synthetic"))
    report, _ = run_experiment(cfg, data)
    return report
