"""A state machine over one small engine's lifecycle, fed valid and hostile sessions.

Hypothesis draws sequences of `build_base`, `ingest`, save -> load and
`evaluate`. The base draws the kind of its documents: embedding rows, or token
matrices that give the state a projector. Some ingests are hostile: ids that
are not ints or are issued already, documents that do not pair with the ids,
of the wrong width or holding a NaN, an infinity or a value beyond
`harness.MAX_ABS`, documents of the other kind than the state's, and a config
whose `dim` or `m_groups` is not the state's. After every step it checks what
no sequence may break.
"""

import dataclasses
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ipqgr import harness, synthetic
from ipqgr.harness import Engine, ExperimentConfig, load_state, save_state
from ipqgr.metrics import CUTOFF
from ipqgr.rng import RandomSource

CONFIG = ExperimentConfig(dim=8, m_groups=2, k_clusters=4, v_epochs=1, decoder_steps=3)
MAX_DOCS = 60
POOL = synthetic.generate(MAX_DOCS + 10, 8, 5, RandomSource(0).derive("synthetic"))
TOKEN_POOL = synthetic.generate(MAX_DOCS + 10, 8, 5, RandomSource(0).derive("synthetic"), with_tokens=True,
                                token_range=(3, 6))


def payload_bytes(state) -> bytes:
    """The bytes a save of `state` would write after its header."""
    return b"".join(bytes(memoryview(b)) for b in harness._payload(state, state.history))


def documents(ids, tokens: bool):
    """Documents `ids` of the pools: token matrices, or embedding rows."""
    return [TOKEN_POOL.token_docs[i] for i in ids] if tokens else POOL.doc_embs[ids]


def poisoned(docs, value):
    """A copy of `docs` as a list, whose last document's last value is `value`."""
    docs = [np.array(d) for d in docs]
    docs[-1][(-1,) * docs[-1].ndim] = value
    return docs


# Each hostile ingest, as (ids, documents) from a fresh session's, the state's
# issued ids, and the reason the engine gives.
HOSTILE_INGESTS = {
    "str id": (lambda ids, docs, issued: ([*ids[:-1], str(ids[-1])], docs), "has type str"),
    "bool id": (lambda ids, docs, issued: ([*ids[:-1], True], docs), "has type bool"),
    "numpy id": (lambda ids, docs, issued: ([*ids[:-1], np.int64(ids[-1])], docs), "has type int64"),
    "repeated id": (lambda ids, docs, issued: ([*ids[:-1], ids[0]], docs), "repeated in this session"),
    "issued id": (lambda ids, docs, issued: ([*ids[:-1], min(issued)], docs), "already indexed"),
    "unpaired docs": (lambda ids, docs, issued: (ids[:-1], docs), "doc ids but"),
    "wrong width": (lambda ids, docs, issued: (ids, [d[..., :6] for d in docs]), "6 wide"),
    "nan": (lambda ids, docs, issued: (ids, poisoned(docs, np.nan)), "not finite"),
    "inf": (lambda ids, docs, issued: (ids, poisoned(docs, np.inf)), "not finite"),
    "overflow": (lambda ids, docs, issued: (ids, poisoned(docs, 1e200)), "beyond"),
    "other kind": (lambda ids, docs, issued: (ids, documents(ids, isinstance(docs, np.ndarray))),
                   r"-D array, but this state has (a|no) projector"),
}

HOSTILE_EVALUATES = {
    "repeated query id": (lambda qids, rows: ([*qids[:-1], qids[0]], rows), "is repeated"),
    "unpaired rows": (lambda qids, rows: (qids[:-1], rows), "query ids but"),
    "wrong width": (lambda qids, rows: (qids, rows[:, :6]), "6 wide"),
}


class EngineLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = Engine(CONFIG)
        self.issued: dict = {}  # every code the engine has issued, as first issued
        self.dir = tempfile.mkdtemp()

    def teardown(self):
        shutil.rmtree(self.dir)

    def fresh(self, n):
        """The next `n` ids and their documents, of the state's kind."""
        ids = list(range(len(self.issued), len(self.issued) + n))
        return ids, documents(ids, self.engine.state is not None and self.engine.state.projector is not None)

    def refused(self, call, reason):
        """Check that `call` raises naming `reason` and leaves the state's bytes as they were."""
        before = payload_bytes(self.engine.state)
        with pytest.raises(ValueError, match=reason):
            call()
        assert payload_bytes(self.engine.state) == before

    @precondition(lambda self: self.engine.state is None)
    @rule(n=st.integers(CONFIG.k_clusters, 20), tokens=st.booleans())  # k-means refuses fewer documents than centroids
    def build_base(self, n, tokens):
        ids = list(range(n))
        self.engine.build_base(ids, documents(ids, tokens), list(zip(POOL.train_query_embs[ids], ids)))
        assert (self.engine.state.projector is not None) == tokens
        self.issued.update(self.engine.state.codes)

    @precondition(lambda self: self.engine.state is not None)
    @rule(n=st.integers(0, 10))
    def ingest(self, n):
        ids, docs = self.fresh(min(n, MAX_DOCS - len(self.issued)))
        t = self.engine.state.session + 1
        self.engine.ingest(t, ids, docs)
        codes = self.engine.state.codes
        self.issued.update({i: codes[i] for i in ids})

    @precondition(lambda self: self.engine.state is not None)
    @rule(n=st.integers(2, 10), kind=st.sampled_from(sorted(HOSTILE_INGESTS)))
    def hostile_ingest(self, n, kind):
        make, reason = HOSTILE_INGESTS[kind]
        ids, docs = make(*self.fresh(n), self.issued)
        t = self.engine.state.session + 1
        self.refused(lambda: self.engine.ingest(t, ids, docs), reason)

    @precondition(lambda self: self.engine.state is not None)
    @rule(n=st.integers(0, 10), field=st.sampled_from(["dim", "m_groups"]))
    def ingest_under_another_config(self, n, field):
        cfg = dataclasses.replace(CONFIG, **{field: 2 * getattr(CONFIG, field)})
        ids, docs = self.fresh(n)
        t = self.engine.state.session + 1
        self.refused(lambda: Engine(cfg, self.engine.state).ingest(t, ids, docs),
                     f"^the config's {field} is {getattr(cfg, field)}, but the state's is {getattr(CONFIG, field)}$")

    @precondition(lambda self: self.engine.state is not None)
    @rule()
    def save_and_load(self):
        path = f"{self.dir}/engine.state"
        save_state(self.engine.state, path)
        loaded = Engine(CONFIG, load_state(path))
        queries = POOL.test_query_embs
        assert loaded.evaluate(range(len(queries)), queries) == self.engine.evaluate(range(len(queries)), queries)
        assert payload_bytes(loaded.state) == payload_bytes(self.engine.state)
        self.engine = loaded

    @precondition(lambda self: self.engine.state is not None)
    @rule(n=st.integers(0, 10))
    def evaluate(self, n):
        rankings = self.engine.evaluate(range(n), POOL.test_query_embs[:n])
        assert list(rankings) == list(range(n))
        for ranking in rankings.values():
            assert len(ranking) == min(CUTOFF, len(self.issued))
            assert all(d in self.issued for d, _ in ranking)
            assert [s for _, s in ranking] == sorted((s for _, s in ranking), reverse=True)

    @precondition(lambda self: self.engine.state is not None)
    @rule(n=st.integers(2, 10), kind=st.sampled_from(sorted(HOSTILE_EVALUATES)))
    def hostile_evaluate(self, n, kind):
        make, reason = HOSTILE_EVALUATES[kind]
        qids, rows = make(list(range(n)), POOL.test_query_embs[:n])
        self.refused(lambda: self.engine.evaluate(qids, rows), reason)

    @invariant()
    def stored_arrays_are_finite(self):
        st_ = self.engine.state
        if st_ is not None:
            arrays = [st_.codebook.vectors(), st_.decoder.w, st_.decoder.b, st_.fisher.w, st_.fisher.b]
            arrays += [g.centroids for g in st_.codebook.groups]
            if st_.projector is not None:
                arrays += [st_.projector.w1, st_.projector.b1, st_.projector.w2, st_.projector.b2]
            assert all(np.isfinite(a).all() for a in arrays)

    @invariant()
    def no_issued_code_changes(self):
        codes = {} if self.engine.state is None else self.engine.state.codes
        assert codes == self.issued

    @invariant()
    def decoder_fisher_and_codebook_sizes_agree(self):
        st_ = self.engine.state
        if st_ is not None:
            sizes = st_.codebook.sizes()
            assert st_.decoder.sizes() == st_.fisher.sizes() == sizes
            assert all(len(g.vecs) == len(st_.codes) for g in st_.codebook.groups)
            assert all(len(g.members) == k for g, k in zip(st_.codebook.groups, sizes))


EngineLifecycle.TestCase.settings = settings(max_examples=100, stateful_step_count=12, deadline=None)
TestEngineLifecycle = EngineLifecycle.TestCase
