"""Tests for code perturbation, memory-bank construction, and pseudo queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipqgr import rehearsal
from ipqgr.codebook import Codebook, SubCodebook
from ipqgr.rehearsal import (
    CodeIndex,
    build_memory_bank,
    generate_pseudo_queries,
    max_perturb_dims,
    _selectable,
    perturb_codes,
)
from ipqgr.rng import RandomSource


def toy_codebook(sizes, sub_dim=2):
    """Codebook with the given per-group centroid counts; values are arbitrary."""
    groups = []
    for k in sizes:
        centroids = np.arange(k * sub_dim, dtype=float).reshape(k, sub_dim)
        groups.append(SubCodebook(centroids=centroids))
    return Codebook(session=0, dim=sub_dim * len(sizes), groups=groups)


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def reference_perturb_codes(code, o, c, cb, rng):
    """The draw loop `perturb_codes` must reproduce: numpy's `choice` picks the positions."""
    selectable = [i for i in range(cb.n_groups) if cb.groups[i].n_centroids >= 2]
    if len(selectable) < o:
        return []
    out = []
    for _ in range(c):
        dims = [selectable[int(i)] for i in rng._gen.choice(len(selectable), size=o, replace=False)]
        new = list(code)
        for d in dims:
            alt = int(rng.integers(cb.groups[d].n_centroids - 1))
            new[d] = alt + 1 if alt >= code[d] else alt
        if tuple(new) not in out:
            out.append(tuple(new))
    return out


def reference_bank_ids(new_codes, index, c, cb, rng):
    """The old ids in the order the draws first find them: a stream per new document, and from it one per flip count."""
    ids = []
    for doc_id, code in new_codes.items():
        doc_rng = rng.derive(doc_id)
        for o in range(1, max_perturb_dims(cb.n_groups) + 1):
            for cand in reference_perturb_codes(code, o, c, cb, doc_rng.derive(o)):
                ids += [old_id for old_id in index.lookup(cand) if old_id not in ids]
    return ids


class TestMaxPerturbDims:
    def test_paper_scale(self):
        assert max_perturb_dims(24) == 4

    def test_small_m_floor(self):
        assert max_perturb_dims(4) == 1
        assert max_perturb_dims(6) == 1
        assert max_perturb_dims(12) == 2


class TestPerturbCodes:
    def test_single_flip_neighbors_are_exhausted(self):
        cb = toy_codebook([2, 2, 2, 2])
        code = (0, 1, 0, 1)
        got = set(perturb_codes(code, 1, 500, _selectable(cb), RandomSource(0)))
        expected = set()
        for d in range(4):
            flipped = list(code)
            flipped[d] = 1 - flipped[d]
            expected.add(tuple(flipped))
        assert got == expected

    def test_full_flip_with_binary_groups(self):
        cb = toy_codebook([2, 2])
        assert perturb_codes((0, 0), 2, 20, _selectable(cb), RandomSource(1)) == [(1, 1)]

    def test_hamming_distance_is_exactly_o(self):
        cb = toy_codebook([5, 3, 4, 6])
        code = (4, 0, 2, 5)
        for o in (1, 2, 3, 4):
            for cand in perturb_codes(code, o, 50, _selectable(cb), RandomSource(o)):
                assert hamming(cand, code) == o
                for d, k in enumerate(cand):
                    assert 0 <= k < cb.groups[d].n_centroids

    def test_original_code_never_emitted(self):
        cb = toy_codebook([3, 3, 3])
        code = (1, 1, 1)
        out = perturb_codes(code, 2, 200, _selectable(cb), RandomSource(2))
        assert code not in out
        assert len(out) == len(set(out))  # deduplicated

    def test_single_centroid_groups_are_not_selectable(self):
        cb = toy_codebook([1, 4, 1])
        # Only the middle position can change.
        out = perturb_codes((0, 2, 0), 1, 100, _selectable(cb), RandomSource(3))
        assert set(out) == {(0, 0, 0), (0, 1, 0), (0, 3, 0)}
        # Two selectable positions would be needed for o=2: none exist.
        assert perturb_codes((0, 2, 0), 2, 10, _selectable(cb), RandomSource(4)) == []

    def test_invalid_arguments(self):
        selectable = _selectable(toy_codebook([2, 2]))
        with pytest.raises(ValueError, match="o=0"):
            perturb_codes((0, 0), 0, 5, selectable, RandomSource(0))
        with pytest.raises(ValueError, match="c=0"):
            perturb_codes((0, 0), 1, 0, selectable, RandomSource(0))
        # More flips than positions: no code differs in all of them.
        assert perturb_codes((0, 0), 3, 5, selectable, RandomSource(0)) == []


class TestCodeIndex:
    def test_lookup_and_sizes(self):
        idx = CodeIndex.from_codes({10: (0, 1), 11: (0, 1), 12: (1, 1)})
        assert idx.lookup((0, 1)) == [10, 11]
        assert idx.lookup((9, 9)) == []
        assert idx.lookup((1, 1)) == [12]


class TestBuildMemoryBank:
    def test_empty_index_gives_empty_bank(self):
        cb = toy_codebook([2, 2, 2, 2])
        bank = build_memory_bank({0: (0, 0, 0, 0)}, CodeIndex(), 5, cb, RandomSource(0), session=1)
        assert bank.doc_ids() == []

    def test_contents_within_hamming_ball(self):
        cb = toy_codebook([2, 2, 2, 2])
        rng = np.random.default_rng(4)
        old_codes = {i: tuple(rng.integers(0, 2, size=4).tolist()) for i in range(8)}
        index = CodeIndex.from_codes(old_codes)
        new_codes = {100 + i: tuple(rng.integers(0, 2, size=4).tolist()) for i in range(4)}
        bank = build_memory_bank(new_codes, index, c=50, cb=cb, rng=RandomSource(5), session=1)
        o_max = max_perturb_dims(4)
        reachable = {
            old
            for old, oc in old_codes.items()
            if any(1 <= hamming(oc, nc) <= o_max for nc in new_codes.values())
        }
        assert set(bank.doc_ids()) <= reachable
        # c=50 saturates the o_max=1 neighborhood of binary groups, so the
        # lookup recovers the brute-force set exactly.
        assert set(bank.doc_ids()) == reachable

    def test_bank_never_contains_current_session(self):
        cb = toy_codebook([2, 2, 2, 2])
        old_codes = {i: (0, 0, 0, 0) for i in range(3)}
        new_codes = {100: (1, 0, 0, 0)}
        bank = build_memory_bank(
            new_codes, CodeIndex.from_codes(old_codes), 20, cb, RandomSource(6), session=1
        )
        assert set(bank.doc_ids()) <= set(old_codes)

    def test_iteration_order_does_not_change_the_set(self):
        cb = toy_codebook([3, 3, 3, 3])
        rng = np.random.default_rng(7)
        old_codes = {i: tuple(rng.integers(0, 3, size=4).tolist()) for i in range(12)}
        index = CodeIndex.from_codes(old_codes)
        new_codes = {100 + i: tuple(rng.integers(0, 3, size=4).tolist()) for i in range(5)}
        fwd = build_memory_bank(new_codes, index, 10, cb, RandomSource(8), session=1)
        rev = build_memory_bank(
            dict(reversed(list(new_codes.items()))), index, 10, cb, RandomSource(8), session=1
        )
        assert set(fwd.doc_ids()) == set(rev.doc_ids())

    def test_bank_equals_the_two_step_derivation(self):
        cb = toy_codebook([2] * 12)  # M=12 -> o_max=2
        rng = np.random.default_rng(10)
        old_codes = {i: tuple(rng.integers(0, 2, size=12).tolist()) for i in range(40)}
        new_codes = {}
        for i, code in enumerate(list(old_codes.values())[:25]):  # one or two positions away
            new = np.array(code)
            new[rng.choice(12, size=1 + i % 2, replace=False)] ^= 1
            new_codes[f"new-{i}" if i % 3 else 500 + i] = tuple(new.tolist())
        index = CodeIndex.from_codes(old_codes)
        bank = build_memory_bank(new_codes, index, 100, cb, RandomSource(11), session=2)
        want = reference_bank_ids(new_codes, index, 100, cb, RandomSource(11))
        assert len(bank.doc_ids()) >= 20
        # Some bank documents are two positions from every new code: o=2 found them.
        nearest = {min(hamming(old_codes[i], nc) for nc in new_codes.values()) for i in bank.doc_ids()}
        assert nearest == {1, 2}
        assert bank.doc_ids() == want

    def test_a_doc_found_at_two_flip_counts_appears_once(self):
        cb = toy_codebook([2] * 12)  # M=12 -> o_max=2
        old_codes = {7: (1,) + (0,) * 11}
        new_codes = {100: (0,) * 12, 101: (1, 1, 1) + (0,) * 9}  # one and two positions from doc 7
        index = CodeIndex.from_codes(old_codes)
        for new_id, code in new_codes.items():
            alone = build_memory_bank({new_id: code}, index, 500, cb, RandomSource(9), session=1)
            assert alone.doc_ids() == [7]
        bank = build_memory_bank(new_codes, index, 500, cb, RandomSource(9), session=1)
        assert bank.doc_ids() == [7]

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12), st.integers(1, 50),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bank_equals_the_reference_draws(self, sizes, c, seed):
        # M up to 12 sweeps o over {1, 2}; groups of one centroid are never flipped.
        cb = toy_codebook(sizes)
        r = np.random.default_rng(seed)

        def code():
            return tuple(int(r.integers(0, k)) for k in sizes)

        old_codes = {i: code() for i in range(30)}
        new_codes = {(f"new-{i}" if i % 2 else 100 + i): code() for i in range(6)}
        index = CodeIndex.from_codes(old_codes)
        bank = build_memory_bank(new_codes, index, c, cb, RandomSource(seed), session=3)
        assert bank.doc_ids() == reference_bank_ids(new_codes, index, c, cb, RandomSource(seed))


class TestGeneratePseudoQueries:
    def test_noiseless_queries_equal_the_document(self, monkeypatch):
        monkeypatch.setattr(rehearsal, "SIGMA", 0.0)
        emb = np.arange(6.0)
        queries = generate_pseudo_queries(emb, n_q=4, rng=RandomSource(0))
        assert np.array_equal(queries, np.tile(emb, (4, 1)))

    def test_noise_scale(self):
        assert rehearsal.SIGMA == 0.1
        draws = generate_pseudo_queries(np.zeros(8), 10_000, RandomSource(1))
        std = draws.std(axis=0)
        assert (std > 0.095).all() and (std < 0.105).all()

    def test_cardinality_and_shared_target(self, monkeypatch):
        # One row per query, each drawn around the same document embedding.
        monkeypatch.setattr(rehearsal, "SIGMA", 0.5)
        emb = np.full(4, 7.0)
        queries = generate_pseudo_queries(emb, n_q=3, rng=RandomSource(2))
        assert queries.shape == (3, 4)
        assert len({q.tobytes() for q in queries}) == 3
        assert np.abs(queries - emb).max() < 5.0

    def test_rows_are_the_draws_of_one_query_at_a_time(self):
        emb = np.arange(5.0)
        rng = RandomSource(3)
        one_at_a_time = [emb + 0.1 * rng.normal(emb.shape) for _ in range(4)]
        assert generate_pseudo_queries(emb, 4, RandomSource(3)).tobytes() == np.stack(one_at_a_time).tobytes()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_pseudo_queries(np.zeros(2), n_q=0, rng=RandomSource(0))
