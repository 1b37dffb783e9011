"""Tests for adaptive thresholds, update classification, and session ingest."""

import copy
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipqgr import ipq
from ipqgr.codebook import Codebook, SubCodebook, build_base_codebook, split_groups, split_rows
from ipqgr.ipq import (
    THRESHOLD_MODES,
    InvalidStateError,
    Thresholds,
    UpdateDecision,
    UpdateKind,
    classify,
    decision_log_lines,
    ingest_session,
)
from ipqgr.rng import RandomSource


def base_codebook(n=20, dim=8, m=2, k=4, seed=0):
    embs = np.random.default_rng(seed).normal(size=(n, dim))
    return build_base_codebook(embs, m, k, RandomSource(seed)), embs


def sub_codebook(centroids, member_vecs):
    """A SubCodebook whose cluster k's members are `member_vecs[k]`, stored cluster by cluster."""
    counts = [len(v) for v in member_vecs]
    rows = split_rows(tuple(range(sum(counts))), counts)
    return SubCodebook(centroids, np.concatenate(member_vecs), tuple(rows))


def set_members(g, k, vecs):
    """Make `vecs` the only members of cluster k, appended as new rows of the group."""
    first = len(g.vecs)
    g.vecs = np.concatenate([g.vecs, vecs])
    g.members = (*g.members[:k], tuple(range(first, len(g.vecs))), *g.members[k + 1 :])


def decision_at_centroid_0(cb):
    """The group-0 decision for a document sitting on centroid 0 of every group."""
    x = np.concatenate([g.centroids[0] for g in cb.groups])
    return ingest_session(cb, [("new", x)], RandomSource(0))[2][0]


class TestComputeThresholds:
    """The thresholds `ingest_session` logs with each decision: ad = mean, md = max + U(0, ad)."""

    def test_single_member_at_centroid(self):
        cb, _ = base_codebook()
        g = cb.groups[0]
        # Rebuild cluster 0 as a singleton sitting exactly on its centroid.
        set_members(g, 0, g.centroids[0][None, :].copy())
        d = decision_at_centroid_0(cb)
        assert (d.group, d.cluster) == (0, 0)
        assert d.ad == 0.0
        assert d.md == 0.0

    def test_hand_computed_mean_and_max(self):
        cb, _ = base_codebook()
        g = cb.groups[0]
        c = g.centroids[0]
        unit = np.zeros_like(c)
        unit[0] = 1.0
        set_members(g, 0, np.stack([c + unit, c + 3 * unit]))
        d = decision_at_centroid_0(cb)
        assert (d.group, d.cluster) == (0, 0)
        assert abs(d.ad - 2.0) < 1e-12
        assert 3.0 <= d.md <= 5.0  # max 3 plus U(0, ad=2) slack

    def test_ad_never_exceeds_md(self):
        cb, _ = base_codebook(n=60, seed=3)
        docs = [(i, v) for i, v in enumerate(np.random.default_rng(4).normal(size=(40, 8)) * 2)]
        _, _, log = ingest_session(cb, docs, RandomSource(4))
        assert len(log) == 80
        assert all(d.ad <= d.md for d in log)

    def test_empty_cluster_is_invalid_state(self):
        cb, _ = base_codebook()
        g = cb.groups[0]
        set_members(g, 0, np.zeros((0, cb.sub_dim)))
        with pytest.raises(InvalidStateError, match="group 0, cluster 0 has no members"):
            decision_at_centroid_0(cb)

    def test_member_vecs_are_read_only(self):
        g = base_codebook()[0].groups[0]
        with pytest.raises(TypeError):
            g.member_vecs[0] = g.centroids[0][None, :].copy()


class TestClassify:
    def test_below_ad_is_unchanged(self):
        assert classify(1.0, Thresholds(2.0, 4.0)) is UpdateKind.UNCHANGED

    def test_inclusive_band_is_changed(self):
        th = Thresholds(2.0, 4.0)
        assert classify(3.0, th) is UpdateKind.CHANGED
        assert classify(2.0, th) is UpdateKind.CHANGED
        assert classify(4.0, th) is UpdateKind.CHANGED

    def test_above_md_adds_a_centroid(self):
        assert classify(4.5, Thresholds(2.0, 4.0)) is UpdateKind.ADDED

    def test_degenerate_zero_thresholds(self):
        # A shared representation goes down the Changed branch.
        assert classify(0.0, Thresholds(0.0, 0.0)) is UpdateKind.CHANGED

    def test_modes_drop_a_branch(self):
        th = Thresholds(2.0, 4.0)
        assert [classify(d, th, "ad_only") for d in (1.0, 3.0, 5.0)] == [
            UpdateKind.UNCHANGED, UpdateKind.CHANGED, UpdateKind.CHANGED]
        assert [classify(d, th, "md_only") for d in (1.0, 3.0, 5.0)] == [
            UpdateKind.CHANGED, UpdateKind.CHANGED, UpdateKind.ADDED]

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.1, Thresholds(1.0, 2.0))

    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_against_branch_spec(self, dist, ad, slack):
        md = ad + slack  # guarantees ad <= md
        kind = classify(dist, Thresholds(ad, md))
        if dist < ad:
            assert kind is UpdateKind.UNCHANGED
        elif dist <= md:
            assert kind is UpdateKind.CHANGED
        else:
            assert kind is UpdateKind.ADDED


class TestIngestSession:
    def test_identity_update_keeps_centroid(self):
        cb, _ = base_codebook()
        g0 = cb.groups[0]
        z = g0.centroids[0].copy()
        set_members(g0, 0, z[None, :].copy())
        x = np.concatenate([z, cb.groups[1].centroids[0]])
        out, codes, log = ingest_session(cb, [("new", x)], RandomSource(0))
        assert codes["new"][0] == 0
        assert np.allclose(out.groups[0].centroids[0], z)
        assert log[0].kind is UpdateKind.CHANGED  # ad = md = dist = 0 branch
        assert np.array_equal(out.groups[0].member_vecs[0], np.stack([z, x[: cb.sub_dim]]))

    def test_far_vector_appends_a_centroid(self):
        cb, _ = base_codebook()
        old_k = cb.groups[0].n_centroids
        x = np.full(cb.dim, 100.0)
        out, codes, log = ingest_session(cb, [("far", x)], RandomSource(0))
        assert codes["far"][0] == old_k
        assert out.groups[0].n_centroids == old_k + 1
        assert np.allclose(out.groups[0].centroids[old_k], split_groups(x, 2)[0])
        assert np.array_equal(out.groups[0].member_vecs[old_k], split_groups(x, 2)[0][None, :])

    def test_changed_update_is_streaming_mean(self):
        cb, embs = base_codebook(n=30, seed=5)
        before = {
            (m, k): cb.groups[m].member_vecs[k].copy()
            for m in range(cb.n_groups)
            for k in range(cb.groups[m].n_centroids)
        }
        new = np.random.default_rng(6).normal(size=cb.dim)
        out, codes, log = ingest_session(cb, [("n", new)], RandomSource(7))
        for d in log:
            if d.kind is not UpdateKind.CHANGED:
                continue
            members = np.vstack(
                [before[(d.group, d.cluster)], split_groups(new, cb.n_groups)[d.group][None, :]]
            )
            assert np.allclose(
                out.groups[d.group].centroids[d.cluster], members.mean(axis=0), atol=1e-9
            )

    def test_old_codes_survive_a_full_session(self):
        cb, embs = base_codebook(n=100, dim=8, m=2, k=4, seed=8)
        old_codes = {i: cb.quantize(e) for i, e in enumerate(embs)}
        new_docs = [(100 + i, v) for i, v in enumerate(np.random.default_rng(9).normal(size=(50, 8)))]
        snapshot = copy.deepcopy(old_codes)
        out, _, _ = ingest_session(cb, new_docs, RandomSource(10))
        # Previously issued codes still index the same centroids with the same values.
        assert old_codes == snapshot
        for code in old_codes.values():
            out.reconstruct(code)  # stays valid

    def test_group_sizes_never_shrink(self):
        cb, _ = base_codebook(n=40, seed=11)
        sizes = cb.sizes()
        out, _, _ = ingest_session(
            cb, [(i, v) for i, v in enumerate(np.random.default_rng(12).normal(size=(20, 8)) * 3)],
            RandomSource(13),
        )
        assert all(a >= b for a, b in zip(out.sizes(), sizes))

    def test_deterministic_given_seed(self):
        cb, _ = base_codebook(n=40, seed=14)
        docs = [(i, v) for i, v in enumerate(np.random.default_rng(15).normal(size=(10, 8)))]
        out1, codes1, log1 = ingest_session(cb, docs, RandomSource(16))
        out2, codes2, log2 = ingest_session(cb, docs, RandomSource(16))
        assert codes1 == codes2
        assert log1 == log2
        for g1, g2 in zip(out1.groups, out2.groups):
            assert np.array_equal(g1.centroids, g2.centroids)

    def test_input_codebook_is_not_mutated(self):
        cb, _ = base_codebook(n=30, seed=17)
        sizes = cb.sizes()
        centroids = [g.centroids.copy() for g in cb.groups]
        ingest_session(cb, [(0, np.full(cb.dim, 50.0))], RandomSource(0))
        assert cb.sizes() == sizes
        for g, c in zip(cb.groups, centroids):
            assert np.array_equal(g.centroids, c)

    def test_ad_only_never_adds_and_md_only_never_skips(self):
        cb, _ = base_codebook(n=40, seed=18)
        docs = [(i, v) for i, v in enumerate(np.random.default_rng(19).normal(size=(25, 8)) * 2)]
        _, _, log_ad = ingest_session(cb, docs, RandomSource(20), threshold_mode="ad_only")
        assert all(d.kind is not UpdateKind.ADDED for d in log_ad)
        _, _, log_md = ingest_session(cb, docs, RandomSource(20), threshold_mode="md_only")
        assert all(d.kind is not UpdateKind.UNCHANGED for d in log_md)

    def test_mode_none_is_pure_quantization(self):
        cb, _ = base_codebook(n=40, seed=21)
        docs = [(i, v) for i, v in enumerate(np.random.default_rng(22).normal(size=(10, 8)))]
        out, codes, log = ingest_session(cb, docs, RandomSource(23), threshold_mode="none")
        assert out.sizes() == cb.sizes()
        for g_out, g_in in zip(out.groups, cb.groups):
            assert np.array_equal(g_out.centroids, g_in.centroids)
        for i, v in docs:
            assert codes[i] == cb.quantize(v)

    def test_session_counter(self):
        cb, _ = base_codebook()
        out, _, _ = ingest_session(cb, [], RandomSource(0))
        assert (cb.session, out.session) == (0, 1)

    def test_dimension_mismatch(self):
        cb, _ = base_codebook()
        with pytest.raises(ValueError):
            ingest_session(cb, [(0, np.zeros(5))], RandomSource(0))

    def test_unknown_mode(self):
        cb, _ = base_codebook()
        with pytest.raises(ValueError):
            ingest_session(cb, [], RandomSource(0), threshold_mode="sometimes")


def test_decision_log_lines_are_json_records():
    cb, _ = base_codebook()
    _, _, log = ingest_session(cb, [(7, np.random.default_rng(1).normal(size=8))], RandomSource(2))
    lines = decision_log_lines(3, log)
    assert len(lines) == len(log) == cb.n_groups
    rec = json.loads(lines[0])
    assert rec["session"] == 3
    assert rec["doc_id"] == 7
    assert rec["kind"] in ("unchanged", "changed", "added")
    assert rec["dist"] >= 0


def reference_ingest_session(cb, new_docs, rng, threshold_mode="both"):
    """The per-document, per-group loop that `ingest_session` must reproduce.

    Every (document, group) finds its nearest centroid over all centroids,
    recomputes the cluster's member distances, draws its own U(0, ad) slack
    and grows the arrays by `np.vstack`. It keeps each cluster's member
    vectors in a list of its own.
    """
    out = copy.deepcopy(cb)
    out.session = cb.session + 1
    member_vecs = [list(g.member_vecs) for g in out.groups]
    codes, log = {}, []
    for doc_id, x in new_docs:
        code = []
        for m, (group, members, sub) in enumerate(zip(out.groups, member_vecs, split_groups(x, out.n_groups))):
            d2 = ((group.centroids - sub) ** 2).sum(axis=1)
            k = int(d2.argmin())
            dist = float(np.sqrt(d2[k]))
            if threshold_mode == "none":
                code.append(k)
                log.append(UpdateDecision(doc_id, m, UpdateKind.UNCHANGED, k, dist, None, None))
                continue
            dists = np.sqrt(((members[k] - group.centroids[k]) ** 2).sum(axis=1))
            ad = float(dists.mean())
            md = float(dists.max()) + float(rng.uniform(0.0, ad))
            if threshold_mode == "both":
                kind = UpdateKind.UNCHANGED if dist < ad else UpdateKind.CHANGED if dist <= md else UpdateKind.ADDED
            elif threshold_mode == "ad_only":
                kind = UpdateKind.UNCHANGED if dist < ad else UpdateKind.CHANGED
            else:
                kind = UpdateKind.CHANGED if dist <= md else UpdateKind.ADDED
            if kind is UpdateKind.CHANGED:
                members[k] = np.vstack([members[k], sub[None, :]])
                size = len(members[k])
                group.centroids[k] = group.centroids[k] + (sub - group.centroids[k]) / size
            elif kind is UpdateKind.ADDED:
                group.centroids = np.vstack([group.centroids, sub[None, :]])
                members.append(sub[None, :].copy())
                k = group.n_centroids - 1
            code.append(k)
            log.append(UpdateDecision(doc_id, m, kind, k, dist, ad, md))
        codes[doc_id] = tuple(code)
    out.groups = [sub_codebook(g.centroids, members) for g, members in zip(out.groups, member_vecs)]
    return out, codes, log


@st.composite
def ingest_cases(draw):
    """A hand-built codebook and a session for it.

    Small-integer values give exact distance ties and duplicate documents;
    clusters have one to three members, and some one-member clusters sit on
    their centroid (ad = 0). Ids mix ints and strings.
    """
    m, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    n = draw(st.integers(0, 12))
    grid = draw(st.booleans())
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(*shape):
        return r.integers(-2, 3, size=shape).astype(float) if grid else r.normal(size=shape)

    groups = []
    for k in sizes:
        centroids = values(k, width)
        members = [values(int(r.integers(1, 4)), width) for _ in range(k)]
        for c in range(k):
            if r.random() < 0.3:
                members[c] = centroids[c][None, :].copy()
        groups.append(sub_codebook(centroids, members))
    docs = values(n, m * width)
    for i in range(1, n):
        if r.random() < 0.3:
            docs[i] = docs[int(r.integers(0, i))]
    ids = [i if i % 3 else f"doc-{i}" for i in range(n)]
    return Codebook(session=2, dim=m * width, groups=groups), list(zip(ids, docs))


def assert_same_ingest(got, want):
    (cb_got, codes_got, log_got), (cb_want, codes_want, log_want) = got, want
    assert repr(list(codes_got.items())) == repr(list(codes_want.items()))
    assert repr(log_got) == repr(log_want)  # every field, its type and every bit of each float
    assert cb_got.session == cb_want.session
    assert len(cb_got.groups) == len(cb_want.groups)
    for g, w in zip(cb_got.groups, cb_want.groups):
        assert g.centroids.shape == w.centroids.shape
        assert g.centroids.tobytes() == w.centroids.tobytes()
        assert [v.shape for v in g.member_vecs] == [v.shape for v in w.member_vecs]
        assert [v.tobytes() for v in g.member_vecs] == [v.tobytes() for v in w.member_vecs]


class TestIngestMatchesTheReferenceLoop:
    @given(ingest_cases(), st.sampled_from(THRESHOLD_MODES), st.sampled_from([1, 2, 3, 256]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_codes_log_and_codebook_are_bit_equal(self, case, mode, block, seed):
        cb, docs = case
        before = copy.deepcopy(cb)
        rng_got, rng_want = RandomSource(seed), RandomSource(seed)
        with mock.patch.object(ipq, "DIST_BLOCK", block):
            got = ingest_session(cb, docs, rng_got, mode)
        assert_same_ingest(got, reference_ingest_session(cb, docs, rng_want, mode))
        assert_same_ingest((cb, {}, []), (before, {}, []))  # the input codebook is untouched
        # Both consumed the same stretch of the stream.
        assert rng_got.uniform() == rng_want.uniform()

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_a_stream_session_in_small_blocks(self, mode):
        cb, _ = base_codebook(n=200, dim=16, m=4, k=8, seed=30)
        docs = [(i, v) for i, v in enumerate(np.random.default_rng(31).normal(size=(60, 16)))]
        with mock.patch.object(ipq, "DIST_BLOCK", 7):
            got = ingest_session(cb, docs, RandomSource(32), mode)
        assert_same_ingest(got, reference_ingest_session(cb, docs, RandomSource(32), mode))
        if mode == "both":
            kinds = {d.kind for d in got[2]}
            assert kinds == set(UpdateKind)

    def test_a_mean_distance_that_is_not_finite_names_group_and_cluster(self):
        # Squared distances of 1e200 overflow, so cluster 2 of group 1 has
        # ad = inf, for which numpy's U(0, ad) raises an OverflowError.
        cb, _ = base_codebook()
        g = cb.groups[1]
        set_members(g, 2, g.centroids[2] + np.array([[1e200, 0.0, 0.0, 0.0]]))
        x = np.concatenate([cb.groups[0].centroids[0], g.centroids[2]])
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="group 1, cluster 2: mean member distance inf"
        ):
            ingest_session(cb, [(0, x)], RandomSource(0))
