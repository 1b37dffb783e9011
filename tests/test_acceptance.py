"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The criteria are property- and direction-based: exact oracles for the numeric
kernels, and paired multi-seed benchmark runs for the continual-learning
behavior. Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import copy
import itertools
import math
import statistics
import time

import numpy as np
import pytest

from ipqgr.codebook import build_base_codebook, split_groups
from ipqgr.decoder import (
    DecoderParams,
    DocidTrie,
    FisherDiag,
    constrained_beam_search,
    docid_log_prob,
    ewc_loss,
    mle_loss,
)
from ipqgr.harness import (
    ExperimentConfig,
    canonical_report_bytes,
    load_state,
    run_experiment,
    run_synthetic_benchmark,
    save_state,
)
from ipqgr.harness import ExperimentInputs
from ipqgr.ipq import Thresholds, UpdateKind, classify, ingest_session
from ipqgr.metrics import QrelEntry, continual_metrics, hits_at, mrr_at, vert
from ipqgr.rehearsal import CodeIndex, build_memory_bank, max_perturb_dims
from ipqgr.repr_learner import (
    GranularitySpec,
    ProjectorParams,
    clustering_loss,
    contrastive_loss,
    mse_to_targets,
    sample_span,
)
from ipqgr.rng import RandomSource
from ipqgr import synthetic


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


# Benchmark runs shared by criteria 9 and 10: 10 seeds x 4 variants on the
# N=500, D=16, M=4, K=8, 5-session synthetic setting.
@pytest.fixture(scope="module")
def benchmark_runs():
    t0 = time.perf_counter()
    out = {}
    for variant in ("full", "base", "no-ewc", "random-bank"):
        out[variant] = [run_synthetic_benchmark(variant, seed) for seed in range(10)]
    out["wall_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_01_quantization_oracle():
    t0 = time.perf_counter()
    embs = np.random.default_rng(0).normal(size=(200, 16))
    cb = build_base_codebook(embs, 4, 8, RandomSource(0))
    mismatches = 0
    for x in np.random.default_rng(1).normal(size=(1000, 16)):
        code = cb.quantize(x)
        for m, sub in enumerate(split_groups(x, 4)):
            d2 = ((cb.groups[m].centroids - sub) ** 2).sum(axis=1)
            if code[m] != int(d2.argmin()):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    report(1, mismatches == 0 and elapsed < 5.0,
           f"quantize vs exhaustive argmin: {mismatches} mismatches in {elapsed:.2f}s")


def test_criterion_02_old_docid_stability():
    violations = 0
    for mode in ("none", "ad_only", "md_only", "both"):
        rng = np.random.default_rng(2)
        embs = rng.normal(size=(120, 16))
        cb = build_base_codebook(embs[:40], 4, 8, RandomSource(3))
        issued = {i: cb.quantize(e) for i, e in enumerate(embs[:40])}
        frozen = copy.deepcopy(issued)
        next_id = 40
        for _ in range(1, 5):
            batch = [(next_id + j, embs[next_id + j]) for j in range(20)]
            cb, codes, _ = ingest_session(cb, batch, RandomSource(4 + next_id), mode)
            issued.update(codes)
            next_id += 20
            violations += sum(issued[i] != frozen[i] for i in frozen)
            frozen = copy.deepcopy(issued)
    report(2, violations == 0, f"codes issued earlier changed {violations} times across modes")


def test_criterion_03_threshold_semantics():
    rng = np.random.default_rng(5)
    bad = 0
    triples = [(0.0, 0.0, 0.0), (2.0, 2.0, 4.0), (4.0, 2.0, 4.0), (1.9999999, 2.0, 4.0)]
    for _ in range(10_000 - len(triples)):
        ad = float(rng.uniform(0, 5))
        md = ad + float(rng.uniform(0, 5))
        triples.append((float(rng.uniform(0, 12)), ad, md))
    for dist, ad, md in triples:
        kind = classify(dist, Thresholds(ad, md))
        want = (
            UpdateKind.UNCHANGED if dist < ad
            else UpdateKind.CHANGED if dist <= md
            else UpdateKind.ADDED
        )
        bad += kind is not want
    report(3, bad == 0, f"classify disagreed with the branch spec on {bad}/10000 triples")


def test_criterion_04_streaming_mean_consistency():
    embs = np.random.default_rng(6).normal(size=(150, 16))
    cb = build_base_codebook(embs[:60], 4, 8, RandomSource(7))
    for s in range(3):
        batch = [(60 + 30 * s + j, embs[60 + 30 * s + j]) for j in range(30)]
        cb, _, _ = ingest_session(cb, batch, RandomSource(8 + s))
    worst = 0.0
    for g in cb.groups:
        for k in range(g.n_centroids):
            if len(g.member_vecs[k]) == 0:
                continue
            mean = g.member_vecs[k].mean(axis=0)
            denom = max(float(np.linalg.norm(mean)), 1e-12)
            worst = max(worst, float(np.linalg.norm(g.centroids[k] - mean)) / denom)
    report(4, worst < 1e-6, f"max relative centroid-vs-membership-mean error {worst:.2e}")


def test_criterion_05_gradient_correctness():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0

    def check(f, x0):
        nonlocal worst
        _, grad = f(x0)
        flat = x0.reshape(-1)
        g_flat = grad.reshape(-1)
        for i in range(flat.size):
            flat[i] += h
            hi, _ = f(x0)
            flat[i] -= 2 * h
            lo, _ = f(x0)
            flat[i] += h
            numeric = (hi - lo) / (2 * h)
            if abs(numeric) > 1e-7 or abs(g_flat[i]) > 1e-7:
                worst = max(worst, rel_err(float(g_flat[i]), numeric))

    rng = np.random.default_rng(9)
    for trial in range(20):
        # contrastive
        reps = rng.normal(size=(2 * 3, 3))
        check(lambda r: contrastive_loss(r, 2, 2, 0.8), reps)
        # clustering via frozen targets (same gradient form as the live loss)
        targets = rng.normal(size=(4, 4))
        check(lambda r: mse_to_targets(r, targets), rng.normal(size=(4, 4)))
        # projector: scalar objective sum(out * w) wrt all parameters
        proj = ProjectorParams.init_random(3, 3, 3, RandomSource(trial))
        pooled = rng.normal(size=(2, 3))
        w = rng.normal(size=(2, 3))
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(proj, name)

            def obj(_arr, _name=name):
                out = proj.forward(pooled)
                grads = proj.backward(pooled, w)
                return float((out * w).sum()), getattr(grads, _name)

            check(obj, arr)
        # mle
        params = DecoderParams(
            [rng.normal(size=(3, 3)), rng.normal(size=(2, 3))],
            [rng.normal(size=3), rng.normal(size=2)],
        )
        pairs = [(rng.normal(size=3), (int(rng.integers(3)), int(rng.integers(2)))) for _ in range(4)]
        for m in range(2):
            check(lambda a, m=m: (lambda l, g: (l, g[0][m]))(*mle_loss(pairs, params)),
                  params.weights[m])
        # ewc
        prev = DecoderParams([rng.normal(size=(2, 2))], [rng.normal(size=2)])
        cur = DecoderParams([rng.normal(size=(2, 2))], [rng.normal(size=2)])
        fisher = FisherDiag([rng.uniform(size=(2, 2))], [rng.uniform(size=2)])
        check(lambda a: (lambda l, g: (l, g[0][0]))(*ewc_loss(cur, prev, fisher)), cur.weights[0])
    elapsed = time.perf_counter() - t0
    report(5, worst < 1e-4 and elapsed < 30.0,
           f"worst finite-difference relative error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_decoder_normalization():
    params = DecoderParams.zeros([8] * 4, dim=16)
    pair = (np.random.default_rng(10).normal(size=16), (0, 1, 2, 3))
    loss, _ = mle_loss([pair], params)
    uniform_err = abs(loss - 4 * math.log(8))

    trained = DecoderParams(
        [np.random.default_rng(11).normal(size=(3, 4)) for _ in range(2)],
        [np.random.default_rng(12).normal(size=3) for _ in range(2)],
    )
    e = np.random.default_rng(13).normal(size=4)
    total_small = sum(
        math.exp(docid_log_prob(e, c, trained)) for c in itertools.product(range(3), repeat=2)
    )
    # K^M = 4096 case
    big = DecoderParams(
        [np.random.default_rng(14).normal(size=(8, 4)) for _ in range(4)],
        [np.random.default_rng(15).normal(size=8) for _ in range(4)],
    )
    total_big = sum(
        math.exp(docid_log_prob(e, c, big)) for c in itertools.product(range(8), repeat=4)
    )
    ok = uniform_err < 1e-9 and abs(total_small - 1) < 1e-9 and abs(total_big - 1) < 1e-9
    report(6, ok, f"uniform-loss err {uniform_err:.1e}, code-sum errs "
                  f"{abs(total_small - 1):.1e} / {abs(total_big - 1):.1e}")


def test_criterion_07_beam_search_oracle():
    rng = np.random.default_rng(16)
    params = DecoderParams(
        [rng.normal(size=(4, 6)) for _ in range(3)], [rng.normal(size=4) for _ in range(3)]
    )
    codes = {i: tuple(int(rng.integers(4)) for _ in range(3)) for i in range(50)}
    trie = DocidTrie.from_codes(codes)
    mismatches = 0
    for _ in range(100):
        q = rng.normal(size=6)
        got = constrained_beam_search(q, params, trie, beam=64, top_n=50)
        oracle = sorted(
            ((i, docid_log_prob(q, c, params)) for i, c in codes.items()),
            key=lambda t: (-t[1], t[0]),
        )
        mismatches += got != oracle[:50]
    report(7, mismatches == 0, f"beam vs exhaustive ranking mismatched on {mismatches}/100 queries")


def test_criterion_08_memory_bank_oracle():
    from ipqgr.codebook import Codebook, SubCodebook

    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(17 + seed)
        groups = [SubCodebook(centroids=rng.normal(size=(2, 2))) for _ in range(4)]
        cb = Codebook(session=1, dim=8, groups=groups)
        old = {i: tuple(int(b) for b in rng.integers(0, 2, size=4)) for i in range(8)}
        new = {100 + i: tuple(int(b) for b in rng.integers(0, 2, size=4)) for i in range(5)}
        bank = build_memory_bank(new, CodeIndex.from_codes(old), c=60, cb=cb,
                                 rng=RandomSource(seed), session=1)
        o_max = max_perturb_dims(4)
        reachable = {
            i for i, oc in old.items()
            if any(1 <= sum(a != b for a, b in zip(oc, nc)) <= o_max for nc in new.values())
        }
        got = set(bank.doc_ids())
        violations += not (got <= reachable and got == reachable)
    report(8, violations == 0, f"bank/brute-force Hamming oracle disagreed on {violations}/20 seeds")


def test_criterion_09_forgetting_direction(benchmark_runs):
    full = [r["continual"]["bwt"] for r in benchmark_runs["full"]]
    base = [r["continual"]["bwt"] for r in benchmark_runs["base"]]
    wins = sum(f < b for f, b in zip(full, base))
    mean_full, mean_base = statistics.mean(full), statistics.mean(base)
    elapsed = benchmark_runs["wall_seconds"]
    ok = wins >= 8 and mean_full < mean_base and elapsed < 600
    report(9, ok, f"BWT full<base in {wins}/10 seeds, means {mean_full:.4f} vs {mean_base:.4f}, "
                  f"benchmark wall time {elapsed:.0f}s")


def test_criterion_10_ablation_ordering(benchmark_runs):
    def final_vert(runs):
        return statistics.mean(r["sessions"][-1]["metrics"]["vert"] for r in runs)

    full = final_vert(benchmark_runs["full"])
    no_ewc = final_vert(benchmark_runs["no-ewc"])
    random_bank = final_vert(benchmark_runs["random-bank"])
    ok = full >= no_ewc - 0.005 and full >= random_bank - 0.005
    report(10, ok, f"final VERT full {full:.4f} vs no-ewc {no_ewc:.4f} "
                   f"vs random-bank {random_bank:.4f} (ties within 0.005)")


def test_criterion_11_metric_hand_examples():
    checks = []
    run = {0: [5, 7], 1: [1, 2, 3]}
    qrels = {0: QrelEntry(7, 0), 1: QrelEntry(99, 0)}
    checks.append(abs(mrr_at(run, qrels, 10) - 0.25) < 1e-12)
    run = {0: [9] + list(range(20)), 1: list(range(20))}
    qrels = {0: QrelEntry(9, 0), 1: QrelEntry(10, 0)}
    checks.append(abs(hits_at(run, qrels, 10) - 0.5) < 1e-12)
    run = {0: [0], 1: [9], 2: [2], 3: [3], 4: [9]}
    qrels = {0: QrelEntry(0, 0), 1: QrelEntry(1, 0), 2: QrelEntry(2, 1),
             3: QrelEntry(3, 2), 4: QrelEntry(4, 2)}
    m = lambda r, q: mrr_at(r, q, 10)
    checks.append(abs(vert(run, qrels, m, 0) - 0.5) < 1e-12)
    checks.append(abs(vert(run, qrels, m, 2) - 0.6) < 1e-12)
    ap, bwt, fwt = continual_metrics([[0.8], [0.6, 0.7]])
    checks.append(abs(ap - 0.65) < 1e-12 and abs(bwt - 0.2) < 1e-12 and abs(fwt - 0.7) < 1e-12)
    c = 0.37
    ap, bwt, fwt = continual_metrics([[c], [c, c], [c, c, c]])
    checks.append(abs(ap - c) < 1e-12 and abs(bwt) < 1e-12 and abs(fwt - c) < 1e-12)
    report(11, all(checks), f"{sum(checks)}/{len(checks)} hand-computed metric examples exact")


def test_criterion_12_determinism_and_resumability(tmp_path):
    cfg = ExperimentConfig(decoder_steps=30, seed=12345)
    data = synthetic.generate(200, 16, 15, RandomSource(12345).derive("synthetic"))
    inputs = ExperimentInputs.from_synthetic(data)
    r1, _ = run_experiment(cfg, inputs)
    r2, _ = run_experiment(cfg, inputs)
    identical = canonical_report_bytes(r1) == canonical_report_bytes(r2)

    _, mid = run_experiment(cfg, inputs, stop_after_session=2)
    path = tmp_path / "mid.state"
    save_state(mid, path)
    resumed, _ = run_experiment(cfg, inputs, resume_state=load_state(path))
    resumable = canonical_report_bytes(resumed) == canonical_report_bytes(r1)
    report(12, identical and resumable,
           f"repeat-run bytes identical: {identical}; resumed-run bytes identical: {resumable}")


def test_criterion_13_span_sampling_statistics():
    doc = np.zeros((64, 2))
    spec = GranularitySpec("phrase", 4, 16)
    rng = RandomSource(13)
    lengths = [e - s for s, e in (sample_span(doc, spec, rng) for _ in range(10_000))]
    mean = statistics.mean(lengths)
    report(13, 11.7 <= mean <= 12.3, f"mean phrase span length {mean:.3f} over 10k draws")
