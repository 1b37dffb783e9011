"""Engine invariants at scale M (N=2000, D=32, M=8, K=32), checked after every session.

The run is chained through the state file: after each session the state is
saved, loaded, and the run resumes from the loaded state up to the next
session. Its report must equal that of the same run done in one go. CI runs the
same check at scale L (N=8000) through `check_chained_run`.
"""

import numpy as np
import pytest

from ipqgr import synthetic
from ipqgr.harness import (
    Engine,
    ExperimentConfig,
    canonical_report_bytes,
    load_state,
    run_experiment,
    save_state,
)
from ipqgr.rng import RandomSource


def scale_run(n_docs, n_clusters, seed):
    """A corpus and config at D=32, M=8, K=32, as `run_synthetic_benchmark` builds them with `decoder_steps=30`."""
    cfg = ExperimentConfig(dim=32, m_groups=8, k_clusters=32, seed=seed, decoder_steps=30, c_repeats=50)
    data = synthetic.generate(n_docs, 32, n_clusters, RandomSource(seed).derive("synthetic"))
    return cfg, data


def check_chained_run(cfg, data, tmp_path):
    """Check the invariants of `cfg`'s run on `data`, chained through a state file in `tmp_path`, after
    every session, and that its report equals the straight run's; returns the final state."""
    straight, _ = run_experiment(cfg, data)
    # Every tenth test query: enough to compare rankings without dominating the run time.
    qids, qembs = data.test_query_ids[::10], data.test_query_embs[::10]
    path = tmp_path / "s.state"
    state, issued = None, {}
    for t in range(len(cfg.fractions)):
        report, state = run_experiment(cfg, data, resume_state=state, stop_after_session=t)
        assert {d: state.codes[d] for d in issued} == issued, f"session {t} rewrote an old docid"
        codes = np.array(list(state.codes.values()))
        assert ((codes >= 0) & (codes < state.codebook.sizes())).all(), f"session {t}: a code is out of range"
        assert state.decoder.sizes() == state.codebook.sizes(), f"session {t}: decoder unlike the codebook"
        save_state(state, path)
        loaded = load_state(path)
        assert Engine(cfg, loaded).evaluate(qids, qembs) == Engine(cfg, state).evaluate(qids, qembs), (
            f"session {t}: the loaded state ranks differently"
        )
        issued, state = dict(state.codes), loaded
    assert canonical_report_bytes(report) == canonical_report_bytes(straight)
    return state


@pytest.mark.parametrize("seed", [0, 1])
def test_chained_run_keeps_the_invariants_and_matches_a_straight_run(tmp_path, seed):
    check_chained_run(*scale_run(2000, 100, seed), tmp_path)
