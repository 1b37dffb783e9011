"""Continual-indexing generative retrieval with incremental product quantization."""

from .codebook import Codebook, PqCode, SubCodebook, build_base_codebook, split_groups
from .decoder import (
    DecoderParams,
    DocidTrie,
    FisherDiag,
    PairBatch,
    constrained_beam_search,
    docid_log_prob,
    estimate_fisher,
    ewc_loss,
    mle_loss,
    search,
    train_session,
)
from .harness import (
    Engine,
    EngineState,
    ExperimentConfig,
    ExperimentInputs,
    VARIANTS,
    canonical_report_bytes,
    load_state,
    run_experiment,
    run_synthetic_benchmark,
    save_state,
    split_benchmark,
)
from .ipq import Thresholds, UpdateDecision, UpdateKind, classify, compute_thresholds, ingest_session
from .metrics import QrelEntry, continual_metrics, hits_at, mrr_at, vert
from .rehearsal import (
    CodeIndex,
    MemoryBank,
    PseudoQueryPair,
    build_memory_bank,
    generate_pseudo_queries,
    perturb_codes,
)
from .repr_learner import (
    GranularitySpec,
    ProjectorParams,
    clustering_loss,
    contrastive_loss,
    doc_embedding,
    iterative_train,
    pool_span,
    sample_span,
)
from .rng import RandomSource
from .vector_core import beta_sample, kmeans

__version__ = "0.1.0"
