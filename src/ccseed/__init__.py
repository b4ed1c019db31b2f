"""Deciding strong bisimilarity for replicated CCS by seed extraction.

The fragment: finite processes built from the empty process, action
prefixing and parallel composition, plus top-level replication of prefixed
terms.  Every process rewrites, by deleting redundant parallel components,
to a unique minimal seed; two processes are strongly bisimilar exactly when
their seeds coincide up to a small structural congruence.  This package
implements the congruence, the rewriting, the seed search, and independent
game-based oracles to check them against.
"""

from .congruence import canonical_finite, canonicalize, congruent, process_of
from .lts import DEFAULT_DEPTH_CAP, DepthExceeded, Label, TAU, successors
from .oracle import (Distinguisher, GameConfig, GameResult, Move, SuiteReport,
                     bounded_bisim, bounded_partition, dis_check,
                     finite_bisim, finite_partition, lemma_suite,
                     lemma_suite_sharded, purg_check, replay_distinguisher)
from .rewrite import (ConvertibilityResult, RewriteStep, SeedResult,
                      UniquenessError, compute_seed, convertible, rewrites_to,
                      step_b1, step_b2)
from .syntax import (Action, FiniteProcess, ParseError, Path, PrefixedTerm,
                     Process, StructureError, apply_substitution,
                     clear_caches, occurrences, parse, render)

__version__ = "0.1.0"

__all__ = [
    "Action", "FiniteProcess", "PrefixedTerm", "Process", "Path",
    "ParseError", "StructureError", "parse", "render", "apply_substitution",
    "occurrences", "clear_caches",
    "canonicalize", "canonical_finite", "congruent", "process_of",
    "Label", "TAU", "successors", "DepthExceeded",
    "DEFAULT_DEPTH_CAP",
    "RewriteStep", "SeedResult", "ConvertibilityResult", "UniquenessError",
    "step_b1", "step_b2", "rewrites_to", "compute_seed", "convertible",
    "GameConfig", "GameResult", "Move", "Distinguisher", "finite_bisim",
    "bounded_bisim", "replay_distinguisher", "dis_check", "purg_check",
    "finite_partition", "bounded_partition", "lemma_suite",
    "lemma_suite_sharded", "SuiteReport",
    "__version__",
]
