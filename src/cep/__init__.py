"""Complex-event detection over timestamped streams.

Declarative patterns (sequences, conjunctions, negations, iterations,
disjunctions) are compiled into either an arrival-order (eager) automaton
or a frequency-ordered lazy chain automaton and evaluated under the
skip-till-any-match selection strategy. A brute-force oracle and a
benchmark CLI round out the package.
"""

from .buffer import InputBuffer, iterate_fetch
from .eager import build_eager
from .engine import build_runtime, compile_pattern, make_runtime
from .events import Event, StreamDataError, check_stream_order, within_window
from .lazy import (ascending_freq_order, build_fc_negation, build_iteration,
                   build_lazy, build_lazy_chain, build_multi_chain,
                   build_pp_negation, partial_filters, sequence_filters)
from .metrics import Metrics
from .nfa import BuildError, Nfa, validate_nfa
from .oracle import enumerate_matches, enumerate_matches_chains
from .patterns import (ChainPattern, ParseError, PatternAst, PatternError,
                       parse_pattern, render_chain, render_pattern, to_dnf)
from .runtime import (Match, MultiRuntime, Runtime, ShadowMismatch,
                      match_key, match_line, run_stream)
from .stats import UndefinedCorrelationError, pearson

__all__ = [
    "BuildError", "ChainPattern", "Event", "InputBuffer", "Match", "Metrics",
    "MultiRuntime", "Nfa", "ParseError", "PatternAst", "PatternError",
    "Runtime", "ShadowMismatch", "StreamDataError",
    "UndefinedCorrelationError", "ascending_freq_order", "build_eager",
    "build_fc_negation", "build_iteration", "build_lazy", "build_lazy_chain",
    "build_multi_chain", "build_pp_negation", "build_runtime",
    "check_stream_order", "compile_pattern", "enumerate_matches",
    "enumerate_matches_chains", "iterate_fetch",
    "make_runtime", "match_key", "match_line", "parse_pattern",
    "partial_filters", "pearson", "render_chain", "render_pattern",
    "run_stream", "sequence_filters", "to_dnf", "validate_nfa",
    "within_window",
]
