"""Complex-event detection over timestamped streams.

Declarative patterns (sequences, conjunctions, negations, iterations,
disjunctions) are compiled into either an arrival-order (eager) automaton
or a frequency-ordered lazy chain automaton and evaluated under the
skip-till-any-match selection strategy. A brute-force oracle and a
benchmark CLI round out the package.
"""

from .buffer import InputBuffer, iterate_fetch
from .eager import build_eager, eager_parts
from .engine import compile_pattern, make_runtime
from .events import Event, StreamDataError, check_stream_order, within_window
from .lazy import (ascending_freq_order, build_lazy, lazy_parts,
                   ordering_filters)
from .metrics import Metrics
from .nfa import BuildError, ChainParts, Nfa, build_multi_chain, validate_nfa
from .oracle import enumerate_matches, enumerate_matches_chains
from .patterns import (ChainPattern, ParseError, PatternAst, PatternError,
                       parse_pattern, render_chain, render_pattern, to_dnf)
from .runtime import (Match, PairedRuntime, Runtime, ShadowMismatch, match_key,
                      match_line, run_stream)
from .stats import UndefinedCorrelationError, pearson

__all__ = [
    "BuildError", "ChainParts", "ChainPattern", "Event", "InputBuffer",
    "Match", "Metrics", "Nfa", "PairedRuntime", "ParseError", "PatternAst",
    "PatternError", "Runtime", "ShadowMismatch", "StreamDataError",
    "UndefinedCorrelationError", "ascending_freq_order", "build_eager",
    "build_lazy", "build_multi_chain", "check_stream_order",
    "compile_pattern", "eager_parts",
    "enumerate_matches", "enumerate_matches_chains", "iterate_fetch",
    "lazy_parts", "make_runtime", "match_key", "match_line",
    "ordering_filters", "parse_pattern", "pearson", "render_chain",
    "render_pattern", "run_stream", "to_dnf", "validate_nfa",
    "within_window",
]
