"""Mode dispatch: compile a parsed pattern into one runnable automaton.

Modes:
  eager    arrival-order lattice per chain
  lazy     frequency-ordered chain, negations checked by a post-processing
           negative tail
  lazy-pp  the lazy build
  lazy-fc  negations checked at the earliest dependency state
  multi    the lazy build (the merge below is the same in every mode)

The chains of a composite merge into one multi-chain automaton in every
mode; a single chain is its own automaton.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

from .eager import eager_parts
from .lazy import ascending_freq_order, descending_freq_order, lazy_parts
from .nfa import BuildError, Nfa, build_multi_chain
from .patterns import ChainPattern
from .runtime import Runtime

MODES = ("eager", "lazy", "lazy-pp", "lazy-fc", "multi")


def chain_orders(chain: ChainPattern, rates: Mapping[str, float]) -> list:
    missing = [t for _, t in chain.positives if t not in rates]
    if missing:
        raise BuildError(f"no arrival rate given for types {sorted(missing)}")
    return ascending_freq_order({t: rates[t] for _, t in chain.positives})


def _neg_order(chain: ChainPattern, rates: Optional[Mapping[str, float]]):
    if not chain.negations or rates is None:
        return None
    types = [s.etype for s in chain.negations]
    if any(t not in rates for t in types):
        return None
    return descending_freq_order({t: rates[t] for t in types})


def apply_group_by(chains: Sequence[ChainPattern], role: str,
                   attr: str) -> list:
    out = []
    for chain in chains:
        it = chain.iterated
        if it is None or it.role != role:
            raise BuildError(f"group-by role {role!r} is not an iterated role")
        out.append(replace(chain, iterated=replace(it, group_by=attr)))
    return out


def compile_pattern(
    chains: Sequence[ChainPattern],
    mode: str,
    rates: Optional[Mapping[str, float]] = None,
    orders: Optional[Sequence[Sequence[str]]] = None,
):
    """Build the one automaton for a mode, as a one-element list.

    ``orders`` (one frequency order per chain) overrides rate-derived
    ordering; eager mode needs neither. Several chains are merged into one
    multi-chain automaton in every mode.
    """
    if mode not in MODES:
        raise BuildError(f"unknown mode {mode!r}; expected one of {MODES}")

    def order_for(i: int, chain: ChainPattern):
        if orders is not None:
            return list(orders[i])
        if rates is None:
            raise BuildError(f"mode {mode!r} needs --rates or explicit orders")
        return chain_orders(chain, rates)

    if mode == "eager":
        parts = [eager_parts(c) for c in chains]
    else:
        variant = "fc" if mode == "lazy-fc" else "pp"
        parts = [lazy_parts(chain, order_for(i, chain), negation=variant,
                            neg_freq=_neg_order(chain, rates))
                 for i, chain in enumerate(chains)]
    return [build_multi_chain(parts)]


def make_runtime(nfas: Sequence[Nfa]):
    """A runtime for the automaton that :func:`compile_pattern` returns."""
    (nfa,) = nfas
    return Runtime(nfa)
