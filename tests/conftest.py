import pytest

from cep.events import Event


@pytest.fixture
def ev():
    def make(etype, ts, seq, **attrs):
        return Event(etype, ts, seq, {k: v for k, v in attrs.items()})

    return make


def mkstream(*specs):
    """specs: (etype, ts[, attrs-dict]) tuples; seq assigned by position."""
    out = []
    for i, spec in enumerate(specs):
        etype, ts = spec[0], spec[1]
        attrs = spec[2] if len(spec) > 2 else {}
        out.append(Event(etype, ts, i, attrs))
    return out


def state_branches(nfa):
    """The branch that owns each state of ``nfa`` but the seed's and F: the
    one whose takes, or eager completion's hand-off, enter it."""
    owner = {tp.dst: tp.branch for tp in nfa.edges}
    for sid, work in nfa.work.items():
        if work.complete is not None and work.complete.tail_start is not None:
            owner[work.complete.tail_start] = owner[sid]
    owner.pop(nfa.accepting, None)
    return owner
