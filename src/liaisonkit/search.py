"""The deterministic breadth-first core shared by the chain searches.

Determinism rule: a level walks its frontier in order, each state's
moves in the order ``moves`` yields them, and the first move that
reaches an unseen state becomes that state's parent.  Each new level
comes back sorted, so the next walk depends on which states were
reached, not on the order in which they were found.
"""

from __future__ import annotations

from .errors import Record, _set


class SearchFailure(Record):
    """Exhaustion report of either chain search; every search result has
    ``found``.  ``frontier_sizes`` is empty when no level sizes are kept,
    and ``bounds`` defaults to a new empty dict."""

    __slots__ = ("target", "explored", "frontier_sizes", "bounds")

    found = False

    def __init__(
        self,
        target: object,
        explored: int,
        frontier_sizes: tuple[int, ...] = (),
        bounds: dict | None = None,
    ):
        _set(self, "target", target)
        _set(self, "explored", explored)
        _set(self, "frontier_sizes", frontier_sizes)
        _set(self, "bounds", {} if bounds is None else bounds)


def expand(frontier, parent, moves):
    """Run one level from ``frontier`` and return the newly reached
    states, sorted.

    ``parent`` maps every state seen so far to ``(previous, move)``, or
    to ``None`` for a root, and gains an entry per new state.
    ``moves(state)`` yields ``(move, next_state)`` pairs.
    """
    new = []
    for state in frontier:
        for move, nxt in moves(state):
            if nxt not in parent:
                parent[nxt] = (state, move)
                new.append(nxt)
    return sorted(new)


def path_to(parent, state):
    """The ``(move, state)`` pairs from the root to ``state``; the first
    pair is ``(None, root)``."""
    path = []
    while parent[state] is not None:
        prev, move = parent[state]
        path.append((move, state))
        state = prev
    path.append((None, state))
    path.reverse()
    return path
