"""Tight and loose cycles: verification, exact pair search, loose extraction.

A tight cycle is a cyclic vertex order in which every three consecutive
vertices form an edge; its length (number of edges = number of vertices) is
at least 4, or 0 for the empty cycle.  A loose cycle is a cyclic edge
sequence in which consecutive edges share exactly one vertex and
non-consecutive edges are disjoint.

``search_cycle_pair`` is a desk-scale exact search for two vertex-disjoint
monochromatic tight cycles of distinct colors with parity control.  It
enumerates candidate covers in decreasing total size, so a found pair
leaves the minimum possible number of vertices uncovered.  Supports are
memoised per call: each (color, support) is tested for a tight Hamilton
cycle at most once per search, against the color's cached link table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .core import Color, Coloring, Hypergraph3, Triple, canon_triple, mask_bits
from .errors import InstanceTooLargeError

SEARCH_HARD_CAP = 16
MIN_TIGHT = 4
MIN_LOOSE_EDGES = 3

ANY = "any"
EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class TightCycle:
    """Cyclic vertex order; empty or of length >= 4 with distinct vertices."""

    order: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.order)

    def implied_edges(self) -> list[Triple]:
        ell = len(self.order)
        if ell == 0:
            return []
        return [
            canon_triple(self.order[i], self.order[(i + 1) % ell], self.order[(i + 2) % ell])
            for i in range(ell)
        ]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.order)

    def structurally_ok(self) -> bool:
        ell = len(self.order)
        if ell == 0:
            return True
        return ell >= MIN_TIGHT and len(set(self.order)) == ell


EMPTY_TIGHT = TightCycle(())


@dataclass(frozen=True)
class LooseCycle:
    """Cyclic edge sequence; consecutive edges meet in exactly one vertex."""

    edges: tuple[Triple, ...]

    def vertex_set(self) -> frozenset[int]:
        out: set[int] = set()
        for e in self.edges:
            out.update(e)
        return frozenset(out)

    def structurally_ok(self) -> bool:
        k = len(self.edges)
        if k == 0:
            return True
        if k < MIN_LOOSE_EDGES:
            return False
        for i in range(k):
            for j in range(i + 1, k):
                shared = len(set(self.edges[i]) & set(self.edges[j]))
                consecutive = j == i + 1 or (i == 0 and j == k - 1)
                if consecutive and shared != 1:
                    return False
                if not consecutive and shared != 0:
                    return False
        return True


@dataclass(frozen=True)
class CyclePair:
    red: TightCycle
    blue: TightCycle
    uncovered: tuple[int, ...]


@dataclass(frozen=True)
class SearchOutcome:
    """status: 'found' | 'exhausted' | 'timeout'."""

    status: str
    pair: CyclePair | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def verify_tight_cycle(c: TightCycle, h: Hypergraph3, col: Coloring | None, color: Color | None) -> bool:
    """Structural invariants plus edge existence and color purity."""
    if not c.structurally_ok():
        return False
    for e in c.implied_edges():
        if not h.has_edge(e):
            return False
        if col is not None and color is not None and col.color_of(e) is not color:
            return False
    return True


def verify_loose_cycle(c: LooseCycle, h: Hypergraph3, col: Coloring | None, color: Color | None) -> bool:
    if not c.structurally_ok():
        return False
    for e in c.edges:
        if not h.has_edge(e):
            return False
        if col is not None and color is not None and col.color_of(e) is not color:
            return False
    return True


def verify_cycle_pair(pair: CyclePair, h: Hypergraph3, col: Coloring) -> tuple[bool, list[str]]:
    """Check a cycle pair: per-color validity, disjointness, uncovered set."""
    diags: list[str] = []
    if not verify_tight_cycle(pair.red, h, col, Color.RED):
        diags.append("red cycle invalid")
    if not verify_tight_cycle(pair.blue, h, col, Color.BLUE):
        diags.append("blue cycle invalid")
    rv, bv = pair.red.vertex_set(), pair.blue.vertex_set()
    if rv & bv:
        diags.append(f"cycles share vertices {sorted(rv & bv)}")
    expected = tuple(sorted(h.vertices - rv - bv))
    if tuple(pair.uncovered) != expected:
        diags.append("uncovered set inconsistent with cycles")
    return not diags, diags


def loose_from_tight(c: TightCycle) -> LooseCycle:
    """Every other implied edge of an even tight cycle of length >= 6.

    Length 4 is rejected: its alternating edges would share two vertices.
    The result covers exactly the cycle's vertices.
    """
    ell = c.length
    if ell % 2 != 0 or ell < 6:
        raise ValueError(f"loose extraction needs even length >= 6, got {ell}")
    edges = c.implied_edges()
    return LooseCycle(tuple(edges[i] for i in range(0, ell, 2)))


def _parity_ok(size: int, parity: str) -> bool:
    if size == 0:
        return parity == ANY
    if parity == ANY:
        return True
    if parity == EVEN:
        return size % 2 == 0
    if parity == ODD:
        return size % 2 == 1
    raise ValueError(f"unknown parity {parity!r}")


class _Deadline:
    __slots__ = ("at", "hit", "_tick")

    def __init__(self, budget_ms):
        self.at = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.hit = False
        self._tick = 0

    def expired(self) -> bool:
        if self.at is None:
            return False
        self._tick += 1
        if self._tick & 0x3FF:
            return self.hit
        if time.monotonic() > self.at:
            self.hit = True
        return self.hit


def _tight_hamilton(
    support: tuple[int, ...], links: list[int], n: int, deadline: _Deadline
) -> tuple[int, ...] | None:
    """First tight cycle using every vertex of ``support``, or None.

    ``links[x * n + y]`` is the link mask of the pair {x, y}.  Depth-first
    extension of a tight path anchored at the smallest vertex, candidates in
    ascending id order taken from the link mask of the last two vertices;
    reflections are skipped by requiring the second vertex to be smaller
    than the last.
    """
    s = len(support)
    order = [support[0]] + [0] * (s - 1)

    def extend(depth: int, free: int) -> bool:
        if deadline.expired():
            return False
        if depth == s:
            return (
                order[1] < order[s - 1]
                and links[order[s - 2] * n + order[s - 1]] >> order[0] & 1 == 1
                and links[order[s - 1] * n + order[0]] >> order[1] & 1 == 1
            )
        cand = free if depth < 2 else free & links[order[depth - 2] * n + order[depth - 1]]
        for v in mask_bits(cand):
            order[depth] = v
            if extend(depth + 1, free & ~(1 << v)):
                return True
        return False

    free = 0
    for v in support[1:]:
        free |= 1 << v
    if extend(1, free):
        return tuple(order)
    return None


def search_cycle_pair(
    h: Hypergraph3,
    col: Coloring,
    max_uncovered: int,
    parity_red: str = ANY,
    parity_blue: str = ANY,
    budget_ms: int | None = None,
) -> SearchOutcome:
    """Exact search for a disjoint red/blue tight-cycle pair.

    Candidate (red size, blue size) splits are enumerated by decreasing
    total covered count, red size descending within a total, so the first
    pair found leaves the fewest vertices uncovered among all pairs with at
    most ``max_uncovered`` uncovered.  Returns 'exhausted' when the full
    space was searched without success, 'timeout' when the budget ran out
    first.
    """
    n = h.t
    if n > SEARCH_HARD_CAP:
        raise InstanceTooLargeError(f"cycle search capped at {SEARCH_HARD_CAP} vertices")
    if col.host.edge_bits != h.edge_bits:
        raise ValueError("coloring does not belong to the searched hypergraph")
    if max_uncovered < 0:
        raise ValueError(f"max_uncovered must be non-negative, got {max_uncovered}")
    vertices = sorted(h.vertices)
    deadline = _Deadline(budget_ms)
    # per color: the cached link table, and a memo local to this call from
    # support (an ascending tuple, as combinations yields it) to its
    # TightCycle or None
    links = {c: col.subhypergraph(c).links() for c in Color}
    memo: dict[Color, dict[tuple[int, ...], TightCycle | None]] = {c: {} for c in Color}

    def cycle_on(support: tuple[int, ...], color: Color) -> TightCycle | None:
        seen = memo[color]
        if support not in seen:
            found = _tight_hamilton(support, links[color], col.host.n, deadline)
            seen[support] = None if found is None else TightCycle(found)
        return seen[support]

    def sizes(par):
        out = [s for s in range(MIN_TIGHT, n + 1) if _parity_ok(s, par)]
        if _parity_ok(0, par):
            out.append(0)
        return set(out)

    red_sizes = sizes(parity_red)
    blue_sizes = sizes(parity_blue)

    lo = max(n - max_uncovered, 0)
    for covered in range(n, lo - 1, -1):
        for s_red in sorted(red_sizes, reverse=True):
            s_blue = covered - s_red
            if s_blue not in blue_sizes:
                continue
            for red_support in combinations(vertices, s_red) if s_red else ((),):
                if deadline.hit:
                    return SearchOutcome("timeout")
                red_cycle = EMPTY_TIGHT
                if s_red:
                    red_cycle = cycle_on(red_support, Color.RED)
                    if red_cycle is None:
                        continue
                red_set = set(red_support)
                rest = [v for v in vertices if v not in red_set]
                for blue_support in combinations(rest, s_blue) if s_blue else ((),):
                    if deadline.hit:
                        return SearchOutcome("timeout")
                    blue_cycle = EMPTY_TIGHT
                    if s_blue:
                        blue_cycle = cycle_on(blue_support, Color.BLUE)
                        if blue_cycle is None:
                            continue
                    taken = red_set.union(blue_support)
                    uncovered = tuple(v for v in vertices if v not in taken)
                    return SearchOutcome(
                        "found", CyclePair(red_cycle, blue_cycle, uncovered)
                    )
    return SearchOutcome("timeout" if deadline.hit else "exhausted")
