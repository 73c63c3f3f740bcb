"""Exhaustive ground truth for small instances.

Deliberately independent routes from the production code: the matching-cover
oracle finds each color's components by union-find over its edges (no link
table, no pair search) and enumerates covered-vertex bitmasks per component,
the cycle oracle enumerates cyclic orders with no pruning, and the perfect
matching oracle runs a memoized subset DP.  Results are deterministic and
do not depend on enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .core import (
    Color,
    Coloring,
    Hypergraph3,
    Triple,
    canon_triple,
    triple_mask,
)
from .cycles import ANY, _parity_ok
from .errors import InstanceTooLargeError

MATCHING_CAP = 10
CYCLE_CAP = 8
PM_CAP = 15


@dataclass(frozen=True)
class OracleReport:
    optimum: int | None
    witness: dict | None
    instances_searched: int


def _color_components(col: Coloring, color: Color) -> list[tuple[Triple, ...]]:
    """Pseudo-path components of one color's edges, by union-find.

    The color's edges are the host triples that ``col`` gives that color.
    Each edge is merged with the first edge through each of its three pairs,
    so two edges end up together iff a chain of edges, each sharing a pair
    with the next, joins them.  Components come in order of their first
    edge, each with its edges in colex order.
    """
    host = col.host
    triples = sorted(combinations(sorted(host.vertices), 3), key=lambda t: (t[2], t[1], t[0]))  # colex
    edges = [t for t in triples if host.has_edge(t) and col.color_of(t) is color]
    parent = list(range(len(edges)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_through: dict[tuple[int, int], int] = {}
    for i, (a, b, c) in enumerate(edges):
        for pair in ((a, b), (a, c), (b, c)):
            j = first_through.setdefault(pair, i)
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[Triple]] = {}
    for i, e in enumerate(edges):
        groups.setdefault(root(i), []).append(e)
    return [tuple(g) for g in groups.values()]


def _component_masks(edges: tuple[Triple, ...]) -> tuple[dict[int, tuple[Triple, ...]], int]:
    """All covered-vertex masks achievable by matchings inside one component.

    Returns mask -> witness matching (first found with edges in colex order)
    and the number of matchings enumerated.
    """
    masks: dict[int, tuple[Triple, ...]] = {0: ()}
    searched = 0
    for e in edges:
        em = triple_mask(e)
        additions = {}
        for m, wit in masks.items():
            if m & em == 0:
                nm = m | em
                searched += 1
                if nm not in masks and nm not in additions:
                    additions[nm] = wit + (e,)
        masks.update(additions)
    return masks, searched


def oracle_matching_cover(h: Hypergraph3, col: Coloring) -> OracleReport:
    """Maximum vertices coverable by disjoint red/blue connected matchings.

    Each matching must lie inside a single component of its color.  Exact by
    exhaustive enumeration of covered-vertex masks.
    """
    if h.t > MATCHING_CAP:
        raise InstanceTooLargeError(f"matching oracle capped at {MATCHING_CAP} vertices")
    searched = 0
    per_color: dict[Color, dict[int, tuple[tuple[Triple, ...], tuple[Triple, ...]]]] = {}
    for color in (Color.RED, Color.BLUE):
        merged: dict[int, tuple[tuple[Triple, ...], tuple[Triple, ...]]] = {0: ((), ())}
        for comp in _color_components(col, color):
            masks, n = _component_masks(comp)
            searched += n
            for m, wit in masks.items():
                if m and m not in merged:
                    merged[m] = (wit, comp)
        per_color[color] = merged

    red_masks = sorted(per_color[Color.RED].items())
    blue_masks = sorted(per_color[Color.BLUE].items())
    best = -1
    best_wit = None
    for mr, (wr, _) in red_masks:
        pr = mr.bit_count()
        for mb, (wb, _) in blue_masks:
            if mr & mb:
                continue
            total = pr + mb.bit_count()
            if total > best:
                best = total
                best_wit = {
                    "red": [list(e) for e in wr],
                    "blue": [list(e) for e in wb],
                }
    return OracleReport(optimum=best, witness=best_wit, instances_searched=searched)


def _all_cycle_supports(col: Coloring, color: Color) -> tuple[dict[int, tuple[int, ...]], int]:
    """Supports carrying a monochromatic tight cycle: mask -> witness order.

    Enumerates every cyclic vertex order (anchored at the minimum, second
    vertex smaller than last to kill reflections) with no pruning; all
    cycles on a support share its size, so one witness per support suffices.
    Also returns the number of orders examined.
    """
    sub = col.subhypergraph(color)
    vertices = sorted(col.host.vertices)
    out: dict[int, tuple[int, ...]] = {}
    examined = 0
    for s in range(4, len(vertices) + 1):
        for support in combinations(vertices, s):
            mask = 0
            for v in support:
                mask |= 1 << v
            first = support[0]
            for perm in permutations(support[1:]):
                if perm[0] > perm[-1]:
                    continue
                examined += 1
                order = (first,) + perm
                ok = True
                for i in range(s):
                    t = canon_triple(order[i], order[(i + 1) % s], order[(i + 2) % s])
                    if not sub.has_edge(t):
                        ok = False
                        break
                if ok:
                    out[mask] = order
                    break
    return out, examined


def oracle_cycle_pair(
    h: Hypergraph3,
    col: Coloring,
    parity_red: str = ANY,
    parity_blue: str = ANY,
) -> OracleReport:
    """Exact minimum uncovered over disjoint red/blue tight-cycle pairs.

    optimum is None when no pair satisfies the parity constraints (the empty
    cycle satisfies only 'any').
    """
    if h.t > CYCLE_CAP:
        raise InstanceTooLargeError(f"cycle oracle capped at {CYCLE_CAP} vertices")
    n = h.t
    red_sup, examined_r = _all_cycle_supports(col, Color.RED)
    blue_sup, examined_b = _all_cycle_supports(col, Color.BLUE)
    searched = examined_r + examined_b

    def options(sup, parity):
        opts = []
        if _parity_ok(0, parity):
            opts.append((0, ()))
        for mask, order in sorted(sup.items()):
            if _parity_ok(len(order), parity):
                opts.append((mask, order))
        return opts

    red_opts = options(red_sup, parity_red)
    blue_opts = options(blue_sup, parity_blue)
    best = None
    best_wit = None
    for mr, ro in red_opts:
        for mb, bo in blue_opts:
            if mr & mb:
                continue
            uncovered = n - (mr | mb).bit_count()
            if best is None or uncovered < best:
                best = uncovered
                taken = mr | mb
                best_wit = {
                    "red": list(ro),
                    "blue": list(bo),
                    "uncovered": [v for v in sorted(h.vertices) if not taken >> v & 1],
                }
    return OracleReport(optimum=best, witness=best_wit, instances_searched=searched)


def oracle_perfect_matching(h: Hypergraph3) -> bool:
    """Exact perfect-matching existence by memoized subset DP."""
    verts = sorted(h.vertices)
    m = len(verts)
    if m % 3 != 0:
        raise ValueError(f"vertex count {m} is not a multiple of three")
    if m > PM_CAP:
        raise InstanceTooLargeError(f"perfect matching oracle capped at {PM_CAP} vertices")
    pos = {v: i for i, v in enumerate(verts)}
    edge_masks = []
    for e in h.edges:
        em = 0
        for v in e:
            em |= 1 << pos[v]
        edge_masks.append(em)
    by_low: dict[int, list[int]] = {}
    for em in edge_masks:
        low = (em & -em).bit_length() - 1
        by_low.setdefault(low, []).append(em)

    memo: dict[int, bool] = {0: True}

    def solve(mask: int) -> bool:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = (mask & -mask).bit_length() - 1
        result = False
        for em in by_low.get(low, ()):
            if em & mask == em and solve(mask & ~em):
                result = True
                break
        memo[mask] = result
        return result

    return solve((1 << m) - 1)
