"""Triad triangle counting, relative densities, and the reduced hypergraph.

A triad is a tripartite graph on three disjoint vertex classes; the density
of a hypergraph with respect to a triad is the fraction of the triad's
triangles that are edges.  Densities are exact Fractions throughout so the
majority coloring boundary (red iff density >= 1/2) is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import Color, Hypergraph3, Triple, canon_triple, mask_bits
from .errors import UndefinedDensityError


@dataclass(frozen=True)
class Triad:
    """Tripartite graph: three disjoint classes and three bipartite edge sets.

    ``bip`` holds the pair sets for the class pairs (0,1), (0,2), (1,2) in
    that order; each pair is stored as (x, y) with x from the lower-indexed
    class.
    """

    classes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    bip: tuple[frozenset, frozenset, frozenset]

    @classmethod
    def build(cls, classes, pairs_01, pairs_02, pairs_12) -> "Triad":
        classes = tuple(tuple(sorted(c)) for c in classes)
        if len(classes) != 3:
            raise ValueError("a triad needs exactly three classes")
        sets = [set(c) for c in classes]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise ValueError("classes must be disjoint")
        bip = []
        for (i, j), pairs in zip(((0, 1), (0, 2), (1, 2)), (pairs_01, pairs_02, pairs_12)):
            norm = set()
            for x, y in pairs:
                if x in sets[j] and y in sets[i]:
                    x, y = y, x
                if x not in sets[i] or y not in sets[j]:
                    raise ValueError(f"pair ({x},{y}) does not respect classes {i},{j}")
                norm.add((x, y))
            bip.append(frozenset(norm))
        return cls(classes, tuple(bip))

    @classmethod
    def complete(cls, classes) -> "Triad":
        classes = tuple(tuple(sorted(c)) for c in classes)
        p01 = [(x, y) for x in classes[0] for y in classes[1]]
        p02 = [(x, y) for x in classes[0] for y in classes[2]]
        p12 = [(x, y) for x in classes[1] for y in classes[2]]
        return cls.build(classes, p01, p02, p12)

    def subgraph(self, pairs_01, pairs_02, pairs_12) -> "Triad":
        sub = Triad.build(self.classes, pairs_01, pairs_02, pairs_12)
        for mine, theirs in zip(self.bip, sub.bip):
            if not theirs <= mine:
                raise ValueError("subgraph pairs must come from the triad")
        return sub

    def same_classes(self, other: "Triad") -> bool:
        return self.classes == other.classes


def triangles(p: Triad) -> set[Triple]:
    """All {x, y, z} spanning the three classes with all three pairs present.

    The third vertex is found by intersecting link bitmasks over class 2.
    """
    adj_02: dict[int, int] = {}
    for x, z in p.bip[1]:
        adj_02[x] = adj_02.get(x, 0) | (1 << z)
    adj_12: dict[int, int] = {}
    for y, z in p.bip[2]:
        adj_12[y] = adj_12.get(y, 0) | (1 << z)
    out: set[Triple] = set()
    for x, y in p.bip[0]:
        both = adj_02.get(x, 0) & adj_12.get(y, 0)
        for z in mask_bits(both):
            out.add(canon_triple(x, y, z))
    return out


def density(h: Hypergraph3, p: Triad) -> Fraction:
    """Exact fraction of the triad's triangles that are edges of h."""
    tri = triangles(p)
    if not tri:
        raise UndefinedDensityError("triad has no triangles")
    hits = sum(1 for t in tri if h.has_edge(t))
    return Fraction(hits, len(tri))


def density_tuple(h: Hypergraph3, qs) -> Fraction:
    """Density over the union of the triangle sets of subgraphs of one triad."""
    qs = list(qs)
    if not qs:
        raise UndefinedDensityError("empty triad tuple")
    base = qs[0]
    if any(not base.same_classes(q) for q in qs[1:]):
        raise ValueError("all triads in a tuple must share their classes")
    union: set[Triple] = set()
    for q in qs:
        union |= triangles(q)
    if not union:
        raise UndefinedDensityError("triangle union is empty")
    hits = sum(1 for t in union if h.has_edge(t))
    return Fraction(hits, len(union))


@dataclass(frozen=True)
class ReducedHypergraph:
    """Hypergraph on class indices [0, t) with majority colors and densities."""

    t: int
    edges: tuple[Triple, ...]
    colors: dict[Triple, Color] = field(default_factory=dict)
    densities: dict[Triple, Fraction] = field(default_factory=dict)

    def host(self) -> Hypergraph3:
        return Hypergraph3(self.t, self.edges)


def build_reduced(
    classes,
    bip: dict,
    h_red: Hypergraph3,
    regular_flags=None,
) -> ReducedHypergraph:
    """Assemble the reduced hypergraph from a partition and chosen bipartite graphs.

    ``classes`` is the list of vertex classes; ``bip`` maps class-index pairs
    (i, j) with i < j to their bipartite pair sets.  An index triple ijk is
    an edge when ``regular_flags`` lists it (regularity certification is an
    input, not computed here) or, absent flags, when its triad has at least
    one triangle.  Edge ijk is colored red iff the red density of its triad
    is >= 1/2; exact densities are recorded per edge.
    """
    classes = [tuple(sorted(c)) for c in classes]
    t = len(classes)
    norm_bip = {}
    for (i, j), pairs in bip.items():
        if not 0 <= i < j < t:
            raise ValueError(f"bad class pair ({i},{j})")
        norm_bip[(i, j)] = pairs

    def triad_of(i: int, j: int, k: int) -> Triad:
        return Triad.build(
            (classes[i], classes[j], classes[k]),
            norm_bip.get((i, j), ()),
            norm_bip.get((i, k), ()),
            norm_bip.get((j, k), ()),
        )

    if regular_flags is not None:
        wanted = sorted({canon_triple(*f) for f in regular_flags})
        for f in wanted:
            if f[2] >= t:
                raise ValueError(f"regular flag {f} beyond class count {t}")
    else:
        wanted = list(combinations(range(t), 3))

    edges: list[Triple] = []
    colors: dict[Triple, Color] = {}
    dens: dict[Triple, Fraction] = {}
    for ijk in wanted:
        i, j, k = ijk
        p = triad_of(i, j, k)
        tri = triangles(p)
        if not tri:
            if regular_flags is not None:
                raise UndefinedDensityError(
                    f"flagged triple {ijk} has a triangle-free triad"
                )
            continue
        hits = sum(1 for x in tri if h_red.has_edge(x))
        d = Fraction(hits, len(tri))
        edges.append(ijk)
        dens[ijk] = d
        colors[ijk] = Color.RED if d >= Fraction(1, 2) else Color.BLUE
    return ReducedHypergraph(t=t, edges=tuple(edges), colors=colors, densities=dens)

