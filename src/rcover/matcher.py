"""Two disjoint monochromatic connected matchings in a dense 2-colored host.

The pipeline mirrors a constructive covering argument for almost-complete
3-uniform hypergraphs:

1. ``clean``: iteratively delete weak pairs and isolated vertices until every
   active pair of the surviving subhypergraph K has a link of size at least
   (1 - delta) * |V(K)| with delta = 10 * gamma^(1/6).
2. ``partition_vertices``: each color's major component is its largest
   monochromatic component (most vertices, then most edges, then the first
   in component order); its vertex set is that color's core.
3. ``local_search_matching``: grow two disjoint matchings inside the major
   components with three exchange moves, each strictly increasing the number
   of covered vertices: greedy edge addition, one-for-two swaps and
   two-for-three swaps.  Every edge a move adds is an edge of a major
   component.
4. ``verify_cover`` certifies the result.

The covering argument closes with a residual branch that perfectly matches
an opposite-colored component stranded in a leftover core; its steps are
kept as ``residual_component``, ``perfect_matching_dense`` and
``dissolve_matching``.  ``cover`` does not run them: with majors chosen by
size, local search covers the hosts on which the branch used to fire, and
the branch's thresholds are vacuous whenever gamma >= 1e-6 (delta >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

from .core import (
    Color,
    Coloring,
    Hypergraph3,
    PseudoPath,
    Triple,
    canon_triple,
    colex_index,
    colex_inverse,
    connected_components,
    connecting_path,
    decode_edges,
    edge_neighbors,
    index_mask,
    mask_bits,
    shadow_components,
    triple_mask,
    within_mask,
)
from .errors import (
    BranchInapplicableError,
    CleanupExhaustedError,
    RcoverError,
)

# -- parameters --------------------------------------------------------------


def delta_of(gamma: float) -> float:
    """delta = 10 * gamma^(1/6), the slack of every pipeline threshold."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return 10.0 * gamma ** (1.0 / 6.0)


# -- cleanup -----------------------------------------------------------------


@dataclass(frozen=True)
class CleanReport:
    t_before: int
    t_after: int
    deleted: tuple[int, ...]
    rounds: int
    deactivated_pairs: int
    bound_held: bool  # |V(K)| >= (1 - delta) * |V(H)|


def clean(h: Hypergraph3, gamma: float) -> tuple[Hypergraph3, CleanReport]:
    """Delete weak pairs and isolated vertices until the link bound holds.

    Each round, against the current vertex count t: every active pair whose
    link is smaller than ceil((1 - delta) * t) loses all its edges, then
    vertices contained in no edge are dropped, then t is recomputed.  At the
    fixpoint every vertex sits in an active pair and every active pair has a
    link of size at least (1 - delta) * t.

    The size guarantee t_K >= (1 - delta) * t_H of the existential lemma is
    reported, not assumed: this loop is a constructive stand-in, so the
    report carries whether the bound happened to hold.

    Returns the input host itself when nothing is deleted.  Raises
    CleanupExhaustedError (with the report attached) if every vertex dies.
    """
    delta = delta_of(gamma)
    n = h.n
    k = h
    rounds = 0
    deactivated = 0

    while True:
        rounds += 1
        t = k.t
        if t == 0:
            break
        threshold = ceil((1.0 - delta) * t)
        bad = []  # no link is smaller than a threshold <= 0, as at every gamma >= 1e-6
        if threshold > 0:
            links = k.links()
            bad = [(x, y) for x, y in k.shadow_pairs() if links[x * n + y].bit_count() < threshold]
        if bad:
            deactivated += len(bad)
            drop = index_mask(
                (colex_index(canon_triple(x, y, z)) for x, y in bad for z in mask_bits(links[x * n + y])),
                comb(n, 3),
            )
            k = Hypergraph3.from_bits(n, k.edge_bits & ~drop, k.vertex_mask)
        support = 0  # the vertices in an edge: the union of all links
        for m in k.links():
            support |= m
        if support != k.vertex_mask:
            k = Hypergraph3.from_bits(n, k.edge_bits, support)
        elif not bad:
            break

    report = CleanReport(
        t_before=h.t,
        t_after=k.t,
        deleted=tuple(mask_bits(h.vertex_mask & ~k.vertex_mask)),
        rounds=rounds,
        deactivated_pairs=deactivated,
        bound_held=k.t >= (1.0 - delta) * h.t,
    )
    if not k.vertex_mask:
        raise CleanupExhaustedError("cleanup deleted every vertex", report=report)
    return k, report


def check_clean_properties(k: Hypergraph3, gamma: float) -> tuple[bool, list[str]]:
    """Independent verifier of the two cleanup fixpoint properties."""
    delta = delta_of(gamma)
    problems = []
    in_pair = set()
    for pair in k.shadow_pairs():
        in_pair.update(pair)
        in_pair.update(k.link(*pair))
    for v in sorted(k.vertices - in_pair):
        problems.append(f"vertex {v} lies in no active pair")
    bound = (1.0 - delta) * k.t
    for x, y in k.shadow_pairs():
        size = len(k.link(x, y))
        if size < bound:
            problems.append(f"active pair ({x},{y}) has link {size} < {bound:.3f}")
    return not problems, problems


# -- components and majors ---------------------------------------------------


@dataclass(frozen=True)
class ComponentInfo:
    """One monochromatic component: its colex edge mask and neighbor masks.

    ``neighbor_masks[x]`` is the mask of the partners of x in the
    component's shadow, so xy is a shadow pair iff y is in it.
    """

    cid: str
    edge_bits: int
    neighbor_masks: dict[int, int]

    def in_shadow(self, x: int, y: int) -> bool:
        return self.neighbor_masks.get(x, 0) >> y & 1 == 1


@dataclass(frozen=True)
class ColorPartition:
    """Every monochromatic component by id, and each color's major one.

    ``major_red`` and ``major_blue`` are component ids, None for a color
    with no edge.
    """

    major_red: str | None
    major_blue: str | None
    components: dict[str, ComponentInfo]

    def major(self, color: Color) -> ComponentInfo | None:
        cid = self.major_red if color is Color.RED else self.major_blue
        return None if cid is None else self.components[cid]

    def core(self, color: Color) -> tuple[int, ...]:
        """The vertices of the color's major component, ascending."""
        info = self.major(color)
        return () if info is None else tuple(sorted(info.neighbor_masks))


def partition_vertices(col: Coloring) -> ColorPartition:
    """All monochromatic components of the host; each color's largest is its major.

    Components are listed red first, each color's by first edge.  The major
    of a color has the most vertices, then the most edges, then comes first
    in that order.
    """
    components: dict[str, ComponentInfo] = {}
    majors: list[str | None] = []
    for color in (Color.RED, Color.BLUE):
        infos = [
            ComponentInfo(f"{color.value}:{(bits & -bits).bit_length() - 1}", bits, partners)
            for bits, partners in shadow_components(col.subhypergraph(color))
        ]
        components.update((info.cid, info) for info in infos)
        # a component's vertices are its partner keys; max keeps the first of equal keys
        major = max(
            infos, key=lambda info: (len(info.neighbor_masks), info.edge_bits.bit_count()), default=None
        )
        majors.append(None if major is None else major.cid)
    return ColorPartition(*majors, components)


# -- connected matchings -------------------------------------------------------


@dataclass(frozen=True)
class ConnectedMatching:
    """Disjoint same-colored edges plus pseudo-path connectivity certificates.

    ``certificates[i]`` joins ``edges[i]`` to ``edges[i+1]`` (edges in colex
    order) inside the subhypergraph of the matching's color, so a valid
    certificate chain places all edges in one monochromatic component.
    Certificate paths may pass through vertices covered elsewhere; only
    ``edges`` count as covered.
    """

    color: Color
    edges: tuple[Triple, ...]
    component_id: str | None
    certificates: tuple[PseudoPath, ...]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def covered(self) -> int:
        return 3 * len(self.edges)


def _middle_edge(h: Hypergraph3, e: Triple, f: Triple) -> Triple | None:
    """Deterministic edge sharing two vertices with each of e and f, if any.

    Scans the pairs of e in fixed order and takes each pair's smallest
    completion, then the smallest-colex candidate among those.
    """
    emask = triple_mask(e)
    fmask = triple_mask(f)
    best = None
    a, b, c = e
    for x, y in ((a, b), (a, c), (b, c)):
        pmask = (1 << x) | (1 << y)
        overlap = (pmask & fmask).bit_count()
        if overlap == 2:
            zmask = h.link_mask(x, y) & ~emask & ~fmask
        elif overlap == 1:
            zmask = h.link_mask(x, y) & fmask & ~pmask & ~emask
        else:
            continue
        if zmask:
            z = (zmask & -zmask).bit_length() - 1
            g = canon_triple(x, y, z)
            if best is None or colex_index(g) < colex_index(best):
                best = g
    return best


def mono_connecting_path(h: Hypergraph3, e: Triple, f: Triple) -> PseudoPath | None:
    """Short pseudo-path from e to f, tuned for dense monochromatic hosts.

    Tries lengths 1..4 with direct link-mask constructions before falling
    back to the breadth-first search of ``connecting_path``.  Deterministic
    but not necessarily the BFS-shortest path.
    """
    if e == f:
        return PseudoPath((e,))
    if (triple_mask(e) & triple_mask(f)).bit_count() == 2:
        return PseudoPath((e, f))
    g = _middle_edge(h, e, f)
    if g is not None:
        return PseudoPath((e, g, f))
    for g1 in edge_neighbors(h, e):
        if g1 == f:
            continue
        g2 = _middle_edge(h, g1, f)
        if g2 is not None and g2 != e:
            return PseudoPath((e, g1, g2, f))
    return connecting_path(h, e, f)


def build_matching(
    col: Coloring,
    color: Color,
    edges,
    component_id: str | None,
) -> ConnectedMatching:
    """Sort, certify, and wrap a set of disjoint same-colored edges."""
    edges = tuple(sorted(edges, key=colex_index))
    if not edges:
        return ConnectedMatching(color, (), None, ())
    sub = col.subhypergraph(color)
    certs = []
    for i in range(len(edges) - 1):
        path = mono_connecting_path(sub, edges[i], edges[i + 1])
        if path is None:
            raise RcoverError(
                f"matching edges {edges[i]} and {edges[i + 1]} are not connected "
                f"in the {color.value} subhypergraph"
            )
        certs.append(path)
    return ConnectedMatching(color, edges, component_id, tuple(certs))


# -- local search ---------------------------------------------------------------


def local_search_matching(
    k: Hypergraph3,
    col: Coloring,
    part: ColorPartition,
) -> tuple[ConnectedMatching, ConnectedMatching, list[dict]]:
    """Exchange-move local search for two disjoint major-component matchings.

    Every edge a move adds is an edge of a major component.  Moves, each
    strictly increasing the covered-vertex count by three, are tried in
    order and the first applicable one fires:

    * greedy-add: the smallest fully-uncovered major edge, the lowest set
      bit of the two major edge masks restricted to the triples inside the
      uncovered vertices;
    * one-for-two: drop one matching edge, add two disjoint major edges
      whose vertices are otherwise uncovered;
    * two-for-three: drop two edges of one matching, re-cover two of their
      vertex pairs through fresh vertices and join the two displaced
      vertices with a fresh third edge.

    Returns the two matchings plus the applied-move trace.
    """
    matching: dict[Color, set[Triple]] = {Color.RED: set(), Color.BLUE: set()}
    covered = 0
    moves: list[dict] = []

    # the two colours share no edge, so the sum is the union of the masks
    major_bits = sum(info.edge_bits for info in map(part.major, (Color.RED, Color.BLUE)) if info is not None)

    def major_edge(t: Triple) -> bool:
        return major_bits >> colex_index(t) & 1 == 1

    def try_greedy_add():
        free = major_bits & within_mask(k.vertex_mask & ~covered)
        if free:
            return ("greedy-add", (), (colex_inverse((free & -free).bit_length() - 1),))
        return None

    def try_one_for_two():
        uncov = k.vertex_mask & ~covered
        pool = sorted(matching[Color.RED] | matching[Color.BLUE], key=colex_index)
        for e in pool:
            cands = decode_edges(major_bits & within_mask(uncov | triple_mask(e)))
            for i, f1 in enumerate(cands):
                m1 = triple_mask(f1)
                for f2 in cands[i + 1 :]:
                    if m1 & triple_mask(f2) == 0:
                        return ("one-for-two", (e,), (f1, f2))
        return None

    def try_two_for_three():
        uncov = k.vertex_mask & ~covered
        for mcolor in (Color.RED, Color.BLUE):
            pool = sorted(matching[mcolor], key=colex_index)
            for i1 in range(len(pool)):
                for i2 in range(i1 + 1, len(pool)):
                    e1, e2 = pool[i1], pool[i2]
                    for u1 in e1:
                        p1 = tuple(v for v in e1 if v != u1)
                        amask = k.link_mask(*p1) & uncov
                        for a in mask_bits(amask):
                            f1 = canon_triple(p1[0], p1[1], a)
                            if not major_edge(f1):
                                continue
                            for u2 in e2:
                                p2 = tuple(v for v in e2 if v != u2)
                                bmask = k.link_mask(*p2) & uncov & ~(1 << a)
                                for b in mask_bits(bmask):
                                    f2 = canon_triple(p2[0], p2[1], b)
                                    if not major_edge(f2):
                                        continue
                                    cmask = (
                                        k.link_mask(u1, u2)
                                        & uncov
                                        & ~(1 << a)
                                        & ~(1 << b)
                                    )
                                    for c in mask_bits(cmask):
                                        f3 = canon_triple(u1, u2, c)
                                        if major_edge(f3):
                                            return (
                                                "two-for-three",
                                                (e1, e2),
                                                (f1, f2, f3),
                                            )
        return None

    # every move covers three more vertices, so none fits once fewer than three are uncovered
    while (k.vertex_mask & ~covered).bit_count() >= 3:
        move = try_greedy_add() or try_one_for_two() or try_two_for_three()
        if move is None:
            break
        kind, removed, added = move
        before = covered.bit_count()
        for t in removed:
            matching[col.color_of(t)].discard(t)
        for t in added:
            if not major_edge(t):
                raise RcoverError(f"exchange produced {t} outside its major component")
            matching[col.color_of(t)].add(t)
        covered = 0
        for color in (Color.RED, Color.BLUE):
            for t in matching[color]:
                covered |= triple_mask(t)
        after = covered.bit_count()
        if after <= before:
            raise RcoverError(f"move {kind} did not increase coverage")
        moves.append(
            {
                "stage": "move",
                "detail": {
                    "kind": kind,
                    "removed": [list(t) for t in removed],
                    "added": [list(t) for t in added],
                    "covered": after,
                },
            }
        )

    red_cm = build_matching(
        col, Color.RED, matching[Color.RED], part.major_red if matching[Color.RED] else None
    )
    blue_cm = build_matching(
        col, Color.BLUE, matching[Color.BLUE], part.major_blue if matching[Color.BLUE] else None
    )
    return red_cm, blue_cm, moves


# -- residual branch ------------------------------------------------------------


def residual_component(
    k: Hypergraph3,
    col: Coloring,
    part: ColorPartition,
    red_m: ConnectedMatching,
    blue_m: ConnectedMatching,
    minor: Color = Color.BLUE,
) -> tuple[Hypergraph3, tuple[int, ...], dict]:
    """Minor-colored component inside the major color's leftover core.

    With major = the other color of ``minor``: the residual core is the
    major core minus all matched vertices.  The anchor is the smallest-colex
    minor-colored edge inside it; vertices whose pair with the anchor's
    smallest vertex misses the major component's shadow are removed; the
    minor-colored component of the induced subhypergraph containing the
    anchor is taken, then 0-2 largest-id vertices are trimmed so the vertex
    count is a multiple of three.

    Returns (component host, trimmed vertices, info dict).  Raises
    BranchInapplicableError when no anchor exists or the anchor does not
    survive the shadow filter.
    """
    major = minor.other()
    major_info = part.major(major)
    if major_info is None:
        raise BranchInapplicableError(f"no major {major.value} component")
    covered = red_m.vertex_set() | blue_m.vertex_set()
    residual = [v for v in part.core(major) if v not in covered]
    residual_set = set(residual)

    minor_sub = col.subhypergraph(minor)
    inside = minor_sub.induced(residual).edge_bits
    if not inside:
        raise BranchInapplicableError(
            f"no {minor.value} edge inside the residual {major.value} core"
        )
    anchor = colex_inverse((inside & -inside).bit_length() - 1)  # smallest colex

    x = anchor[0]
    filtered = [v for v in residual if v == x or major_info.in_shadow(v, x)]
    if not set(anchor) <= set(filtered):
        raise BranchInapplicableError("anchor edge destroyed by the shadow filter")

    induced = minor_sub.induced(filtered)
    comp_edges = None
    for comp in connected_components(induced):
        if anchor in comp:
            comp_edges = comp
            break
    if comp_edges is None:
        raise BranchInapplicableError("anchor vanished from the induced subhypergraph")

    comp_vertices = {v for e in comp_edges for v in e}
    trim_count = len(comp_vertices) % 3
    trimmed = tuple(sorted(comp_vertices, reverse=True)[:trim_count])
    keep = comp_vertices - set(trimmed)
    tmask = sum(1 << v for v in trimmed)
    edges = [e for e in comp_edges if triple_mask(e) & tmask == 0]
    host = Hypergraph3(k.n, edges, vertices=keep)
    info = {
        "anchor": list(anchor),
        "filtered_out": sorted(residual_set - set(filtered)),
        "component_size": len(comp_vertices),
        "trimmed": list(trimmed),
    }
    return host, trimmed, info


@dataclass(frozen=True)
class PerfectMatchingResult:
    matching: tuple[Triple, ...]
    perfect: bool
    uncovered: tuple[int, ...]


def _search_maximum(by_lowest: dict, mask: int, acc: list[Triple], best: list[Triple]) -> None:
    """Replace ``best`` by any larger matching that extends ``acc`` inside ``mask``."""
    if len(acc) + mask.bit_count() // 3 <= len(best):
        return
    if mask == 0:
        if len(acc) > len(best):
            best[:] = acc
        return
    low = (mask & -mask).bit_length() - 1
    for e in by_lowest.get(low, ()):
        em = triple_mask(e)
        if em & mask == em:
            acc.append(e)
            _search_maximum(by_lowest, mask & ~em, acc, best)
            acc.pop()
    # leave the lowest vertex uncovered
    if len(acc) > len(best):
        best[:] = acc
    _search_maximum(by_lowest, mask & ~(1 << low), acc, best)


def perfect_matching_dense(b: Hypergraph3) -> PerfectMatchingResult:
    """Exact maximum matching, perfect whenever a perfect matching exists.

    Backtracks on the smallest uncovered vertex, trying its edges in colex
    order before leaving it uncovered, and prunes branches that cannot beat
    the best matching so far.  Covering branches come first, so the first
    perfect matching in that order is found and ends the search.  The
    matching is returned in colex order with the uncovered remainder.
    """
    verts = sorted(b.vertices)
    m = len(verts)
    if m % 3 != 0:
        raise ValueError(f"vertex count {m} is not a multiple of three")

    by_lowest: dict[int, list[Triple]] = {v: [] for v in verts}
    for e in b.edges:  # colex order
        by_lowest[min(e)].append(e)

    best: list[Triple] = []
    _search_maximum(by_lowest, b.vertex_mask, [], best)
    covered = sum(triple_mask(e) for e in best)  # disjoint: the sum is the union
    uncovered = tuple(v for v in verts if not covered >> v & 1)
    return PerfectMatchingResult(
        matching=tuple(sorted(best, key=colex_index)),
        perfect=not uncovered,
        uncovered=uncovered,
    )


def dissolve_matching(
    k: Hypergraph3,
    col: Coloring,
    part: ColorPartition,
    minor_edges,
    minor: Color = Color.BLUE,
) -> tuple[tuple[Triple, ...], tuple[int, ...]]:
    """Split minor-colored matching edges and rematch the pairs major-colored.

    Every minor edge splits into its two smallest vertices (a pair) and its
    largest (a spare).  Pairs are processed in colex order; each takes the
    smallest unused spare from a *different* edge such that the resulting
    triple is an edge of k and the pair's first vertex with the spare lies
    in the major component's shadow.  All matched triples must come out
    major-colored (the exchange argument's conclusion) or the branch is
    declared inapplicable.

    Requires every minor edge inside the major core — the state the exchange
    moves leave behind when their claims are in force.
    """
    major = minor.other()
    major_info = part.major(major)
    if major_info is None:
        raise BranchInapplicableError(f"no major {major.value} component")
    core = set(part.core(major))
    minor_edges = sorted(minor_edges, key=colex_index)
    for e in minor_edges:
        if not set(e) <= core:
            raise BranchInapplicableError(
                f"minor edge {e} is not inside the {major.value} core"
            )

    pairs = []  # (pair, owner index)
    spares = []  # (vertex, owner index)
    for idx, e in enumerate(minor_edges):
        pairs.append(((e[0], e[1]), idx))
        spares.append((e[2], idx))
    pairs.sort(key=lambda item: (comb(item[0][1], 2) + item[0][0]))
    spares.sort()

    used = set()
    matched: list[Triple] = []
    matched_vertices: set[int] = set()
    for (u, v), owner in pairs:
        for w, w_owner in spares:
            if w in used or w_owner == owner:
                continue
            t = canon_triple(u, v, w)
            if not k.has_edge(t):
                continue
            if not major_info.in_shadow(u, w):
                continue
            used.add(w)
            matched.append(t)
            matched_vertices.update(t)
            break

    off_color = [t for t in matched if col.color_of(t) is not major]
    if off_color:
        raise BranchInapplicableError(
            f"dissolution produced off-{major.value} triples: {off_color}"
        )
    leftovers = tuple(sorted({v for e in minor_edges for v in e} - matched_vertices))
    return tuple(sorted(matched, key=colex_index)), leftovers


# -- the full pipeline -----------------------------------------------------------


@dataclass
class CoverResult:
    """Two disjoint monochromatic connected matchings plus bookkeeping.

    ``uncovered`` is relative to the vertices of the *original* host, so
    cleanup casualties count as uncovered.  ``covered`` is always
    |V(red)| + |V(blue)|.
    """

    red: ConnectedMatching
    blue: ConnectedMatching
    covered: int
    uncovered: tuple[int, ...]
    trace: tuple[dict, ...]


def cover(h: Hypergraph3, col: Coloring, gamma: float) -> CoverResult:
    """Full pipeline: clean -> partition -> local search -> ``verify_cover``.

    The returned result always satisfies ``verify_cover``; a result that
    fails it raises RcoverError.
    """
    k, report = clean(h, gamma)
    col_k = col if k is h else col.restrict(k)
    part = partition_vertices(col_k)
    red, blue, moves = local_search_matching(k, col_k, part)
    trace = [
        {
            "stage": "clean",
            "detail": {
                "t_before": report.t_before,
                "t_after": report.t_after,
                "deleted": list(report.deleted),
                "rounds": report.rounds,
                "deactivated_pairs": report.deactivated_pairs,
                "bound_held": report.bound_held,
            },
        },
        {"stage": "partition", "detail": {"major_red": part.major_red, "major_blue": part.major_blue}},
        *moves,
    ]
    covered_set = red.vertex_set() | blue.vertex_set()
    result = CoverResult(
        red=red,
        blue=blue,
        covered=len(covered_set),
        uncovered=tuple(sorted(h.vertices - covered_set)),
        trace=tuple(trace),
    )
    ok, diags = verify_cover(result, h, col)
    if not ok:
        raise RcoverError(f"internal: cover failed verification: {diags}")
    return result


# -- verification -----------------------------------------------------------------


def verify_cover(r: CoverResult, h: Hypergraph3, col: Coloring) -> tuple[bool, list[str]]:
    """Certificate check for cover results; returns (ok, diagnostics)."""
    diags: list[str] = []

    for m, want_color in ((r.red, Color.RED), (r.blue, Color.BLUE)):
        tag = want_color.value
        if m.color is not want_color:
            diags.append(f"{tag}: matching color field mismatch")
        seen: set[int] = set()
        for e in m.edges:
            if not h.has_edge(e):
                diags.append(f"{tag}: matching edge {e} missing from host")
                continue
            if col.color_of(e) is not m.color:
                diags.append(f"{tag}: matching edge color wrong for {e}")
            if seen & set(e):
                diags.append(f"{tag}: matching disjointness violated at {e}")
            seen.update(e)
        if list(m.edges) != sorted(m.edges, key=colex_index):
            diags.append(f"{tag}: edges not in colex order")
        expected_certs = max(0, len(m.edges) - 1)
        if len(m.certificates) != expected_certs:
            diags.append(f"{tag}: certificate count {len(m.certificates)} != {expected_certs}")
        else:
            for i, cert in enumerate(m.certificates):
                if not cert.is_valid():
                    diags.append(f"{tag}: certificate {i} pseudo-path shape invalid")
                    continue
                if cert.edges[0] != m.edges[i] or cert.edges[-1] != m.edges[i + 1]:
                    diags.append(f"{tag}: certificate {i} endpoints wrong")
                for e in cert.edges:
                    if not h.has_edge(e):
                        diags.append(f"{tag}: certificate {i} edge {e} missing from host")
                    elif col.color_of(e) is not m.color:
                        diags.append(f"{tag}: certificate color wrong at {e}")
        if m.edges and m.component_id is None:
            diags.append(f"{tag}: nonempty matching without component id")

    red_v = r.red.vertex_set()
    blue_v = r.blue.vertex_set()
    if red_v & blue_v:
        diags.append(f"disjointness violated: {sorted(red_v & blue_v)}")
    if r.covered != len(red_v) + len(blue_v):
        diags.append(f"covered count {r.covered} != {len(red_v) + len(blue_v)}")
    expected_uncovered = tuple(sorted(h.vertices - red_v - blue_v))
    if tuple(r.uncovered) != expected_uncovered:
        diags.append("uncovered set inconsistent with matchings")
    return not diags, diags
