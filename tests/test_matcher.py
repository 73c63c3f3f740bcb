"""Pipeline stages: cleanup, majors, exchange search, the residual steps, cover."""

import gc
import hashlib
import random
import re
from itertools import combinations

import pytest

from rcover.core import (
    Color,
    Coloring,
    Hypergraph3,
    PseudoPath,
    colex_index,
    decode_edges,
)
from rcover.errors import BranchInapplicableError, CleanupExhaustedError
from rcover.formats import canonical_json, cover_to_json
from rcover.generators import (
    monochromatic_instance,
    planted_partition_instance,
    uniform_instance,
)
from rcover.matcher import (
    CoverResult,
    build_matching,
    check_clean_properties,
    clean,
    cover,
    delta_of,
    dissolve_matching,
    local_search_matching,
    mono_connecting_path,
    partition_vertices,
    perfect_matching_dense,
    residual_component,
    verify_cover,
)
from rcover.oracle import _color_components, _component_masks, oracle_matching_cover, oracle_perfect_matching

from conftest import random_coloring, random_hypergraph

GAMMA_DESK = 1e-3  # delta > 1: cleanup is a no-op on dense hosts
GAMMA_THIRD = (1 / 30) ** 6  # delta = 1/3


# -- delta ---------------------------------------------------------------------


def test_params_delta_identity():
    for gamma in (1e-3, 1e-6, 0.5, 1e-12):
        assert abs(delta_of(gamma) - 10 * gamma ** (1 / 6)) < 1e-12
    assert delta_of(1e-6) == pytest.approx(1.0)


def test_params_gamma_validation():
    for bad in (0.0, 1.0, -1e-3, 2.0):
        with pytest.raises(ValueError):
            delta_of(bad)


# -- clean -------------------------------------------------------------------


def test_clean_complete_k9_unchanged():
    h = Hypergraph3.complete(9)
    k, report = clean(h, GAMMA_DESK)
    assert k.t == 9 and k.edge_count == h.edge_count
    assert report.deleted == () and report.bound_held
    assert k is h  # nothing deleted: the input host comes back


def test_clean_deletes_isolated_vertex():
    edges = list(combinations(range(5), 3))
    h = Hypergraph3(6, edges)  # vertex 5 touches nothing
    k, report = clean(h, GAMMA_DESK)
    assert 5 not in k.vertices
    assert report.deleted == (5,)


def test_clean_k9_minus_pair_fixpoint():
    # remove all edges through {0,1}; with delta = 1/3 the threshold is 6 and
    # every remaining link (6 or 7) passes, so the input is already a fixpoint
    edges = [t for t in combinations(range(9), 3) if not {0, 1} <= set(t)]
    h = Hypergraph3(9, edges)
    k, report = clean(h, GAMMA_THIRD)
    assert k.t == 9 and k.edge_count == len(edges)
    assert (0, 1) not in k.shadow()
    ok, problems = check_clean_properties(k, GAMMA_THIRD)
    assert ok, problems


def test_clean_exhausts_with_tiny_delta():
    # delta = 0.01 demands links of ceil(0.99 * 9) = 9 > 7: everything dies
    gamma = (0.001) ** 6
    h = Hypergraph3.complete(9)
    with pytest.raises(CleanupExhaustedError) as exc:
        clean(h, gamma)
    assert exc.value.report is not None
    assert exc.value.report.t_after == 0


def test_clean_iterates_to_fixpoint():
    # delta = 1/3, n = 12: threshold 8.  A K12 missing many edges at one
    # vertex forces deactivations that cascade; the checker must pass
    rng = random.Random(5)
    edges = [
        t
        for t in combinations(range(12), 3)
        if not (0 in t and rng.random() < 0.8)
    ]
    h = Hypergraph3(12, edges)
    try:
        k, _ = clean(h, GAMMA_THIRD)
    except CleanupExhaustedError:
        return
    ok, problems = check_clean_properties(k, GAMMA_THIRD)
    assert ok, problems


def test_clean_fixpoint_random_near_complete(rng):
    for trial in range(40):
        n = rng.randint(8, 20)
        drop = rng.randint(0, 3)
        all_t = list(combinations(range(n), 3))
        removed = set(rng.sample(all_t, drop))
        h = Hypergraph3(n, [t for t in all_t if t not in removed])
        k, _ = clean(h, GAMMA_DESK)
        ok, problems = check_clean_properties(k, GAMMA_DESK)
        assert ok, problems


# -- partition ------------------------------------------------------------------


def test_partition_all_red():
    col = monochromatic_instance(8, Color.RED)
    part = partition_vertices(col)
    assert part.major_red is not None and part.major_blue is None
    assert list(part.components) == [part.major_red]
    assert part.core(Color.RED) == tuple(range(8))
    assert part.core(Color.BLUE) == ()


def test_partition_vertex_sign_example():
    # edges inside {0..4} red, everything else blue: the red K5 is the red
    # major, and the blue component, which every pair reaches, the blue one
    host = Hypergraph3.complete(10)
    inner = set(range(5))
    red = [t for t in host.edges if set(t) <= inner]
    col = Coloring(host, red)
    part = partition_vertices(col)
    assert part.core(Color.RED) == tuple(range(5))
    assert part.core(Color.BLUE) == tuple(range(10))
    # independent check of the blue major's vertex count
    blue_sub = col.subhypergraph(Color.BLUE)
    for x in range(10):
        assert blue_sub.neighbor_mask(x).bit_count() == 9


def test_partition_tie_prefers_red():
    # one red edge and one blue edge on disjoint vertex sets: each is its
    # color's major, and vertex 6, in no edge, is in neither core
    h = Hypergraph3(7, [(0, 1, 2), (3, 4, 5)])
    part = partition_vertices(Coloring(h, [(0, 1, 2)]))
    assert (part.major_red, part.major_blue) == ("R:0", "B:19")
    assert part.core(Color.RED) == (0, 1, 2) and part.core(Color.BLUE) == (3, 4, 5)
    # both edges red: two red components tie on vertices and edges, and
    # the first in component order wins
    part = partition_vertices(Coloring(h, h.edges))
    assert list(part.components) == ["R:0", "R:19"]
    assert (part.major_red, part.major_blue) == ("R:0", None)


def test_partition_major_is_the_largest_component():
    # red: a K4 on {0..3} (4 vertices, 4 edges) and a tight path on
    # {4..8} (5 vertices, 3 edges); blue: everything else
    host = Hypergraph3.complete(9)
    path = [(4, 5, 6), (5, 6, 7), (6, 7, 8)]
    red = [t for t in host.edges if set(t) <= {0, 1, 2, 3}] + path
    part = partition_vertices(Coloring(host, red))
    assert part.core(Color.RED) == (4, 5, 6, 7, 8)
    # with (0, 1, 8) both have 5 vertices; the path, grown to 6 edges,
    # beats the K4's 5 although it comes later in component order
    more = red + [(0, 1, 8), (4, 5, 7), (4, 6, 7), (5, 6, 8)]
    part = partition_vertices(Coloring(host, more))
    assert part.core(Color.RED) == (4, 5, 6, 7, 8)
    assert list(part.components).index(part.major_red) == 1


def _split_link_graph(edges) -> bool:
    """True iff some vertex u has a disconnected link graph {zw : uzw an edge}."""
    graphs: dict[int, dict[int, set[int]]] = {}
    for e in edges:
        for u in e:
            z, w = (v for v in e if v != u)
            graphs.setdefault(u, {}).setdefault(z, set()).add(w)
            graphs[u].setdefault(w, set()).add(z)
    for adj in graphs.values():
        reached, todo = set(), [next(iter(adj))]
        while todo:
            z = todo.pop()
            if z not in reached:
                reached.add(z)
                todo += adj[z]
        if len(reached) < len(adj):
            return True
    return False


def test_partition_components_match_a_union_find_reference(rng):
    # each component's edges, neighbor masks and order are those of an
    # edge-level union-find (oracle._color_components), with the neighbor
    # masks read off the component's edges
    host = Hypergraph3.complete(7)
    # red 012-123-234-034 is one component, though the link graph of 0 is
    # {12, 34}: two parts glued only through pairs away from 0
    glued = Coloring(host, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)])
    cols = [glued, planted_partition_instance(15, [6, 5, 2]), uniform_instance(9, 0.9, 4)]
    cols += [random_coloring(random_hypergraph(12, d, rng), rng) for d in (0.1, 0.15, 0.15, 0.3)]
    cols += [uniform_instance(16, p, seed) for p in (0.05, 0.95) for seed in range(3)]
    reached = set()
    for col in cols:
        part = partition_vertices(col)
        expected = {}
        for color in (Color.RED, Color.BLUE):
            comps = _color_components(col, color)
            for comp in comps:
                masks = {}
                for e in comp:
                    for v in e:
                        masks[v] = masks.get(v, 0) | sum(1 << x for x in e if x != v)
                expected[f"{color.value}:{colex_index(comp[0])}"] = (comp, masks)
                if _split_link_graph(comp):
                    reached.add("split, one component" if len(comps) == 1 else "split, several components")
        got = {
            cid: (decode_edges(info.edge_bits), info.neighbor_masks) for cid, info in part.components.items()
        }
        assert list(got.items()) == list(expected.items())  # same order too
    assert reached == {"split, one component", "split, several components"}


# -- good edges -------------------------------------------------------------------


def _two_sided_instance():
    """Complete K9: red = triples with >= 2 vertices in {0..4}, plus {6,7,8}.

    Both colors' largest components span all nine vertices, so both majors
    exist.  {6,7,8} is a second, minor red component.
    """
    inner = set(range(5))
    host = Hypergraph3.complete(9)
    red = [t for t in host.edges if len(set(t) & inner) >= 2] + [(6, 7, 8)]
    return host, Coloring(host, red)


def test_good_edge_witness():
    # the good edges are the edges of the two majors: all but {6,7,8}
    host, col = _two_sided_instance()
    part = partition_vertices(col)
    red, blue = part.major(Color.RED), part.major(Color.BLUE)
    good = set(decode_edges(red.edge_bits | blue.edge_bits))
    assert good == set(host.edges) - {(6, 7, 8)}
    assert {(0, 1, 2), (0, 1, 6), (0, 5, 6)} <= good
    _, _, moves = local_search_matching(host, col, part)
    assert {tuple(t) for ev in moves for t in ev["detail"]["added"]} <= good


# -- local search ------------------------------------------------------------------


def test_local_search_all_red_k6_perfect():
    col = monochromatic_instance(6, Color.RED)
    part = partition_vertices(col)
    red_m, blue_m, _ = local_search_matching(col.host, col, part)
    assert red_m.edges == ((0, 1, 2), (3, 4, 5))
    assert blue_m.edges == ()


def test_local_search_all_red_k7_leaves_one():
    col = monochromatic_instance(7, Color.RED)
    part = partition_vertices(col)
    red_m, blue_m, _ = local_search_matching(col.host, col, part)
    assert red_m.covered() == 6 and blue_m.covered() == 0


def test_local_search_one_for_two_move_fires():
    host, col = _two_sided_instance()
    res = cover(host, col, GAMMA_DESK)
    kinds = [ev["detail"].get("kind") for ev in res.trace if ev["stage"] == "move"]
    assert "one-for-two" in kinds
    assert res.covered == 9
    ok, diags = verify_cover(res, host, col)
    assert ok, diags


def test_local_search_two_for_three_move_fires():
    red_edges = [(0, 1, 2), (3, 4, 5), (0, 3, 6), (0, 1, 3), (1, 3, 4)]
    blue_edges = [(1, 2, 7), (4, 5, 8), (2, 7, 8), (4, 7, 8)]
    h = Hypergraph3(9, red_edges + blue_edges)
    col = Coloring(h, red_edges)
    part = partition_vertices(col)
    red_m, blue_m, moves = local_search_matching(h, col, part)
    kinds = [m["detail"]["kind"] for m in moves]
    assert kinds == ["greedy-add", "greedy-add", "two-for-three"]
    assert red_m.edges == ((0, 3, 6),)
    assert blue_m.edges == ((1, 2, 7), (4, 5, 8))


def test_local_search_trace_monotone(rng):
    for seed in range(30):
        col = uniform_instance(9, 0.5, seed)
        res = cover(col.host, col, GAMMA_DESK)
        covers = [
            ev["detail"]["covered"] for ev in res.trace if ev["stage"] == "move"
        ]
        assert covers == sorted(covers)
        assert len(set(covers)) == len(covers)  # strict increase
        assert len(covers) <= col.host.t // 3 + col.host.t


def test_local_search_within_oracle_slack(rng):
    for seed in range(60):
        col = uniform_instance(7, 0.5, seed)
        res = cover(col.host, col, GAMMA_DESK)
        assert res.covered == oracle_matching_cover(col.host, col).optimum


# -- certificates -------------------------------------------------------------------


def test_mono_connecting_path_patterns(rng):
    col = monochromatic_instance(9, Color.RED)
    sub = col.subhypergraph(Color.RED)
    for e, f in (((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (1, 2, 3)),
                 ((0, 1, 2), (2, 3, 4)), ((0, 1, 2), (3, 4, 5))):
        p = mono_connecting_path(sub, e, f)
        assert p.is_valid()
        assert p.edges[0] == e and p.edges[-1] == f


def test_mono_connecting_path_sparse_falls_back_to_bfs():
    # a long thin chain: only BFS can thread it
    chain = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)]
    h = Hypergraph3(8, chain)
    p = mono_connecting_path(h, chain[0], chain[-1])
    assert p is not None and p.is_valid()
    assert p.length == 6


def test_build_matching_certificates_verify():
    col = uniform_instance(9, 0.5, 17)
    res = cover(col.host, col, GAMMA_DESK)
    for m in (res.red, res.blue):
        assert len(m.certificates) == max(0, len(m.edges) - 1)
        for cert in m.certificates:
            assert cert.is_valid()
            for e in cert.edges:
                assert col.color_of(e) is m.color


# -- residual component ---------------------------------------------------------------


def _bridge_instance(n, n_outside):
    """Triples inside S = {0..n-n_outside-1} blue, everything else red."""
    host = Hypergraph3.complete(n)
    s = set(range(n - n_outside))
    red = [t for t in host.edges if not set(t) <= s]
    return host, Coloring(host, red)


def test_residual_component_all_blue_nine():
    # red covers {0,1,13},{2,3,14}; the rest of the red core (all 15
    # vertices) is {4..12}, an all-blue complete K9: the whole thing comes
    # back untrimmed
    host, col = _bridge_instance(15, 2)
    part = partition_vertices(col)
    red_m = build_matching(col, Color.RED, [(0, 1, 13), (2, 3, 14)], part.major_red)
    blue_m = build_matching(col, Color.BLUE, [], None)
    assert red_m.vertex_set() == {0, 1, 2, 3, 13, 14}
    b, trimmed, info = residual_component(host, col, part, red_m, blue_m)
    assert b.vertices == frozenset(range(4, 13))
    assert trimmed == ()
    assert info["anchor"] == [4, 5, 6]


def test_residual_component_trims_largest_id():
    host, col = _bridge_instance(16, 2)  # residual core {4..13}: 10 vertices
    part = partition_vertices(col)
    red_m = build_matching(col, Color.RED, [(0, 1, 14), (2, 3, 15)], part.major_red)
    blue_m = build_matching(col, Color.BLUE, [], None)
    b, trimmed, _ = residual_component(host, col, part, red_m, blue_m)
    assert trimmed == (13,)
    assert b.vertices == frozenset(range(4, 13))
    assert b.t % 3 == 0


def test_residual_component_picks_anchor_component():
    # blue edges form two separate cliques inside the residual; only the
    # anchor's component comes back
    host = Hypergraph3.complete(13)
    blue = [t for t in host.edges if set(t) <= {4, 5, 6} or set(t) <= {8, 9, 10}]
    col = Coloring(host, [t for t in host.edges if t not in set(blue)])
    part = partition_vertices(col)
    red_m = build_matching(col, Color.RED, [(0, 1, 2), (3, 7, 11)], part.major_red)
    blue_m = build_matching(col, Color.BLUE, [], None)
    b, trimmed, info = residual_component(host, col, part, red_m, blue_m)
    assert info["anchor"] == [4, 5, 6]
    assert b.vertices == frozenset({4, 5, 6})
    assert trimmed == ()


def test_residual_component_no_blue_edge_errors():
    col = monochromatic_instance(9, Color.RED)
    part = partition_vertices(col)
    red_m = build_matching(col, Color.RED, [(0, 1, 2)], part.major_red)
    blue_m = build_matching(col, Color.BLUE, [], None)
    with pytest.raises(BranchInapplicableError):
        residual_component(col.host, col, part, red_m, blue_m)


# -- perfect matching -------------------------------------------------------------------


def test_perfect_matching_complete_k6():
    pm = perfect_matching_dense(Hypergraph3.complete(6))
    assert pm.perfect
    assert pm.matching == ((0, 1, 2), (3, 4, 5))


def test_perfect_matching_absent():
    edges = list(combinations(range(4), 3))
    h = Hypergraph3(6, edges)  # vertices 4,5 uncoverable
    pm = perfect_matching_dense(h)
    assert not pm.perfect
    assert len(pm.matching) == 1
    assert set(pm.uncovered) >= {4, 5}


def test_perfect_matching_precondition():
    with pytest.raises(ValueError):
        perfect_matching_dense(Hypergraph3.complete(7))


def test_perfect_matching_agrees_with_oracle(rng):
    # at densities 0.1 and 0.3 perfect matchings are often absent, so the
    # size of the maximum matching is checked against an exhaustive count
    for density in (0.1, 0.3, 0.8):
        for trial in range(100):
            edges = [t for t in combinations(range(12), 3) if rng.random() < density]
            h = Hypergraph3(12, edges)
            pm = perfect_matching_dense(h)
            assert pm.perfect == oracle_perfect_matching(h)
            masks, _ = _component_masks(h.edges)
            assert 3 * len(pm.matching) == max(m.bit_count() for m in masks)
            covered = set()
            for e in pm.matching:
                assert not covered & set(e)
                covered.update(e)
            assert sorted(set(range(12)) - covered) == list(pm.uncovered)


# -- dissolution ---------------------------------------------------------------------


def test_dissolve_empty():
    col = uniform_instance(6, 0.5, 0)
    part = partition_vertices(col)
    assert dissolve_matching(col.host, col, part, []) == ((), ())


def test_dissolve_single_edge_leftovers():
    # one blue edge: its pair may only take its own spare, recreating the blue
    # edge, which cannot be major-colored -> everything is left over
    host = Hypergraph3.complete(6)
    col = Coloring(host, [t for t in host.edges if t != (0, 1, 2)])
    part = partition_vertices(col)
    matched, leftovers = dissolve_matching(host, col, part, [(0, 1, 2)])
    assert matched == ()
    assert leftovers == (0, 1, 2)


def test_dissolve_two_edges_rematch():
    host = Hypergraph3.complete(9)
    col = Coloring(host, [t for t in host.edges if t not in {(0, 1, 2), (3, 4, 5)}])
    part = partition_vertices(col)
    matched, leftovers = dissolve_matching(host, col, part, [(0, 1, 2), (3, 4, 5)])
    assert matched == ((2, 3, 4), (0, 1, 5))
    assert leftovers == ()
    for t in matched:
        assert col.color_of(t) is Color.RED


def test_dissolve_requires_core_membership():
    host, col = _bridge_instance(15, 2)  # blue core {0..12}, red core V
    part = partition_vertices(col)
    assert part.core(Color.BLUE) == tuple(range(13))
    # dissolving red edges into blue: an edge outside the blue core must raise
    with pytest.raises(BranchInapplicableError):
        dissolve_matching(host, col, part, [(4, 5, 13)], minor=Color.RED)


# -- cover ---------------------------------------------------------------------------


def test_cover_all_red_k12_and_k13():
    for n, want in ((12, 12), (13, 12)):
        col = monochromatic_instance(n, Color.RED)
        res = cover(col.host, col, 1e-6)
        assert res.covered == want
        assert res.blue.edges == ()
        ok, diags = verify_cover(res, col.host, col)
        assert ok, diags


def test_cover_monochromatic_blue():
    col = monochromatic_instance(10, Color.BLUE)
    res = cover(col.host, col, GAMMA_DESK)
    assert res.covered == 9
    assert res.red.edges == ()
    assert len(res.blue.edges) == 3


def test_cover_random_valid_and_within_slack(rng):
    for seed in range(100):
        col = uniform_instance(8, 0.5, seed)
        res = cover(col.host, col, GAMMA_DESK)
        ok, diags = verify_cover(res, col.host, col)
        assert ok, diags
        assert res.covered == oracle_matching_cover(col.host, col).optimum


def test_cover_uncovered_accounting():
    col = uniform_instance(9, 0.5, 12)
    res = cover(col.host, col, GAMMA_DESK)
    assert res.covered + len(res.uncovered) == 9
    assert res.covered == len(res.red.vertex_set()) + len(res.blue.vertex_set())


def test_cover_propagates_cleanup_exhaustion():
    col = uniform_instance(8, 0.5, 1)
    with pytest.raises(CleanupExhaustedError):
        cover(col.host, col, (0.001) ** 6)  # delta = 0.01 kills K8


def _stranded_clique():
    """K60 with the triples inside S = {0..51} blue, the rest red; delta = 0.0375.

    The red component spans all 60 vertices and the blue clique 52.  Each
    red edge holds at least one of the 8 vertices outside S, so red alone
    covers at most 24: a full cover needs both majors.  The returned gamma
    is the one at which the residual branch of the covering argument
    applies.
    """
    host = Hypergraph3.complete(60)
    s = set(range(52))
    red = [t for t in host.edges if not set(t) <= s]
    return host, Coloring(host, red), (0.0375 / 10) ** 6


def test_cover_residual_branch_end_to_end():
    # local search grows both majors and covers the host at either gamma
    host, col, branch_gamma = _stranded_clique()
    for gamma in (GAMMA_DESK, branch_gamma):
        res = cover(host, col, gamma)
        assert res.covered == 60
        assert len(res.red.edges) == 3
        assert len(res.blue.edges) == 17
        assert [ev["stage"] for ev in res.trace[:2]] == ["clean", "partition"]
        assert {ev["stage"] for ev in res.trace[2:]} == {"move"}
        ok, diags = verify_cover(res, host, col)
        assert ok, diags


def test_cover_residual_branch_leaves_no_reference_cycles():
    # objects in reference cycles outlive their last use until the cyclic
    # collector runs, which a run that allocates little seldom triggers
    host, col, gamma = _stranded_clique()
    clique = col.subhypergraph(Color.BLUE).induced(range(16, 52))
    gc.collect()
    gc.disable()
    try:
        res = cover(host, col, gamma)
        pm = perfect_matching_dense(clique)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert res.covered == 60
    assert pm.perfect and len(pm.matching) == 12


def test_cover_early_exit_logged_at_desk_scale():
    # the pipeline ends at local search: after clean and partition the
    # trace holds only moves
    col = uniform_instance(8, 0.5, 7)
    res = cover(col.host, col, GAMMA_DESK)
    stages = [ev["stage"] for ev in res.trace]
    assert stages[:2] == ["clean", "partition"]
    assert set(stages[2:]) == {"move"}
    assert res.covered == oracle_matching_cover(col.host, col).optimum


TRACE_KEYS = {  # the vocabulary documented in rcover.formats
    "clean": {"t_before", "t_after", "deleted", "rounds", "deactivated_pairs", "bound_held"},
    "partition": {"major_red", "major_blue"},
    "move": {"kind", "removed", "added", "covered"},
}


def test_cover_trace_uses_the_documented_vocabulary():
    import rcover.formats

    rng = random.Random(0)
    sparse = random_coloring(random_hypergraph(36, 0.2, rng), rng)  # fires one-for-two
    _, strand, strand_gamma = _stranded_clique()
    runs = [(uniform_instance(12, 0.5, 3), GAMMA_DESK), (sparse, GAMMA_DESK), (strand, strand_gamma)]
    seen = set()
    for col, gamma in runs:
        trace = cover(col.host, col, gamma).trace
        stages = [ev["stage"] for ev in trace]
        assert stages[:2] == ["clean", "partition"]
        assert set(stages[2:]) <= {"move"}
        for ev in trace:
            assert ev["detail"].keys() == TRACE_KEYS[ev["stage"]], ev
            seen.add(ev["detail"].get("kind", ev["stage"]))
    assert {"greedy-add", "one-for-two"} <= seen
    documented = re.findall(r"^    \* ``([a-z-]+)``:", rcover.formats.__doc__, re.M)
    assert documented == list(TRACE_KEYS)


# -- exactness and coverage ----------------------------------------------------------


def test_cover_uniform_hosts_are_exact():
    for n in (12, 24, 36):
        for seed in range(40):
            col = uniform_instance(n, 0.5, seed)
            for gamma in (1e-3, 1e-6):
                assert cover(col.host, col, gamma).covered == 3 * (col.host.t // 3), (n, seed, gamma)


@pytest.mark.parametrize("sizes", [[28, 1, 1], [15, 15], [10, 10, 10], [20, 10], [12, 12, 6]])
def test_cover_planted_n30_covers_every_vertex(sizes):
    col = planted_partition_instance(30, sizes)
    res = cover(col.host, col, GAMMA_DESK)
    assert res.covered == 30
    ok, diags = verify_cover(res, col.host, col)
    assert ok, diags


@pytest.mark.parametrize("n, p", [(9, 0.5), (9, 0.8), (9, 0.95), (10, 0.5)])
def test_cover_equals_oracle(n, p):
    for seed in range(60):
        col = uniform_instance(n, p, seed)
        assert cover(col.host, col, GAMMA_DESK).covered == oracle_matching_cover(col.host, col).optimum, seed


def _pinned_sample():
    """(coloring, gamma) pairs whose cover outputs are pinned by digest."""
    sample = [(uniform_instance(n, 0.5, seed), gamma) for n in (12, 24, 36) for seed in range(3)
              for gamma in (1e-3, 1e-6)]
    sample += [(planted_partition_instance(30, sizes), GAMMA_DESK)
               for sizes in ([28, 1, 1], [15, 15], [10, 10, 10], [20, 10], [12, 12, 6])]
    _, strand, branch_gamma = _stranded_clique()
    sample += [(strand, GAMMA_DESK), (strand, branch_gamma)]
    for seed in (1, 2):
        rng = random.Random(seed)
        sample.append((random_coloring(random_hypergraph(20, 0.3, rng), rng), GAMMA_DESK))
    return sample


COVER_DIGEST = "c9b9c84e743f11a96cdcad1f21257258a6192d2f92bff197530878c0899d8e1b"


def test_cover_outputs_are_pinned():
    digest = hashlib.sha256()
    for col, gamma in _pinned_sample():
        digest.update(canonical_json(cover_to_json(cover(col.host, col, gamma))).encode())
    assert digest.hexdigest() == COVER_DIGEST


# -- verify_cover diagnostics -----------------------------------------------------------


def _valid_result():
    # seed 15 yields one red and one blue matching edge
    col = uniform_instance(8, 0.5, 15)
    return col, cover(col.host, col, GAMMA_DESK)


def test_verify_cover_passes_pipeline_output():
    col, res = _valid_result()
    ok, diags = verify_cover(res, col.host, col)
    assert ok and not diags


def test_verify_cover_detects_certificate_color():
    # all-red K9: the certificate between two disjoint matching edges has
    # interior edges; recoloring one must trip the certificate color check
    col = monochromatic_instance(9, Color.RED)
    res = cover(col.host, col, GAMMA_DESK)
    interior = None
    for cert in res.red.certificates:
        for e in cert.edges[1:-1]:
            if e not in res.red.edges:
                interior = e
                break
        if interior:
            break
    assert interior is not None
    flipped = Coloring(col.host, col.red - {interior})
    ok, diags = verify_cover(res, col.host, flipped)
    assert not ok
    assert any("certificate color" in d for d in diags)


def test_verify_cover_detects_overlap():
    from rcover.matcher import ConnectedMatching

    col, res = _valid_result()
    assert res.red.edges and res.blue.edges
    shared = res.red.edges[0]
    overlap_blue = ConnectedMatching(
        color=Color.BLUE,
        edges=tuple(sorted(res.blue.edges + (shared,), key=colex_index)),
        component_id=res.blue.component_id,
        certificates=res.blue.certificates,
    )
    bad = CoverResult(
        red=res.red,
        blue=overlap_blue,
        covered=res.covered,
        uncovered=res.uncovered,
        trace=res.trace,
    )
    ok, diags = verify_cover(bad, col.host, col)
    assert not ok
    assert any("disjointness" in d for d in diags)


def test_verify_cover_detects_bad_counts():
    col, res = _valid_result()
    bad = CoverResult(
        red=res.red,
        blue=res.blue,
        covered=res.covered + 1,
        uncovered=res.uncovered,
        trace=res.trace,
    )
    ok, diags = verify_cover(bad, col.host, col)
    assert not ok
    assert any("covered count" in d for d in diags)


def test_verify_cover_detects_broken_pseudo_path():
    from rcover.matcher import ConnectedMatching

    col = monochromatic_instance(9, Color.RED)
    res = cover(col.host, col, GAMMA_DESK)
    target = res.red
    assert len(target.edges) == 3
    # (0,1,2) and (3,4,5) are disjoint, so pretending they are tight-adjacent
    # breaks the pseudo-path shape
    broken = ConnectedMatching(
        color=target.color,
        edges=target.edges,
        component_id=target.component_id,
        certificates=(PseudoPath((target.edges[0], target.edges[1])),)
        + target.certificates[1:],
    )
    res2 = CoverResult(
        red=broken,
        blue=res.blue,
        covered=res.covered,
        uncovered=res.uncovered,
        trace=res.trace,
    )
    ok, diags = verify_cover(res2, col.host, col)
    assert not ok
    assert any("pseudo-path shape" in d for d in diags)
