"""Hypergraph primitives: colex indexing, links, shadow, connectivity."""

import random
from itertools import combinations
from math import comb

import pytest

from rcover.core import (
    _CHUNK_BITS,
    Color,
    Coloring,
    Hypergraph3,
    PseudoPath,
    canon_triple,
    colex_index,
    colex_inverse,
    connected_components,
    connecting_path,
    edge_neighbors,
    row_width,
    tight_adjacent,
)
from rcover.errors import InvalidPairError, NotAnEdgeError
from rcover.generators import (
    monochromatic_instance,
    planted_partition_instance,
    uniform_instance,
)

from conftest import random_coloring, random_hypergraph


# -- colex -------------------------------------------------------------------


def test_colex_smallest_triple():
    assert colex_index((0, 1, 2)) == 0


def test_colex_enumeration_position():
    # position of {1,2,3} read off an explicit colex enumeration for n=4
    order = sorted(combinations(range(4), 3), key=colex_index)
    assert order.index((1, 2, 3)) == 3
    assert colex_index((1, 2, 3)) == 3


def test_colex_roundtrip_n10():
    for t in combinations(range(10), 3):
        assert colex_inverse(colex_index(t)) == t


def test_colex_bijection_n50():
    indices = {colex_index(t) for t in combinations(range(50), 3)}
    assert indices == set(range(comb(50, 3)))


def test_colex_orders_match_iteration():
    # combinations(range(n), 3) in lexicographic order is NOT colex order
    idx = [colex_index(t) for t in sorted(combinations(range(5), 3), key=colex_index)]
    assert idx == list(range(comb(5, 3)))


def test_canon_triple():
    assert canon_triple(5, 2, 9) == (2, 5, 9)
    with pytest.raises(ValueError):
        canon_triple(1, 1, 2)


# -- shadow / link / active pairs ---------------------------------------------


def test_shadow_single_edge():
    h = Hypergraph3(3, [(0, 1, 2)])
    assert h.shadow() == {(0, 1), (0, 2), (1, 2)}


def test_shadow_empty():
    assert Hypergraph3(4, []).shadow() == set()


def test_shadow_complete_k5():
    assert len(Hypergraph3.complete(5).shadow()) == 10


def test_link_examples():
    h = Hypergraph3(4, [(0, 1, 2), (0, 1, 3)])
    assert h.link(0, 1) == {2, 3}
    assert h.link(2, 3) == set()
    k6 = Hypergraph3.complete(6)
    assert k6.link(1, 4) == {0, 2, 3, 5}


def test_link_same_vertex_error():
    h = Hypergraph3.complete(4)
    with pytest.raises(InvalidPairError):
        h.link(2, 2)
    # a vertex outside [0, n) has an empty link; a flat index would alias a row
    assert h.link(0, h.n) == set()
    assert h.link(-1, 2) == set()


def test_link_shadow_symmetry_random(rng):
    # y in N(x)  <=>  x in N(y)  <=>  N(x,y) nonempty
    for _ in range(30):
        h = random_hypergraph(rng.randint(4, 15), 0.3, rng)
        for x in range(h.n):
            for y in range(x + 1, h.n):
                in_shadow = (x, y) in h.shadow()
                assert bool(h.link(x, y)) == in_shadow
                assert bool(h.neighbor_mask(x) >> y & 1) == in_shadow
                assert bool(h.neighbor_mask(y) >> x & 1) == in_shadow


def _reference_links(h):
    """Link table built edge by edge: three dict updates per decoded edge."""
    links = {}
    for a, b, c in h.edges:
        for pair, z in (((a, b), c), ((a, c), b), ((b, c), a)):
            links[pair] = links.get(pair, 0) | (1 << z)
    return links


def _assert_flat_links(h, ref):
    """links() holds ref's mask at x * n + y and y * n + x, and 0 on the diagonal;
    link_blocks()[y] holds the same mask as its row x."""
    n, flat, blocks = h.n, h.links(), h.link_blocks()
    w = row_width(n)
    assert len(flat) == n * n and len(blocks) == n
    for x in range(n):
        assert flat[x * n + x] == 0
        assert blocks[x] >> (x * w) & ((1 << w) - 1) == 0
        for y in range(x + 1, n):
            assert flat[x * n + y] == flat[y * n + x] == ref.get((x, y), 0)
            assert blocks[y] >> (x * w) & ((1 << w) - 1) == ref.get((x, y), 0)
            assert blocks[x] >> (y * w) & ((1 << w) - 1) == ref.get((x, y), 0)
        assert blocks[x] >> (n * w) == 0


def test_pair_links_match_edge_by_edge_reference(rng):
    complete = [Hypergraph3.complete(n) for n in (0, 2, 3, 4, 9)]
    k12 = Hypergraph3.complete(12)
    induced = [k12.induced(vs) for vs in ([1, 3, 4, 8, 11], [5, 6], range(2, 12))]
    small = [Hypergraph3(7, []), Hypergraph3(7, [(2, 4, 6)]), Hypergraph3(9, [], range(3, 8))]
    hosts = [random_hypergraph(20, d, rng) for d in (0.2, 0.5, 0.8)]
    hosts += [h.induced(range(3, 17)) for h in hosts]
    for h in complete + induced + small + hosts:
        assert h.pair_links() == _reference_links(h)
        _assert_flat_links(h, _reference_links(h))


def test_color_links_match_edge_by_edge_reference(rng):
    cols = [uniform_instance(14, p, seed) for p in (0.05, 0.5, 0.95) for seed in (0, 1)]
    cols += [planted_partition_instance(15, s) for s in ([13, 1, 1], [7, 8], [6, 5, 2])]
    cols += [monochromatic_instance(9, color) for color in (Color.RED, Color.BLUE)]
    # colorings of hosts that are not complete on their vertex set
    cols += [random_coloring(random_hypergraph(20, d, rng), rng) for d in (0.2, 0.5, 0.8)]
    cols.append(cols[1].restrict(cols[1].host.induced(range(2, 13))))
    for col in cols:
        for color in (Color.RED, Color.BLUE):
            sub = col.subhypergraph(color)
            assert sub.pair_links() == _reference_links(sub)
            _assert_flat_links(sub, _reference_links(sub))


@pytest.mark.parametrize("n", [3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 90])
def test_links_match_reference_at_row_width_boundaries(n, rng):
    # the packed rows are row_width(n) = max(8, 2**k >= n) bits wide: n at,
    # just below and just above a width, on hosts and on both color classes
    cols = [uniform_instance(n, p, n) for p in (0.05, 0.5, 0.95)]
    cols.append(random_coloring(random_hypergraph(n, 0.3, rng), rng))  # not complete
    inner = [v for v in range(1, n - 1) if v % 5 != 2]  # skips 0, n - 1 and more
    cols += [col.restrict(col.host.induced(inner)) for col in (cols[1], cols[3])]
    hosts = [cols[0].host, cols[3].host, cols[4].host, cols[5].host]
    hosts += [col.subhypergraph(color) for col in cols for color in (Color.RED, Color.BLUE)]
    for h in hosts:
        _assert_flat_links(h, _reference_links(h))


def test_links_match_reference_across_transpose_chunks(rng):
    # at n = 130 the rows are 256 bits wide and the transpose takes 32 blocks
    # at a time, so the table is built in five runs of blocks
    n = 130
    assert n > _CHUNK_BITS // row_width(n) ** 2
    col = random_coloring(random_hypergraph(n, 0.02, rng), rng)
    hosts = [col.host, col.subhypergraph(Color.RED), col.subhypergraph(Color.BLUE), col.host.induced(range(3, 127))]
    for h in hosts:
        _assert_flat_links(h, _reference_links(h))


# -- storage representations ---------------------------------------------------


def test_dense_and_sparse_storage_agree(rng):
    n = 8
    all_triples = list(combinations(range(n), 3))
    dense_edges = all_triples[: int(0.8 * len(all_triples))]
    sparse_edges = all_triples[: int(0.1 * len(all_triples))]
    dense = Hypergraph3(n, dense_edges)
    sparse = Hypergraph3(n, sparse_edges)
    for h, edges in ((dense, dense_edges), (sparse, sparse_edges)):
        edge_set = set(edges)
        for t in all_triples:
            assert h.has_edge(t) == (t in edge_set)
        assert list(h.edges) == sorted(edges, key=colex_index)
        assert not h.has_edge((2, 1, 0))  # a non-canonical triple is never an edge


def test_vertex_subset_validation():
    with pytest.raises(ValueError):
        Hypergraph3(4, [(0, 1, 2)], vertices=[0, 1])
    h = Hypergraph3(5, [(0, 1, 2)], vertices=[0, 1, 2, 4])
    assert h.t == 4
    assert h.induced([0, 1, 2]).edge_count == 1
    assert h.induced([0, 1, 4]).edge_count == 0


# -- tight adjacency -----------------------------------------------------------


def test_tight_adjacent_examples():
    assert tight_adjacent((0, 1, 2), (1, 2, 3))
    assert not tight_adjacent((0, 1, 2), (0, 1, 2))
    assert not tight_adjacent((0, 1, 2), (2, 3, 4))


# -- connected components --------------------------------------------------------


def _closure_components(h):
    """Independent oracle: reflexive-transitive closure of tight adjacency
    computed on the full boolean adjacency matrix."""
    edges = list(h.edges)
    m = len(edges)
    adj = [[i == j for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if tight_adjacent(edges[i], edges[j]):
                adj[i][j] = adj[j][i] = True
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in range(m):
                if adj[i][j]:
                    for k in range(m):
                        if adj[j][k] and not adj[i][k]:
                            adj[i][k] = True
                            changed = True
    comps = []
    seen = set()
    for i in range(m):
        if i in seen:
            continue
        group = frozenset(edges[j] for j in range(m) if adj[i][j])
        seen.update(j for j in range(m) if adj[i][j])
        comps.append(group)
    return set(comps)


def test_components_complete_k5():
    comps = connected_components(Hypergraph3.complete(5))
    assert len(comps) == 1
    assert len(comps[0]) == 10


def test_components_two_singletons():
    comps = connected_components(Hypergraph3(6, [(0, 1, 2), (3, 4, 5)]))
    assert sorted(len(c) for c in comps) == [1, 1]


def test_components_sizes_two_one():
    comps = connected_components(Hypergraph3(8, [(0, 1, 2), (1, 2, 3), (5, 6, 7)]))
    assert sorted(len(c) for c in comps) == [1, 2]


def test_components_partition_property(rng):
    for _ in range(25):
        h = random_hypergraph(8, 0.25, rng)
        comps = connected_components(h)
        flat = [e for c in comps for e in c]
        assert sorted(flat) == sorted(h.edges)  # disjoint cover of the edge set
        assert {frozenset(c) for c in comps} == _closure_components(h)
        # edges in colex order, components sorted by their first edge
        assert all(list(c) == sorted(c, key=colex_index) for c in comps)
        assert [c[0] for c in comps] == sorted((c[0] for c in comps), key=colex_index)


# -- connecting paths --------------------------------------------------------------


def test_connecting_path_same_edge():
    h = Hypergraph3.complete(5)
    p = connecting_path(h, (0, 1, 2), (0, 1, 2))
    assert p.edges == ((0, 1, 2),)
    assert p.length == 1


def test_connecting_path_adjacent():
    h = Hypergraph3(4, [(0, 1, 2), (1, 2, 3)])
    p = connecting_path(h, (0, 1, 2), (1, 2, 3))
    assert p.edges == ((0, 1, 2), (1, 2, 3))


def test_connecting_path_disconnected():
    h = Hypergraph3(6, [(0, 1, 2), (3, 4, 5)])
    assert connecting_path(h, (0, 1, 2), (3, 4, 5)) is None


def test_connecting_path_not_an_edge():
    h = Hypergraph3.complete(4)
    with pytest.raises(NotAnEdgeError):
        connecting_path(h, (0, 1, 2), (4, 5, 6))


def _bfs_distance(h, e, f):
    """Independent layered distance over tight adjacency."""
    if e == f:
        return 1
    edges = list(h.edges)
    frontier = {e}
    seen = {e}
    dist = 1
    while frontier:
        dist += 1
        nxt = set()
        for g in frontier:
            for other in edges:
                if other not in seen and tight_adjacent(g, other):
                    if other == f:
                        return dist
                    nxt.add(other)
                    seen.add(other)
        frontier = nxt
    return None


def _plain_bfs_path(h, e, f):
    """Level-by-level BFS expanding every neighbor of every edge, in colex order."""
    if e == f:
        return (e,)
    parents = {e: e}
    frontier = [e]
    while frontier:
        next_frontier = []
        for g in frontier:
            for nb in sorted(edge_neighbors(h, g), key=colex_index):
                if nb in parents:
                    continue
                parents[nb] = g
                if nb == f:
                    path = [f]
                    while path[-1] != e:
                        path.append(parents[path[-1]])
                    return tuple(reversed(path))
                next_frontier.append(nb)
        frontier = next_frontier
    return None


def test_connecting_path_matches_plain_bfs(rng):
    shapes = ((9, 0.2), (11, 0.1), (13, 0.6))
    hosts = [random_hypergraph(n, p, rng) for n, p in shapes for _ in range(4)]
    hosts += [uniform_instance(14, p, s).subhypergraph(Color.RED) for p in (0.08, 0.5) for s in (0, 1)]
    lengths = set()
    for h in hosts:
        edges = list(h.edges)
        for _ in range(60):
            e, f = rng.choice(edges), rng.choice(edges)
            path = connecting_path(h, e, f)
            assert (None if path is None else path.edges) == _plain_bfs_path(h, e, f)
            lengths.add(None if path is None else path.length)
    assert {None, 1, 2, 3, 4, 5, 6} <= lengths


def test_connecting_path_shortest_and_valid(rng):
    for _ in range(20):
        h = random_hypergraph(7, 0.35, rng)
        edges = list(h.edges)
        if len(edges) < 2:
            continue
        e, f = rng.sample(edges, 2)
        p = connecting_path(h, e, f)
        expected = _bfs_distance(h, e, f)
        if p is None:
            assert expected is None
        else:
            assert p.is_valid()
            assert p.edges[0] == e and p.edges[-1] == f
            assert p.length == expected


def test_pseudo_path_validity():
    assert PseudoPath(((0, 1, 2), (1, 2, 3))).is_valid()
    assert not PseudoPath(((0, 1, 2), (2, 3, 4))).is_valid()
    assert not PseudoPath(()).is_valid()


# -- colorings ----------------------------------------------------------------------


def test_coloring_partition():
    h = Hypergraph3.complete(5)
    red = [t for i, t in enumerate(h.edges) if i % 2 == 0]
    col = Coloring(h, red)
    assert col.red | col.blue == set(h.edges)
    assert not col.red & col.blue
    for t in h.edges:
        assert col.color_of(t) is (Color.RED if t in col.red else Color.BLUE)
    assert col.subhypergraph(Color.RED).edge_count == len(red)


def test_coloring_rejects_foreign_edges():
    h = Hypergraph3(4, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Coloring(h, [(0, 1, 3)])
