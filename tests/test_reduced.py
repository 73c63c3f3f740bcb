"""Triad triangles, exact densities, reduced hypergraph construction."""

from fractions import Fraction

import pytest

from rcover.core import Color, Hypergraph3, canon_triple, mask_bits
from rcover.errors import UndefinedDensityError
from rcover.generators import uniform_instance
from rcover.reduced import (
    Triad,
    build_reduced,
    density,
    density_tuple,
    triangles,
)

def brute_triangles(p: Triad):
    """Independent enumeration over the full class product."""
    out = set()
    b01, b02, b12 = (set(b) for b in p.bip)
    for x in p.classes[0]:
        for y in p.classes[1]:
            for z in p.classes[2]:
                if (x, y) in b01 and (x, z) in b02 and (y, z) in b12:
                    out.add(canon_triple(x, y, z))
    return out

def random_triad(classes, q, rng):
    def pick(ca, cb):
        return [(x, y) for x in ca for y in cb if rng.random() < q]

    a, b, c = classes
    return Triad.build(classes, pick(a, b), pick(a, c), pick(b, c))

def test_triangles_complete_2_2_2():
    tri = triangles(Triad.complete(((0, 1), (2, 3), (4, 5))))
    assert len(tri) == 8

def test_triangles_one_empty_bipartite():
    t = Triad.build(((0, 1), (2, 3), (4, 5)), [], [(0, 4)], [(2, 4)])
    assert triangles(t) == set()

def test_triangles_match_brute_force(rng):
    classes = (tuple(range(10)), tuple(range(10, 20)), tuple(range(20, 30)))
    for _ in range(10):
        t = random_triad(classes, 0.4, rng)
        assert triangles(t) == brute_triangles(t)

def test_triad_validation():
    with pytest.raises(ValueError):
        Triad.build(((0, 1), (1, 2), (3, 4)), [], [], [])  # overlapping classes
    with pytest.raises(ValueError):
        Triad.build(((0,), (1,), (2,)), [(0, 2)], [], [])  # pair off-class

def test_density_extremes():
    classes = ((0, 1), (2, 3), (4, 5))
    p = Triad.complete(classes)
    full = Hypergraph3(6, list(triangles(p)))
    assert density(full, p) == Fraction(1)
    empty = Hypergraph3(6, [])
    assert density(empty, p) == Fraction(0)

def test_density_zero_triangles_error():
    t = Triad.build(((0, 1), (2, 3), (4, 5)), [], [], [])
    with pytest.raises(UndefinedDensityError):
        density(Hypergraph3(6, []), t)

def test_density_complement_identity_exact(rng):
    classes = (tuple(range(4)), tuple(range(4, 8)), tuple(range(8, 12)))
    col = uniform_instance(12, 0.5, 77)
    red = col.subhypergraph(Color.RED)
    blue = col.subhypergraph(Color.BLUE)
    checked = 0
    for _ in range(50):
        t = random_triad(classes, 0.6, rng)
        if not triangles(t):
            continue
        assert density(red, t) + density(blue, t) == Fraction(1)
        checked += 1
    assert checked >= 40

def test_density_tuple_single_and_idempotent(rng):
    classes = (tuple(range(3)), tuple(range(3, 6)), tuple(range(6, 9)))
    p = Triad.complete(classes)
    h = Hypergraph3(9, [t for i, t in enumerate(sorted(triangles(p))) if i % 3 != 0])
    assert density_tuple(h, [p]) == density(h, p)
    assert density_tuple(h, [p, p]) == density(h, p)

def test_density_tuple_split_matches_enumeration(rng):
    classes = (tuple(range(3)), tuple(range(3, 6)), tuple(range(6, 9)))
    p = Triad.complete(classes)
    h = Hypergraph3(9, [t for i, t in enumerate(sorted(triangles(p))) if i % 2 == 0])
    all01 = list(p.bip[0])
    rng.shuffle(all01)
    half = len(all01) // 2
    q1 = p.subgraph(all01[:half], p.bip[1], p.bip[2])
    q2 = p.subgraph(all01[half:], p.bip[1], p.bip[2])
    union = triangles(q1) | triangles(q2)
    expected = Fraction(sum(1 for t in union if h.has_edge(t)), len(union))
    assert density_tuple(h, [q1, q2]) == expected

def test_density_tuple_requires_shared_classes():
    p = Triad.complete(((0,), (1,), (2,)))
    q = Triad.complete(((3,), (4,), (5,)))
    with pytest.raises(ValueError):
        density_tuple(Hypergraph3(6, []), [p, q])

# -- build_reduced -------------------------------------------------------------

def _partition_classes(t, size):
    return [tuple(range(i * size, (i + 1) * size)) for i in range(t)]

def _complete_bip(classes):
    out = {}
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            out[(i, j)] = [(x, y) for x in classes[i] for y in classes[j]]
    return out

def test_build_reduced_all_red():
    classes = _partition_classes(3, 2)
    bip = _complete_bip(classes)
    h_red = Hypergraph3.complete(6)
    r = build_reduced(classes, bip, h_red)
    assert r.edges == ((0, 1, 2),)
    assert r.colors[(0, 1, 2)] is Color.RED
    assert r.densities[(0, 1, 2)] == Fraction(1)

def test_build_reduced_boundary_goes_red():
    # exactly half the triangles red -> density 1/2 -> red by the boundary rule
    classes = _partition_classes(3, 2)
    bip = _complete_bip(classes)
    tri = sorted(triangles(Triad.complete(classes)))
    h_red = Hypergraph3(6, tri[: len(tri) // 2])
    r = build_reduced(classes, bip, h_red)
    assert r.densities[(0, 1, 2)] == Fraction(1, 2)
    assert r.colors[(0, 1, 2)] is Color.RED

def test_build_reduced_random_matches_recomputation(rng):
    t, size = 6, 5
    classes = _partition_classes(t, size)
    n = t * size
    col = uniform_instance(n, 0.5, 31)
    h_red = col.subhypergraph(Color.RED)
    bip = {}
    for i in range(t):
        for j in range(i + 1, t):
            bip[(i, j)] = [
                (x, y) for x in classes[i] for y in classes[j] if rng.random() < 0.7
            ]
    r = build_reduced(classes, bip, h_red)
    for ijk in r.edges:
        i, j, k = ijk
        tri = brute_triangles(
            Triad.build(
                (classes[i], classes[j], classes[k]),
                bip[(i, j)],
                bip[(i, k)],
                bip[(j, k)],
            )
        )
        d = Fraction(sum(1 for x in tri if h_red.has_edge(x)), len(tri))
        assert r.densities[ijk] == d
        assert r.colors[ijk] is (Color.RED if d >= Fraction(1, 2) else Color.BLUE)

def test_build_reduced_regular_flags():
    classes = _partition_classes(4, 2)
    bip = _complete_bip(classes)
    h_red = Hypergraph3.complete(8)
    r = build_reduced(classes, bip, h_red, regular_flags=[(0, 1, 2), (1, 2, 3)])
    assert r.edges == ((0, 1, 2), (1, 2, 3))

def test_build_reduced_flag_without_triangles_errors():
    classes = _partition_classes(3, 2)
    bip = _complete_bip(classes)
    bip[(0, 1)] = []
    with pytest.raises(UndefinedDensityError):
        build_reduced(classes, bip, Hypergraph3.complete(6), regular_flags=[(0, 1, 2)])

def test_build_reduced_skips_triangle_free_triples():
    classes = _partition_classes(3, 2)
    bip = _complete_bip(classes)
    bip[(0, 1)] = []
    r = build_reduced(classes, bip, Hypergraph3.complete(6))
    assert r.edges == ()

# -- toy regularity checker ------------------------------------------------------

EPS_REGULAR_CAP = 12


def eps_regular_toy(pairs, xs, ys, d: Fraction, eps: Fraction) -> bool:
    """Direct-definition (d, eps)-regularity check for toy bipartite graphs.

    Examines every X' x Y' with |X'| > eps|X| and |Y'| > eps|Y| and tests
    |d(X', Y') - d| < eps exactly.  Capped at 12 vertices per side.
    """
    xs = sorted(xs)
    ys = sorted(ys)
    if len(xs) > EPS_REGULAR_CAP or len(ys) > EPS_REGULAR_CAP:
        raise ValueError(f"toy checker capped at {EPS_REGULAR_CAP} per side")
    ypos = {y: i for i, y in enumerate(ys)}
    row = [0] * len(xs)
    for i, x in enumerate(xs):
        for a, b in pairs:
            if a == x and b in ypos:
                row[i] |= 1 << ypos[b]
            elif b == x and a in ypos:
                row[i] |= 1 << ypos[a]
    min_x = eps * len(xs)
    min_y = eps * len(ys)
    for xm in range(1, 1 << len(xs)):
        kx = xm.bit_count()
        if kx <= min_x:
            continue
        rows = [row[i] for i in mask_bits(xm)]
        for ym in range(1, 1 << len(ys)):
            ky = ym.bit_count()
            if ky <= min_y:
                continue
            edge_count = sum((r & ym).bit_count() for r in rows)
            dd = Fraction(edge_count, kx * ky)
            if abs(dd - d) >= eps:
                return False
    return True


def test_eps_regular_complete_bipartite():
    xs, ys = range(6), range(6, 12)
    pairs = [(x, y) for x in xs for y in ys]
    assert eps_regular_toy(pairs, xs, ys, Fraction(1), Fraction(1, 4))

def test_eps_regular_detects_irregularity():
    # half graph: dense on one side, empty on the other
    xs, ys = range(6), range(6, 12)
    pairs = [(x, y) for x in range(3) for y in ys]
    d = Fraction(len(pairs), 36)
    assert not eps_regular_toy(pairs, xs, ys, d, Fraction(1, 4))

def test_eps_regular_cap():
    xs = range(13)
    with pytest.raises(ValueError):
        eps_regular_toy([], xs, range(13, 20), Fraction(0), Fraction(1, 2))
