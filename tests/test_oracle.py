"""Brute-force oracles: exactness, caps, witness validity, determinism."""

from itertools import combinations

import pytest

from rcover.core import Color, Coloring, Hypergraph3
from rcover.errors import InstanceTooLargeError
from rcover.generators import monochromatic_instance, uniform_instance
from rcover.matcher import CoverResult, build_matching, cover, verify_cover
from rcover.oracle import (
    _color_components,
    oracle_cycle_pair,
    oracle_matching_cover,
    oracle_perfect_matching,
)

from conftest import random_coloring, random_hypergraph


def test_matching_cover_all_red_k6():
    col = monochromatic_instance(6, Color.RED)
    rep = oracle_matching_cover(col.host, col)
    assert rep.optimum == 6
    assert rep.witness["blue"] == []


def test_matching_cover_all_red_k7():
    col = monochromatic_instance(7, Color.RED)
    rep = oracle_matching_cover(col.host, col)
    assert rep.optimum == 6


def test_matching_cover_dominates_pipeline(rng):
    for seed in range(50):
        col = uniform_instance(7, 0.5, seed)
        rep = oracle_matching_cover(col.host, col)
        res = cover(col.host, col, 1e-3)
        assert rep.optimum >= res.covered


def test_matching_cover_witness_verifies(rng):
    for seed in range(25):
        col = uniform_instance(7, 0.5, seed)
        rep = oracle_matching_cover(col.host, col)
        red = [tuple(e) for e in rep.witness["red"]]
        blue = [tuple(e) for e in rep.witness["blue"]]
        result = CoverResult(
            red=build_matching(col, Color.RED, red, "W:R" if red else None),
            blue=build_matching(col, Color.BLUE, blue, "W:B" if blue else None),
            covered=3 * (len(red) + len(blue)),
            uncovered=tuple(
                sorted(
                    set(range(7))
                    - {v for e in red for v in e}
                    - {v for e in blue for v in e}
                )
            ),
            trace=(),
        )
        ok, diags = verify_cover(result, col.host, col)
        assert ok, diags
        assert rep.optimum == result.covered


def test_matching_cover_cap():
    col = monochromatic_instance(11, Color.RED)
    with pytest.raises(InstanceTooLargeError):
        oracle_matching_cover(col.host, col)


def test_matching_cover_single_component_constraint():
    # two disjoint red cliques: a red matching may only use one of them
    host = Hypergraph3.complete(9)
    red = [t for t in host.edges if set(t) <= {0, 1, 2} or set(t) <= {3, 4, 5}]
    col = Coloring(host, red)
    rep = oracle_matching_cover(host, col)
    # blue spans everything else: blue matching of 2 edges avoiding one red
    # clique beats any red+red attempt; optimum must respect one-component reds
    red_w = [tuple(e) for e in rep.witness["red"]]
    if len(red_w) >= 2:
        comps = [{0, 1, 2}, {3, 4, 5}]
        homes = [next(i for i, c in enumerate(comps) if set(e) <= c) for e in red_w]
        assert len(set(homes)) == 1


def _reference_components(edges):
    """Components of a colex-ordered edge list by search over shared pairs."""
    comps, seen = [], set()
    for e in edges:
        if e in seen:
            continue
        comp, stack = {e}, [e]
        while stack:
            f = stack.pop()
            for g in edges:
                if g not in comp and len(set(f) & set(g)) == 2:
                    comp.add(g)
                    stack.append(g)
        seen |= comp
        comps.append(tuple(g for g in edges if g in comp))
    return comps


def test_color_components_match_a_reference(rng):
    for trial in range(60):
        n = rng.randint(5, 12)
        col = random_coloring(random_hypergraph(n, rng.choice((0.05, 0.1, 0.2, 0.4)), rng), rng)
        for color in (Color.RED, Color.BLUE):
            edges = [t for t in col.host.edges if col.color_of(t) is color]
            assert _color_components(col, color) == _reference_components(edges), (trial, color)


def test_cycle_pair_all_red_k6():
    col = monochromatic_instance(6, Color.RED)
    rep = oracle_cycle_pair(col.host, col)
    assert rep.optimum == 0


def test_cycle_pair_all_red_k7_even():
    col = monochromatic_instance(7, Color.RED)
    rep = oracle_cycle_pair(col.host, col, parity_red="even")
    assert rep.optimum == 1
    assert len(rep.witness["red"]) == 6


def test_cycle_pair_unsatisfiable_parity():
    col = monochromatic_instance(6, Color.RED)
    rep = oracle_cycle_pair(col.host, col, parity_blue="odd")
    assert rep.optimum is None and rep.witness is None


def test_cycle_pair_cap():
    col = monochromatic_instance(9, Color.RED)
    with pytest.raises(InstanceTooLargeError):
        oracle_cycle_pair(col.host, col)


def test_perfect_matching_k6():
    assert oracle_perfect_matching(Hypergraph3.complete(6))


def test_perfect_matching_untouchable_vertex():
    edges = [t for t in combinations(range(6), 3) if 5 not in t]
    assert not oracle_perfect_matching(Hypergraph3(6, edges))


def test_perfect_matching_preconditions():
    with pytest.raises(ValueError):
        oracle_perfect_matching(Hypergraph3.complete(7))
    with pytest.raises(InstanceTooLargeError):
        oracle_perfect_matching(Hypergraph3.complete(18))


def test_oracle_determinism():
    col = uniform_instance(7, 0.5, 99)
    a = oracle_matching_cover(col.host, col)
    b = oracle_matching_cover(col.host, col)
    assert a == b
    c = oracle_cycle_pair(col.host, col, "even", "any")
    d = oracle_cycle_pair(col.host, col, "even", "any")
    assert c == d
