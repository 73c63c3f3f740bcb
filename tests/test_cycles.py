"""Tight/loose cycle verification, exact pair search, loose extraction."""

import pytest

from rcover import cycles
from rcover.core import Color, Coloring, Hypergraph3
from rcover.cycles import (
    ANY,
    EVEN,
    ODD,
    LooseCycle,
    TightCycle,
    loose_from_tight,
    search_cycle_pair,
    verify_cycle_pair,
    verify_loose_cycle,
    verify_tight_cycle,
)
from rcover.errors import InstanceTooLargeError
from rcover.generators import monochromatic_instance, uniform_instance
from rcover.oracle import oracle_cycle_pair


# -- tight cycle verification ---------------------------------------------------


def test_verify_tight_cycle_k4_all_red():
    col = monochromatic_instance(4, Color.RED)
    c = TightCycle((0, 1, 2, 3))
    assert set(c.implied_edges()) == {(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)}
    assert verify_tight_cycle(c, col.host, col, Color.RED)


def test_verify_tight_cycle_recolored_edge_fails():
    host = Hypergraph3.complete(4)
    col = Coloring(host, [t for t in host.edges if t != (1, 2, 3)])
    assert not verify_tight_cycle(TightCycle((0, 1, 2, 3)), host, col, Color.RED)


def test_verify_tight_cycle_too_short():
    col = monochromatic_instance(5, Color.RED)
    assert not verify_tight_cycle(TightCycle((0, 1, 2)), col.host, col, Color.RED)


def test_verify_tight_cycle_repeated_vertex():
    col = monochromatic_instance(5, Color.RED)
    assert not verify_tight_cycle(TightCycle((0, 1, 2, 1)), col.host, col, Color.RED)


def test_empty_cycle_is_structurally_ok():
    assert TightCycle(()).structurally_ok()


# -- search ------------------------------------------------------------------------


def test_search_all_red_k6_full_cover():
    col = monochromatic_instance(6, Color.RED)
    out = search_cycle_pair(col.host, col, max_uncovered=0)
    assert out.found
    assert out.pair.red.length == 6
    assert out.pair.blue.length == 0
    assert out.pair.uncovered == ()
    ok, diags = verify_cycle_pair(out.pair, col.host, col)
    assert ok, diags


def test_search_parity_counting_n6():
    # an odd red cycle in all-red K6 covers at most 5 of 6 vertices
    col = monochromatic_instance(6, Color.RED)
    out = search_cycle_pair(col.host, col, max_uncovered=0, parity_red=ODD)
    assert out.status == "exhausted"
    out = search_cycle_pair(col.host, col, max_uncovered=1, parity_red=ODD)
    assert out.found
    assert out.pair.red.length == 5
    assert len(out.pair.uncovered) == 1


def test_search_empty_pair_when_everything_may_stay_uncovered():
    col = uniform_instance(6, 0.5, 2)
    out = search_cycle_pair(col.host, col, max_uncovered=6)
    assert out.found  # at worst the (empty, empty) pair


def test_search_empty_cycle_fails_parity():
    # all red: a blue cycle cannot exist, and empty satisfies only 'any'
    col = monochromatic_instance(6, Color.RED)
    out = search_cycle_pair(col.host, col, max_uncovered=6, parity_blue=ODD)
    assert out.status == "exhausted"


def test_search_agrees_with_oracle_n7(rng):
    for seed in range(50):
        col = uniform_instance(7, 0.5, seed)
        for mu in (0, 1, 2, 3):
            for pr, pb in ((ANY, ANY), (EVEN, ANY), (ODD, ODD)):
                o = oracle_cycle_pair(col.host, col, pr, pb)
                s = search_cycle_pair(col.host, col, mu, pr, pb)
                present = o.optimum is not None and o.optimum <= mu
                assert s.status != "timeout"
                assert s.found == present
                if s.found:
                    assert len(s.pair.uncovered) == o.optimum
                    ok, diags = verify_cycle_pair(s.pair, col.host, col)
                    assert ok, diags
                    if s.pair.red.length:
                        assert verify_tight_cycle(s.pair.red, col.host, col, Color.RED)
                    if s.pair.blue.length:
                        assert verify_tight_cycle(s.pair.blue, col.host, col, Color.BLUE)


def test_search_agrees_with_oracle_n8_near_monochromatic():
    # (any, even) and (even, even) are the benchmark's exhausted settings;
    # (any, any) and (odd, any) add searches that find a pair
    statuses = set()
    for p in (0.9, 0.95):
        for seed in range(6):
            col = uniform_instance(8, p, seed)
            for pr, pb in ((ANY, EVEN), (EVEN, EVEN), (ANY, ANY), (ODD, ANY)):
                o = oracle_cycle_pair(col.host, col, pr, pb)
                for mu in (0, 2):
                    s = search_cycle_pair(col.host, col, mu, pr, pb)
                    present = o.optimum is not None and o.optimum <= mu
                    assert s.status == ("found" if present else "exhausted")
                    statuses.add(s.status)
                    if s.found:
                        assert len(s.pair.uncovered) == o.optimum
                        ok, diags = verify_cycle_pair(s.pair, col.host, col)
                        assert ok, diags
    assert statuses == {"found", "exhausted"}


def test_search_tests_each_support_once(monkeypatch):
    tested = []
    inner = cycles._tight_hamilton

    def counting(support, links, *rest):
        tested.append((id(links), tuple(support)))
        return inner(support, links, *rest)

    monkeypatch.setattr(cycles, "_tight_hamilton", counting)
    col = uniform_instance(10, 0.95, 2)
    out = search_cycle_pair(col.host, col, 2, ANY, EVEN)
    assert out.status == "exhausted"
    assert len(tested) > 100
    assert len(set(tested)) == len(tested)


def test_search_rejects_negative_max_uncovered():
    col = monochromatic_instance(6, Color.RED)
    with pytest.raises(ValueError):
        search_cycle_pair(col.host, col, -3)


def test_search_parity_satisfaction(rng):
    for seed in range(30):
        col = uniform_instance(7, 0.5, seed + 100)
        out = search_cycle_pair(col.host, col, 3, EVEN, ODD)
        if out.found:
            assert out.pair.red.length % 2 == 0  # empty (0) is even but only via 'any'
            assert out.pair.red.length == 0 or out.pair.red.length >= 4
            assert out.pair.blue.length % 2 == 1


def test_search_hard_cap():
    col = monochromatic_instance(17, Color.RED)
    with pytest.raises(InstanceTooLargeError):
        search_cycle_pair(col.host, col, 0)


def test_search_budget_timeout():
    # all red with blue even: no pair exists, and proving it takes far more
    # than the 1 024 search nodes between two clock polls
    col = monochromatic_instance(12, Color.RED)
    for mu in (0, 2):
        assert search_cycle_pair(col.host, col, mu, ANY, EVEN, budget_ms=0).status == "timeout"
        assert search_cycle_pair(col.host, col, mu, ANY, EVEN).status == "exhausted"


# -- loose cycles ---------------------------------------------------------------


def test_loose_from_tight_length6():
    lc = loose_from_tight(TightCycle((0, 1, 2, 3, 4, 5)))
    assert lc.edges == ((0, 1, 2), (2, 3, 4), (0, 4, 5))
    assert lc.structurally_ok()
    assert lc.vertex_set() == frozenset(range(6))


def test_loose_from_tight_length8_invariants():
    order = (3, 7, 1, 6, 0, 5, 2, 4)
    lc = loose_from_tight(TightCycle(order))
    assert len(lc.edges) == 4
    assert lc.structurally_ok()
    assert lc.vertex_set() == frozenset(order)


def test_loose_from_tight_preconditions():
    with pytest.raises(ValueError):
        loose_from_tight(TightCycle((0, 1, 2, 3, 4)))  # odd
    with pytest.raises(ValueError):
        loose_from_tight(TightCycle((0, 1, 2, 3)))  # even but degenerate


def test_verify_loose_cycle_composition(rng):
    for ell in (6, 8, 10, 12):
        for _ in range(25):
            order = tuple(rng.sample(range(ell + 4), ell))
            tc = TightCycle(order)
            host = Hypergraph3(ell + 4, tc.implied_edges())
            col = Coloring(host, host.edges)  # all red
            assert verify_tight_cycle(tc, host, col, Color.RED)
            lc = loose_from_tight(tc)
            assert verify_loose_cycle(lc, host, col, Color.RED)
            assert lc.vertex_set() == tc.vertex_set()


def test_verify_loose_cycle_rejects_bad_shapes():
    col = monochromatic_instance(8, Color.RED)
    shares_two = LooseCycle(((0, 1, 2), (1, 2, 3), (3, 4, 5)))
    assert not verify_loose_cycle(shares_two, col.host, col, Color.RED)
    host = Hypergraph3(9, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
    missing = LooseCycle(((0, 1, 2), (2, 3, 4), (4, 5, 6)))
    assert not verify_loose_cycle(missing, host, Coloring(host, host.edges), Color.RED)


def test_loose_cycle_two_edges_rejected():
    assert not LooseCycle(((0, 1, 2), (2, 3, 4))).structurally_ok()
