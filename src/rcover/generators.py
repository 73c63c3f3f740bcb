"""Seeded instance generators: complete 2-colored 3-uniform hypergraphs.

All models color the complete host K_n^(3).  The uniform model gives each
triple its own counter, its colex index, so instances are reproducible from
(model, n, seed) alone and triple i has the same color for every n.  The
draws for all triples are evaluated together in packed lanes
(``rng.unit_below_mask``); the red mask is bit-identical to testing
``CounterRng(seed).unit(i) < p`` triple by triple.
"""

from __future__ import annotations

from math import comb

from .core import Color, Coloring, Hypergraph3, within_mask
from .rng import unit_below_mask


def uniform_instance(n: int, p: float, seed: int) -> Coloring:
    """Each triple red independently with probability p (draw i = triple i)."""
    red = unit_below_mask(seed, comb(n, 3), p)
    return Coloring.from_bits(Hypergraph3.complete(n), red)


def monochromatic_instance(n: int, color: Color) -> Coloring:
    host = Hypergraph3.complete(n)
    return Coloring.from_bits(host, host.edge_bits if color is Color.RED else 0)


def planted_partition_instance(n: int, sizes) -> Coloring:
    """Triples inside any planted class are red, all crossing triples blue.

    Classes are the consecutive id blocks of the given sizes; ids beyond
    sum(sizes) belong to no class.
    """
    sizes = list(sizes)
    if any(s < 0 for s in sizes) or sum(sizes) > n:
        raise ValueError("class sizes must be nonnegative and fit in n")
    red = 0
    start = 0
    for s in sizes:
        red |= within_mask(((1 << s) - 1) << start)
        start += s
    return Coloring.from_bits(Hypergraph3.complete(n), red)
