"""Counter RNG and instance generators: reproducibility and model semantics."""

import hashlib
from math import comb, nextafter

import pytest

from rcover.core import Color, colex_index, index_mask
from rcover.formats import h3bits_dumps
from rcover.generators import (
    monochromatic_instance,
    planted_partition_instance,
    uniform_instance,
)
from rcover.rng import _LANES, CounterRng, splitmix64, unit_below_mask

_MASK64 = (1 << 64) - 1
_SEEDS = (0, 1, (1 << 63) - 1, -5, (1 << 64) + 7, -(1 << 70))
_PROBS = (0.0, 0.05, 0.1, 1 / 3, 0.5, 0.95, 1.0)


def _sequential_splitmix64(seed, count):
    """Reference: the classic sequential formulation of the generator."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def test_counter_formulation_matches_sequential():
    for seed in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        expected = _sequential_splitmix64(seed, 32)
        got = [splitmix64(seed, i) for i in range(32)]
        assert got == expected


def test_counter_access_is_order_independent():
    rng = CounterRng(42)
    forward = [rng.raw(i) for i in range(10)]
    backward = [rng.raw(i) for i in reversed(range(10))]
    assert forward == list(reversed(backward))


def test_unit_range():
    rng = CounterRng(7)
    vals = [rng.unit(i) for i in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert len(set(vals)) > 990  # no mass collisions


def test_uniform_determinism_and_colex_addressing():
    a = uniform_instance(9, 0.5, seed=11)
    b = uniform_instance(9, 0.5, seed=11)
    assert a.red == b.red
    # triple color depends only on its colex counter, not on n
    big = uniform_instance(12, 0.5, seed=11)
    for t in a.host.edges:
        assert (t in a.red) == (t in big.red), t


def test_uniform_extremes():
    assert uniform_instance(7, 1.0, 3).red == monochromatic_instance(7, Color.RED).red
    assert not uniform_instance(7, 0.0, 3).red
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            uniform_instance(7, bad, 3)


def _loop_mask(units, p):
    """Reference: bit i set iff unit(i) < p, one counter at a time."""
    return index_mask((i for i, u in enumerate(units) if u < p), len(units))


def test_packed_mask_matches_counter_loop():
    counts = [comb(n, 3) for n in (0, 1, 2, 3, 12, 36, 60)]
    counts += [_LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 3]
    for seed in _SEEDS:
        rng = CounterRng(seed)
        units = [rng.unit(i) for i in range(max(counts))]
        for p in _PROBS:
            full = _loop_mask(units, p)
            for count in counts:
                expected = full & ((1 << count) - 1)
                assert unit_below_mask(seed, count, p) == expected, (seed, count, p)
        for n in (0, 3, 12, 36):
            assert uniform_instance(n, 0.5, seed).red_bits == _loop_mask(units[: comb(n, 3)], 0.5)


def test_packed_threshold_is_exact_at_a_draw():
    """p equal to, just above and just below unit(i) pins ceil(p * 2^53).

    Draws whose low 11 bits are all zero or all one are included: at
    p = unit(i) the first sit exactly on the integer bound, and at the next
    float above unit(i) the second sit one below it, where a lane's compare
    bit is the only thing a borrow from the lane below could flip.
    """
    count = 2 * _LANES + 3
    for seed in (0, -5):
        rng = CounterRng(seed)
        ties = [i for i in range(count) if rng.raw(i) & 0x7FF in (0, 0x7FF)]
        assert {rng.raw(i) & 0x7FF for i in ties} == {0, 0x7FF}
        for i in (0, 1, _LANES - 1, _LANES, 2 * _LANES - 1, 2 * _LANES, count - 1, *ties):
            u = rng.unit(i)
            for p in (u, nextafter(u, 1.0), nextafter(u, 0.0)):
                assert (unit_below_mask(seed, count, p) >> i) & 1 == (u < p), (seed, i, p)


# sha256 of h3bits_dumps(uniform_instance(n, p, seed)), recorded from the
# per-counter generator; sweep CSVs and benchmark digests depend on this output.
_GOLDEN_H3BITS = {
    (36, 0.5, 1): "72a2960fcb73b01d69bff25a92e63cf251837f83f0e15a77bd95718c1528784d",
    (60, 0.5, 2): "5518673960c077abdd388ba2c4d3a581cd4de7c7b5aff7812578ce44b5340ad3",
    (30, 0.95, 3): "b3c5fe5a3c51131e6169080bea52287292433ba37d6b647ff15b85b0c5190c1c",
    (90, 0.05, 4): "537269952486b0e5069b4ff3938d09b99628571203e362b1e8737c510c1acdf0",
    (12, 1 / 3, -5): "90c5acc680550912af28a1693762ccd48d949143af9bfb96e249dd3581968651",
    (24, 0.1, (1 << 64) + 7): "487c37819f0b3c6d2322838e58417d7f38b0183b629abf2c09be5d93ed991292",
}


def test_uniform_output_is_pinned():
    for (n, p, seed), digest in _GOLDEN_H3BITS.items():
        assert hashlib.sha256(h3bits_dumps(uniform_instance(n, p, seed))).hexdigest() == digest, (n, p, seed)


def test_monochromatic():
    col = monochromatic_instance(6, Color.RED)
    assert len(col.red) == 20 and not col.blue
    col = monochromatic_instance(6, Color.BLUE)
    assert len(col.blue) == 20 and not col.red


def test_planted_partition():
    col = planted_partition_instance(6, [3, 3])
    assert col.red == {(0, 1, 2), (3, 4, 5)}
    # vertices beyond the classes belong to no class: all their triples blue
    col2 = planted_partition_instance(7, [3, 3])
    assert col2.red == {(0, 1, 2), (3, 4, 5)}


def test_colex_counter_is_edge_index():
    col = uniform_instance(8, 0.5, seed=5)
    rng = CounterRng(5)
    for t in col.host.edges:
        assert (t in col.red) == (rng.unit(colex_index(t)) < 0.5)
