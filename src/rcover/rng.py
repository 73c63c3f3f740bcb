"""Counter-based 64-bit generator for reproducible instance sampling.

The generator is SplitMix64 evaluated at an explicit counter:

    state(i) = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state(i)
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    out(i) = z XOR (z >> 31)

``unit(i)`` maps the top 53 bits of out(i) to [0, 1): (out(i) >> 11) * 2^-53.
Every draw is addressed by its counter, so instance generation is stateless,
order-independent, and bit-reproducible across platforms and languages.

``unit_below_mask`` evaluates the same formula for a block of counters at
once: counter a + k lives in the k-th 128-bit lane of one Python int, so a
chunk of lanes costs a fixed number of big-int operations.  A lane is 128
bits because a 64-bit value times a 64-bit constant is below 2^128, so a
multiply never carries into the next lane.  Each ``z XOR (z >> k)`` is masked
back to 64 bits per lane before the multiply: the shift brings the low bits
of the next lane down into the top of this one.  The test ``unit(i) < p``
becomes the exact integer compare ``(out(i) >> 11) < ceil(p * 2^53)``, since
``out(i) >> 11`` is an integer below 2^53 and ``p * 2^53`` is exact.
``CounterRng`` stays the per-counter reference.
"""

from __future__ import annotations

from functools import cache
from math import ceil

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Counters per packed chunk.  It caps each big int at 64 KiB, so memory does
# not grow with the block size.
_LANES = 4096
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


def splitmix64(seed: int, counter: int) -> int:
    """The i-th 64-bit output of SplitMix64 seeded with ``seed``."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class CounterRng:
    """Stateless addressed generator; draw i never depends on draw j."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed & _MASK64

    def raw(self, counter: int) -> int:
        return splitmix64(self.seed, counter)

    def unit(self, counter: int) -> float:
        """Uniform float in [0, 1) from the top 53 bits of draw ``counter``."""
        return (self.raw(counter) >> 11) * 2.0**-53


@cache
def _lane_constants() -> tuple[int, int, int]:
    """Over one full chunk: 1 per lane, 2^64 - 1 per lane, k * GOLDEN in lane k."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
    step = int.from_bytes(b"".join((k * _GOLDEN).to_bytes(16, "little") for k in range(_LANES)), "little")
    return ones, mask, step


def unit_below_mask(seed: int, count: int, p: float) -> int:
    """Bit i (i < count) set iff ``CounterRng(seed).unit(i) < p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if count <= 0:
        return 0
    # unit(i) < p  <=>  out(i) >> 11 < ceil(p * 2^53)  <=>  out(i) < bound
    bound = ceil(p * 2.0**53) << 11
    ones, mask, step = _lane_constants()
    # Lane value 2^64 + bound - 1 - out(i) lies in [0, 2^65): no borrow crosses
    # lanes, and its bit 64 is set iff out(i) < bound.
    top = ((1 << 64) + bound - 1) * ones
    chunks = []
    for a in range(0, count, _LANES):
        lanes = min(_LANES, count - a)
        if lanes < _LANES:
            cut = (1 << (128 * lanes)) - 1
            ones, mask, step, top = ones & cut, mask & cut, step & cut, top & cut
        # lane k: state(a) + k * GOLDEN, below 2^77, reduced to state(a + k)
        z = ((seed + (a + 1) * _GOLDEN) & _MASK64) * ones + step & mask
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (z ^ (z >> 31)) & mask
        # byte 8 of each 16-byte lane holds bits 64..71, of which only bit 64 can be set
        chunks.append((top - z).to_bytes(16 * lanes, "little")[8::16])
    # one byte 0/1 per counter, counter 0 first; as binary digits it goes last
    return int(b"".join(chunks).translate(_TO_ASCII)[::-1], 2)
