"""The four benchmark workloads: seeded inputs and the op each one times.

A workload is a function ``setup(m, seed, tiny)`` that builds its inputs and
returns ``round_ops(r)``, the ops of round ``r``.  ``m`` holds the freshly
imported rcover modules; ops look functions up on ``m`` at call time, so the
traced run sees the wrappers that ``spans.Tracer`` puts on those modules.

run.py only ever runs whole rounds, and each round is built so that its
middle op by run time belongs to one class (sweep: K24; large: the K60s;
structured: one of the five small hosts; cycles: the n = 10 exhausted
searches).  So the sample median stays inside that class, however many
rounds a run completes.  ``tiny`` shrinks every size for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

# The stranded-clique K60 (blue clique on {0..51}, red elsewhere) takes the
# residual branch at delta = 0.0375, i.e. gamma = (delta / 10) ** 6.
STRAND_GAMMA = (0.0375 / 10) ** 6
# A cycle op that runs longer than this counts as failed (status "timeout").
CYCLE_BUDGET_MS = 60_000
# Cycle instances up to this size are checked against oracle_cycle_pair.
ORACLE_MAX_N = 8


class CheckError(Exception):
    """An op's output failed its own correctness check."""


@dataclass
class Op:
    key: str  # names the input; part of the output digest
    n: int  # host vertices, the base of covered_frac
    run: Callable[[], tuple]  # -> (covered, status, detail for check)
    check: Callable[[object], list] | None = None  # post-phase check of detail


def _verified_cover(m, h, col, gamma):
    """cover -> verify_cover; a failed verification raises."""
    res = m.matcher.cover(h, col, gamma)
    ok, diags = m.matcher.verify_cover(res, h, col)
    if not ok:
        raise CheckError("verify_cover: " + "; ".join(diags))
    return res.covered, "verified", None


def _cover_op(m, key, n, build, gamma):
    """build -> cover -> verify_cover."""

    def run():
        col = build()
        return _verified_cover(m, col.host, col, gamma)

    return Op(key, n, run)


def _built(m, n, edges, red):
    """Build host and coloring from plain triples inside the timed op."""
    return lambda: m.core.Coloring(m.core.Hypergraph3(n, edges), red)


# -- sweep -------------------------------------------------------------------


def setup_sweep(m, seed, tiny):
    """Criterion 1's matrix: fresh complete hosts, generated inside the op."""
    ns = (6, 8, 10) if tiny else (12, 24, 36)

    def round_ops(r):
        rng = random.Random(f"sweep:{seed}:{r}")
        ops = []
        for n in ns:
            for gamma in (1e-3, 1e-6):
                s = rng.getrandbits(63)
                build = lambda n=n, s=s: m.generators.uniform_instance(n, 0.5, s)
                ops.append(_cover_op(m, f"sweep/K{n}/s{s}/g{gamma}", n, build, gamma))
        return ops

    return round_ops


# -- large -------------------------------------------------------------------


def setup_large(m, seed, tiny):
    """Ten complete K60 and one K90, written as h3bits in setup; the op loads one.

    A round runs each host once.  The median falls in the middle of the ten
    K60 ops, so it is the median of ten distinct instances, and one instance
    that covers slowly (they range from 0.7 to 1.1 s) cannot move it.  The
    K90 is the slowest op and about 30% of the run's wall time; K90 hosts
    differ by up to 40% in cover time, so more of it would make throughput
    depend on the seed.
    """
    rng = random.Random(f"large:{seed}")
    ops = []
    for n in ((12,) * 10 + (18,)) if tiny else ((60,) * 10 + (90,)):
        s = rng.getrandbits(63)
        blob = m.formats.h3bits_dumps(m.generators.uniform_instance(n, 0.5, s))

        def run(blob=blob):
            return _verified_cover(m, *m.formats.h3bits_loads(blob), 1e-6)

        ops.append(Op(f"large/K{n}/s{s}", n, run))
    return lambda r: ops


# -- structured ----------------------------------------------------------------


def _weak_host(rng, n, weak_count, keep_p):
    """Complete host minus most edges at a few weak vertices; colors p = 0.5."""
    weak = set(rng.sample(range(n), weak_count))
    edges = [t for t in combinations(range(n), 3) if not weak & set(t) or rng.random() < keep_p]
    return edges, [t for t in edges if rng.random() < 0.5]


def _sparse_host(rng, n, density):
    """Random host below the 25% dense-storage threshold; colors p = 0.5."""
    edges = [t for t in combinations(range(n), 3) if rng.random() < density]
    return edges, [t for t in edges if rng.random() < 0.5]


def setup_structured(m, seed, tiny):
    """Planted, near-monochromatic, weak-vertex, sparse and stranded hosts."""
    n, n_sparse = (18, 12) if tiny else (30, 36)
    # a tiny stranded clique cannot survive clean at STRAND_GAMMA
    n_strand, clique, branch_gamma = (18, 15, 1e-9) if tiny else (60, 52, STRAND_GAMMA)
    strand_edges = list(combinations(range(n_strand), 3))
    strand_red = [t for t in strand_edges if t[2] >= clique]  # not inside the clique
    strand = _built(m, n_strand, strand_edges, strand_red)

    rounds = []
    for r in range(1 if tiny else 4):
        rng = random.Random(f"structured:{seed}:{r}")
        sizes = (
            [rng.randint(3, 5), rng.randint(2, 4)]
            if tiny
            else [rng.randint(8, 14), rng.randint(5, 9), rng.randint(3, 6)]
        )
        s_red, s_blue = rng.getrandbits(63), rng.getrandbits(63)
        weak = _weak_host(rng, n, 3, 0.15)
        sparse = _sparse_host(rng, n_sparse, 0.2)
        rounds.append(
            [
                _cover_op(
                    m,
                    f"planted/K{n}/{sizes}",
                    n,
                    lambda sizes=sizes: m.generators.planted_partition_instance(n, sizes),
                    1e-3,
                ),
                _cover_op(
                    m,
                    f"mono-red/K{n}/s{s_red}",
                    n,
                    lambda s=s_red: m.generators.uniform_instance(n, 0.95, s),
                    1e-3,
                ),
                _cover_op(
                    m,
                    f"mono-blue/K{n}/s{s_blue}",
                    n,
                    lambda s=s_blue: m.generators.uniform_instance(n, 0.05, s),
                    1e-3,
                ),
                _cover_op(m, f"weak/{n}/seed{seed}/r{r}", n, _built(m, n, *weak), 1e-9),
                _cover_op(
                    m, f"sparse/{n_sparse}/seed{seed}/r{r}", n_sparse, _built(m, n_sparse, *sparse), 1e-3
                ),
                _cover_op(m, f"strand/K{n_strand}/g1e-3", n_strand, strand, 1e-3),
                _cover_op(m, f"strand/K{n_strand}/g{branch_gamma:.3g}", n_strand, strand, branch_gamma),
            ]
        )
    return lambda r: rounds[r % len(rounds)]


# -- cycles ------------------------------------------------------------------


def _cycle_op(m, family, n, p, s, mu, parity):
    col = m.generators.uniform_instance(n, p, s)
    key = f"{family}/K{n}/p{p}/s{s}/mu{mu}/{parity[0]}-{parity[1]}"
    oracle = {}  # the oracle's optimum, computed at the first check

    def run():
        out = m.cycles.search_cycle_pair(col.host, col, mu, *parity, budget_ms=CYCLE_BUDGET_MS)
        if out.status == "timeout":
            raise CheckError(f"search timed out after {CYCLE_BUDGET_MS} ms")
        covered = n - len(out.pair.uncovered) if out.found else 0
        return covered, out.status, out

    def check(out):
        problems = []
        if out.found:
            problems += m.cycles.verify_cycle_pair(out.pair, col.host, col)[1]
        if n <= ORACLE_MAX_N:
            if not oracle:
                oracle["best"] = m.oracle.oracle_cycle_pair(col.host, col, *parity).optimum
            best = oracle["best"]
            want = best if best is not None and best <= mu else None
            got = len(out.pair.uncovered) if out.found else None
            if got != want:
                problems.append(f"search left {got} uncovered, oracle says {want}")
        return problems

    return Op(key, n, run, check)


def setup_cycles(m, seed, tiny):
    """Exhausted near-monochromatic searches, found p = 0.5 searches, n = 8 checks.

    A round has 5 fast ops (3 found searches, 2 oracle-checked ones) and 11
    exhausted ones: 6 at n = 10 (half at p = 0.9, half at p = 0.95), 3 at
    n = 11 and 2 at n = 12.  As many exhausted ops are slower than the n = 10
    class as fast ops are faster, so the median is the middle of the n = 10
    class.  n = 11 and 12 use p = 0.95 only: at p = 0.9 about one search in
    five finds a pair there, which would make the class mix and covered_frac
    depend on the seed.
    """
    if tiny:
        exhausted = [(6, 0.9)] * 3 + [(6, 0.95)] * 3 + [(7, 0.95)] * 3 + [(8, 0.95)] * 2
        found_ns, small_n = (8, 8, 10), 6
    else:
        exhausted = [(10, 0.9)] * 3 + [(10, 0.95)] * 3 + [(11, 0.95)] * 3 + [(12, 0.95)] * 2
        found_ns, small_n = (12, 14, 16), 8
    rounds = []
    for r in range(1 if tiny else 8):
        rng = random.Random(f"cycles:{seed}:{r}")
        ops = [
            _cycle_op(m, "exhausted", n, p, rng.getrandbits(63), 2, ("any", "even"))
            for n, p in exhausted
        ]
        ops += [
            _cycle_op(m, "found", n, 0.5, rng.getrandbits(63), 0, ("even", "even"))
            for n in found_ns
        ]
        ops += [
            _cycle_op(m, "oracle", small_n, p, rng.getrandbits(63), 2, ("any", "even"))
            for p in (0.5, 0.9)
        ]
        rounds.append(ops)
    return lambda r: rounds[r % len(rounds)]


WORKLOADS = {
    "sweep": setup_sweep,
    "large": setup_large,
    "structured": setup_structured,
    "cycles": setup_cycles,
}
