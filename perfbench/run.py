"""rcover benchmark runner: one client, closed loop, single process and thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports rcover from its ``src``
directory; without that directory it exits with code 2.  The workload's
inputs come from ``--seed`` alone.  Set-up (import plus input generation) is
done SETUP_REPEATS times and its median reported.  The measured phase then
runs whole rounds of ops until ``--seconds`` have passed and at least
MIN_OPS ops are done.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
round twice, once with spans recorded (see spans.py) and once without, and
reports the per-layer metrics of the traced pass plus the tracing overhead;
both passes must produce the same outputs.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (machine, commit, seed, sample counts, digests, failures).  The
record, with every op's output and latency, is also written under
``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

from spans import MOVE_KINDS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
MIN_OPS = 2 * TAIL_BEYOND + 1  # so that the tail percentile is at least p50
MODULES = ("core", "rng", "generators", "matcher", "formats", "cycles", "oracle")


class SetupError(Exception):
    """The checkout holds no importable rcover source tree."""


# -- set-up ------------------------------------------------------------------


def import_rcover():
    """Import rcover afresh from the checkout's src directory."""
    for name in [k for k in sys.modules if k == "rcover" or k.startswith("rcover.")]:
        del sys.modules[name]
    if not (SRC / "rcover" / "__init__.py").is_file():
        raise SetupError(f"no rcover package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("rcover")
    if Path(pkg.__file__).resolve().parent != SRC / "rcover":
        raise SetupError(f"rcover imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module("rcover." + name) for name in MODULES}
    return SimpleNamespace(rcover=pkg, **mods)


def set_up(workload, seed, tiny, tracer):
    """Repeat import plus input generation; the tracer joins the last repeat."""
    times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        m = import_rcover()
        if tracer is not None and rep == SETUP_REPEATS - 1:
            tracer.install(m)
            round_ops = tracer.call("bench.setup", WORKLOADS[workload], m, seed, tiny)
        else:
            round_ops = WORKLOADS[workload](m, seed, tiny)
        times.append(time.perf_counter() - t0)
    return m, round_ops, times


# -- the measured phase --------------------------------------------------------


def new_phase():
    return SimpleNamespace(ops=[], lat=[], outs=[], errors=[], wall=0.0, rounds=0)


def run_round(phase, ops, tracer=None):
    """Run one round's ops in order and append them to ``phase``."""
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = len(phase.ops)
        t = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.call("bench.op", op.run)
        except Exception as exc:  # every failure is counted, never dropped
            out = (0, "error", None)
            phase.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
        phase.lat.append(time.perf_counter() - t)
        phase.ops.append(op)
        phase.outs.append(out)
    phase.wall += time.perf_counter() - start
    phase.rounds += 1


def measure(round_ops, seconds):
    """Whole rounds until ``seconds`` pass and MIN_OPS ops are done."""
    phase = new_phase()
    while phase.wall < seconds or len(phase.ops) < MIN_OPS:
        run_round(phase, round_ops(phase.rounds))
    return phase


def measure_traced(m, round_ops, seconds, tracer):
    """Every round twice, traced and untraced, until ``seconds`` pass.

    Which of the two runs first alternates from round to round, so a drift
    in machine speed during the run falls on both passes alike.
    """
    traced, untraced = new_phase(), new_phase()
    start = time.perf_counter()
    while traced.rounds == 0 or time.perf_counter() - start < seconds:
        ops = round_ops(traced.rounds)
        order = [(traced, tracer), (untraced, None)]
        for phase, tr in order if traced.rounds % 2 == 0 else order[::-1]:
            if tr is not None:
                tracer.install(m)
            run_round(phase, ops, tr)
            tracer.uninstall()
    return traced, untraced


def check(phase, tracer=None):
    """Post-phase checks (cycle pairs, oracle); returns failed op indices."""
    failed = {i for i, out in enumerate(phase.outs) if out[1] == "error"}
    for i, (op, out) in enumerate(zip(phase.ops, phase.outs)):
        if op.check is None or i in failed:
            continue
        if tracer is not None:
            tracer.op = i
            problems = tracer.call("bench.check", op.check, out[2])
        else:
            problems = op.check(out[2])
        if problems:
            failed.add(i)
            phase.errors.append(f"{op.key}: " + "; ".join(problems))
    return failed


def digest(phase, first=None):
    """sha256 over (input key, covered, status) of the first ``first`` ops."""
    rows = [[op.key, out[0], out[1]] for op, out in zip(phase.ops, phase.outs)][:first]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# -- metrics -------------------------------------------------------------------


def tail(lat):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  The untraced run takes at
    least MIN_OPS samples, so this percentile is never below the median.
    """
    xs = sorted(lat)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def end_to_end(phase, failed, setup_times, setup_pre):
    lat = phase.lat
    tail_s, tail_pct, tail_beyond = tail(lat)
    covered = sum(out[0] for out in phase.outs)
    vertices = sum(op.n for op in phase.ops)
    values = {
        "throughput_ops_s": (len(lat) / phase.wall, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_pre + statistics.median(setup_times), "s"),
        "ok_ratio": (1.0 - len(failed) / len(lat), "ratio"),
        "covered_frac": (covered / vertices, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": tail_beyond,
        "failed_ratio": len(failed) / len(lat),
        "samples": {**dict.fromkeys(values, len(lat)), "setup_s": len(setup_times), "peak_rss_mb": 1},
    }
    return values, extra


# Span names whose self time is reported per op, and the counters reported per
# op ("calls" counters come from Tracer.call).
SELF_TIMES = (
    "bench.op",
    "generators.uniform_instance",
    "generators.planted_partition_instance",
    "core.Hypergraph3.init",
    "core.Coloring.init",
    "core.connected_components",
    "matcher.cover",
    "matcher.clean",
    "matcher.partition_vertices",
    "matcher.local_search_matching",
    "matcher.build_matching",
    "matcher.residual_component",
    "matcher.perfect_matching_dense",
    "matcher.dissolve_matching",
    "matcher.verify_cover",
    "formats.h3bits_loads",
    "cycles.search_cycle_pair.exhausted",
    "cycles.search_cycle_pair.found",
    "cycles.verify_cycle_pair",
    "oracle.oracle_cycle_pair",
)
COUNTS = (
    "rng.draws",
    "core.Hypergraph3.init.calls",
    "core.Coloring.init.calls",
    "core.connected_components.calls",
    "core.components_found",
    "core.connecting_path.calls",
    "matcher.clean.deleted_vertices",
    *("matcher.moves." + kind for kind in MOVE_KINDS),
    "matcher.mono_connecting_path.calls",
    "matcher.certificate_edges",
    "matcher.branch.attempted",
    "matcher.branch.applied",
    "matcher.branch.selected",
    "matcher.early_exit",
    "matcher.verify_cover.calls",
    "formats.h3bits_loads.bytes",
    "cycles.status.found",
    "cycles.status.exhausted",
    "cycles.status.timeout",
)


def per_layer(tracer, traced, untraced):
    """Per-op self times and counters of the traced pass, plus overhead."""
    n_ops = len(traced.ops)
    counts = tracer.counts["bench.op"]
    self_op, self_setup = {}, {}
    for name, root, secs in tracer.self_times():
        into = self_setup if root == "bench.setup" else self_op
        into[name] = into.get(name, 0.0) + secs
    values = {f"{name}.self_s": (self_op.get(name, 0.0) / n_ops, "s/op") for name in SELF_TIMES}
    values["formats.h3bits_dumps.self_s"] = (self_setup.get("formats.h3bits_dumps", 0.0), "s")
    for name in COUNTS:
        unit = "B/op" if name.endswith(".bytes") else "count/op"
        values[name] = (counts[name] / n_ops, unit)
    cleans = counts["matcher.clean.calls"]
    values["matcher.clean.useful_ratio"] = (
        counts["matcher.clean.useful"] / cleans if cleans else 0.0,
        "ratio",
    )
    values["trace.ops"] = (n_ops, "count")
    values["trace_overhead_ratio"] = (traced.wall / untraced.wall - 1.0, "ratio")
    checks = sum(s[2] - s[1] for s in tracer.spans if s[0] == "bench.check")
    extra = {
        "traced_wall_s": sum(traced.lat) + checks,  # timed ops plus their checks
        "traced_self_sum_s": sum(self_op.values()),
    }
    return values, extra


# -- the run record --------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def run(workload, seed, seconds, trace, tiny=False, out_dir=OUT):
    """One benchmark run; returns (result object, record)."""
    os.environ.pop("RCOVER_THREADS", None)
    tracer = Tracer() if trace else None
    setup_pre = time.perf_counter() - _T0
    m, round_ops, setup_times = set_up(workload, seed, tiny, tracer)

    if tracer is None:
        phase = measure(round_ops, seconds)
        failed = check(phase)
        metrics, extra = end_to_end(phase, failed, setup_times, setup_pre)
        phases = [phase]
        correct = not failed
    else:
        tracer.uninstall()
        phase, untraced = measure_traced(m, round_ops, seconds, tracer)
        tracer.install(m)
        failed = check(phase, tracer)
        tracer.uninstall()
        failed_untraced = check(untraced)
        metrics, extra = per_layer(tracer, phase, untraced)
        extra["digest_untraced"] = digest(untraced)
        phases = [phase, untraced]
        correct = not failed and not failed_untraced and digest(phase) == digest(untraced)
        failed = [*failed, *failed_untraced]

    attempted = sum(len(p.ops) for p in phases)
    failures = [e for p in phases for e in p.errors]
    first_round = len(round_ops(0))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "setup_repeats": setup_times,
        "ops": len(phase.ops),
        "rounds": phase.rounds,
        "digest": digest(phase, first_round),
        "digest_all": digest(phase),
        "outputs": [[op.key, out[0], out[1], t] for op, out, t in zip(phase.ops, phase.outs, phase.lat)],
        "failures": failures,
        **extra,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
        if tracer is not None:
            tracer.write(out_dir / f"{stem}.spans.jsonl")
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    summary = {k: v for k, v in record.items() if k != "outputs"}
    print(json.dumps(summary, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
