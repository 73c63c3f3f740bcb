"""Batch front door: generators, solvers, oracles, verifiers, sweeps.

Exit codes: 0 valid result, 2 absent / search timeout, 1 any error.
Outputs are canonical JSON (or CSV for sweeps) and contain no timing
fields; sweep stage timings go to a ``.timings.csv`` sidecar so reruns of
the same command and seed are byte-identical.  RCOVER_THREADS, a positive
integer (default 1, serial), asks for that many sweep worker processes; the
pool is clamped to the CPU count and to the number of sweep tasks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .core import Color, Coloring, Hypergraph3
from .cycles import (
    ANY,
    CyclePair,
    TightCycle,
    search_cycle_pair,
    verify_cycle_pair,
)
from .errors import FormatError, RcoverError
from .formats import (
    canonical_json,
    cover_from_json,
    cover_to_json,
    cycle_pair_to_json,
    h3json_dumps,
    int_rows,
    load_instance,
    oracle_report_to_json,
    save_instance,
)
from .generators import (
    monochromatic_instance,
    planted_partition_instance,
    uniform_instance,
)
from .matcher import cover, verify_cover
from .oracle import oracle_cycle_pair, oracle_matching_cover, oracle_perfect_matching
from .reduced import build_reduced

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ABSENT = 2

# Largest n that gen and sweep build: K_1000 already has a 21 MB edge mask,
# and a uniform coloring of it takes about half a minute.
GEN_MAX_N = 1000


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_parity(spec: str) -> tuple[str, str]:
    parity = {"red": ANY, "blue": ANY}
    if spec:
        for part in spec.split(","):
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip().lower()
            if key not in parity or value not in (ANY, "even", "odd"):
                raise ValueError(f"bad parity spec {spec!r}")
            parity[key] = value
    return parity["red"], parity["blue"]


def _parse_seeds(spec: str) -> list[int]:
    """Either a single integer or an inclusive range 'A..B'."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(spec)]


def _generate(model: str, n: int, p: float, seed: int, classes, color, input_path):
    if model != "fromfile" and n < 4:
        raise ValueError("instances need at least 4 vertices")
    if model != "fromfile" and n > GEN_MAX_N:
        raise ValueError(f"instances have at most {GEN_MAX_N} vertices, got --n {n}")
    if model == "uniform":
        return uniform_instance(n, p, seed)
    if model == "mono":
        return monochromatic_instance(n, Color(color))
    if model == "planted":
        if not classes:
            raise ValueError("planted model needs --classes")
        return planted_partition_instance(n, classes)
    if model == "fromfile":
        if not input_path:
            raise ValueError("fromfile model needs --input")
        h, col = load_instance(input_path)
        if col is None:
            raise ValueError("input file carries no coloring")
        return col
    raise ValueError(f"unknown model {model!r}")


def _load_colored(path: str) -> tuple[Hypergraph3, Coloring]:
    h, col = load_instance(path)
    if col is None:
        raise ValueError(f"{path} carries no coloring")
    return h, col


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    col = _generate(
        args.model, args.n, args.p, args.seed, args.classes, args.color, args.input
    )
    if not args.out:
        raise ValueError("gen needs --out")
    save_instance(args.out, col.host, col)
    return EXIT_OK


def cmd_solve(args) -> int:
    h, col = _load_colored(args.input)
    result = cover(h, col, args.gamma)
    ok, diags = verify_cover(result, h, col)
    doc = cover_to_json(result)
    doc["valid"] = ok
    doc["gamma"] = args.gamma
    doc["n"] = h.n
    _emit(canonical_json(doc), args.out)
    if not ok:
        print(f"invalid cover result: {diags}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_cycles(args) -> int:
    h, col = _load_colored(args.input)
    parity_red, parity_blue = _parse_parity(args.parity)
    outcome = search_cycle_pair(
        h,
        col,
        max_uncovered=args.max_uncovered,
        parity_red=parity_red,
        parity_blue=parity_blue,
        budget_ms=args.budget_ms,
    )
    doc = cycle_pair_to_json(outcome)
    doc["n"] = h.n
    doc["max_uncovered"] = args.max_uncovered
    doc["parity"] = {"red": parity_red, "blue": parity_blue}
    _emit(canonical_json(doc), args.out)
    return EXIT_OK if outcome.found else EXIT_ABSENT


def cmd_oracle(args) -> int:
    h, col = load_instance(args.input)
    if args.task == "matching":
        if col is None:
            raise ValueError("matching oracle needs a colored instance")
        rep = oracle_matching_cover(h, col)
        doc = oracle_report_to_json(rep)
    elif args.task == "cycle-pair":
        if col is None:
            raise ValueError("cycle oracle needs a colored instance")
        parity_red, parity_blue = _parse_parity(args.parity)
        rep = oracle_cycle_pair(h, col, parity_red, parity_blue)
        doc = oracle_report_to_json(rep)
        doc["parity"] = {"red": parity_red, "blue": parity_blue}
    elif args.task == "perfect-matching":
        doc = {"type": "oracle", "exists": oracle_perfect_matching(h)}
    else:
        raise ValueError(f"unknown oracle task {args.task!r}")
    _emit(canonical_json(doc), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = json.loads(Path(args.input).read_text())
    if not isinstance(doc, dict):
        raise FormatError("result file must hold a JSON object")
    h, col = _load_colored(args.instance)
    kind = doc.get("type")
    if kind == "cover":
        result = cover_from_json(doc)
        ok, diags = verify_cover(result, h, col)
    elif kind == "cycle-pair":
        if doc.get("status") != "found":
            print("nothing to verify: no pair in result", file=sys.stderr)
            return EXIT_ABSENT
        for key in ("red", "blue", "uncovered"):
            if not isinstance(doc.get(key), list) or any(type(v) is not int for v in doc[key]):
                raise FormatError(f"cycle-pair result needs an integer array {key!r}")
        pair = CyclePair(
            red=TightCycle(tuple(doc["red"])),
            blue=TightCycle(tuple(doc["blue"])),
            uncovered=tuple(doc["uncovered"]),
        )
        ok, diags = verify_cycle_pair(pair, h, col)
    else:
        raise ValueError(f"cannot verify result type {kind!r}")
    if ok:
        print("valid")
        return EXIT_OK
    print("invalid: " + "; ".join(diags), file=sys.stderr)
    return EXIT_ERROR


def cmd_reduce(args) -> int:
    h, col = load_instance(args.input)
    h_red = col.subhypergraph(Color.RED) if col is not None else h
    part_doc = json.loads(Path(args.partition).read_text())
    if not isinstance(part_doc, dict) or not isinstance(part_doc.get("bip", {}), dict):
        raise FormatError('partition must be a JSON object {"classes": [..], "bip": {..}}')
    classes = int_rows(part_doc.get("classes"), None, "class")
    outside = sorted({v for c in classes for v in c} - h.vertices)
    if outside:
        raise FormatError(f"class vertices {outside} are not vertices of the host")
    bip = {}
    for key, pairs in part_doc.get("bip", {}).items():
        i, j = (int(x) for x in key.split(","))
        bip[(i, j)] = int_rows(pairs, 2, f"bip {key} pair")
    flags = None
    if args.regular_flags:
        flags_doc = json.loads(Path(args.regular_flags).read_text())
        if not isinstance(flags_doc, dict):
            raise FormatError('regular flags must be a JSON object {"regular": [..]}')
        flags = int_rows(flags_doc.get("regular"), 3, "regular flag")
    reduced = build_reduced(classes, bip, h_red, regular_flags=flags)
    host = reduced.host()
    rcol = Coloring(host, [e for e in reduced.edges if reduced.colors[e] is Color.RED])
    _emit(h3json_dumps(host, rcol), args.out)
    dens = {
        ",".join(map(str, e)): f"{d.numerator}/{d.denominator}"
        for e, d in sorted(reduced.densities.items())
    }
    sidecar = (args.out or "reduced.h3json") + ".densities.json"
    Path(sidecar).write_text(canonical_json({"densities": dens}))
    return EXIT_OK


def _sweep_one(task: tuple) -> tuple:
    model, n, p, gamma, seed, classes, color = task
    timings = {}
    t0 = time.perf_counter()
    col = _generate(model, n, p, seed, classes, color, None)
    timings["gen"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = cover(col.host, col, gamma)
    timings["solve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ok, _ = verify_cover(result, col.host, col)
    timings["verify"] = time.perf_counter() - t0
    row = {
        "model": model,
        "n": n,
        "p": p,
        "gamma": gamma,
        "seed": seed,
        "covered": result.covered,
        "uncovered_count": len(result.uncovered),
        "valid": ok,
    }
    return row, timings


SWEEP_FIELDS = ["model", "n", "p", "gamma", "seed", "covered", "uncovered_count", "valid"]


def cmd_sweep(args) -> int:
    seeds = _parse_seeds(args.seeds)
    ns = [int(x) for x in str(args.n).split(",")]
    tasks = [
        (args.model, n, args.p, args.gamma, seed, args.classes, args.color)
        for n in ns
        for seed in seeds
    ]
    raw = os.environ.get("RCOVER_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"RCOVER_THREADS must be a positive integer, got {raw!r}")
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_sweep_one, tasks))
    else:
        outputs = [_sweep_one(t) for t in tasks]
    # merge in task order: output is independent of worker scheduling
    rows = [row for row, _ in outputs]
    all_valid = all(r["valid"] for r in rows)

    if args.format == "json":
        _emit(canonical_json({"rows": rows}), args.out)
    else:
        target = Path(args.out) if args.out else None
        writer_target = target.open("w", newline="") if target else sys.stdout
        try:
            w = csv.DictWriter(writer_target, fieldnames=SWEEP_FIELDS)
            w.writeheader()
            for r in rows:
                w.writerow(r)
        finally:
            if target:
                writer_target.close()
    if args.out:
        sidecar = args.out + ".timings.csv"
        with open(sidecar, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["model", "n", "p", "gamma", "seed", "stage", "seconds"])
            for (row, timings) in outputs:
                for stage, sec in timings.items():
                    w.writerow(
                        [row["model"], row["n"], row["p"], row["gamma"], row["seed"], stage, f"{sec:.6f}"]
                    )
    return EXIT_OK if all_valid else EXIT_ERROR


# -- argument parsing ------------------------------------------------------------


def _classes_arg(spec: str) -> list[int]:
    return [int(x) for x in spec.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rcover",
        description="Two-color covering toolkit for 3-uniform hypergraphs",
    )
    ap.add_argument("--version", action="version", version=f"rcover {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a colored instance file")
    g.add_argument("--model", default="uniform", choices=["uniform", "mono", "planted", "fromfile"])
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--classes", type=_classes_arg, default=None)
    g.add_argument("--color", default="R", choices=["R", "B"])
    g.add_argument("--input", default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="connected-matching cover of a colored instance")
    s.add_argument("--input", required=True)
    s.add_argument("--gamma", type=float, default=1e-3)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("cycles", help="exact disjoint tight-cycle pair search")
    c.add_argument("--input", required=True)
    c.add_argument("--max-uncovered", type=int, default=0)
    c.add_argument("--parity", default="", help="red=even|odd|any,blue=...")
    c.add_argument("--budget-ms", type=int, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_cycles)

    o = sub.add_parser("oracle", help="brute-force ground truth on small instances")
    o.add_argument("--input", required=True)
    o.add_argument("--task", default="matching", choices=["matching", "cycle-pair", "perfect-matching"])
    o.add_argument("--parity", default="")
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)

    v = sub.add_parser("verify", help="re-check a result file against its instance")
    v.add_argument("--input", required=True, help="result JSON")
    v.add_argument("--instance", required=True, help="instance file")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("reduce", help="majority-colored reduced hypergraph from a partition")
    r.add_argument("--input", required=True, help="instance (colors optional: red part used)")
    r.add_argument("--partition", required=True, help='JSON {"classes": [[v..]..], "bip": {"i,j": [[x,y]..]}}')
    r.add_argument("--regular-flags", default=None, help='JSON {"regular": [[i,j,k]..]}')
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_reduce)

    w = sub.add_parser("sweep", help="batch gen+solve+verify over seeds")
    w.add_argument("--model", default="uniform", choices=["uniform", "mono", "planted"])
    w.add_argument("--n", required=True, help="single value or comma list")
    w.add_argument("--p", type=float, default=0.5)
    w.add_argument("--gamma", type=float, default=1e-3)
    w.add_argument("--seeds", required=True, help="single seed or range A..B")
    w.add_argument("--classes", type=_classes_arg, default=None)
    w.add_argument("--color", default="R", choices=["R", "B"])
    w.add_argument("--format", default="csv", choices=["json", "csv"])
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RcoverError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
