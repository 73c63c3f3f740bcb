"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install(m)`` replaces each traced rcover function, in every rcover
module that holds a reference to it, with a wrapper that records a span
``[name, start, end, parent, op]`` and derives counters from the call's
arguments and result.  ``uninstall`` puts the originals back.  Nothing under
``src/`` changes, and the untraced run never installs a wrapper.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children; every span hangs under a root span that the
runner opens (``bench.setup``, ``bench.op`` or ``bench.check``), so the self
times under a root kind add up to the total duration of those roots.
Counters are kept per root kind too, so work done in set-up or in a check
never counts as work of an op.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import wraps
from math import comb
from time import perf_counter

# (module, attribute, span name) of every traced function.
TRACED = (
    ("generators", "uniform_instance", "generators.uniform_instance"),
    ("generators", "planted_partition_instance", "generators.planted_partition_instance"),
    ("core", "connected_components", "core.connected_components"),
    ("core", "connecting_path", "core.connecting_path"),
    ("matcher", "cover", "matcher.cover"),
    ("matcher", "clean", "matcher.clean"),
    ("matcher", "partition_vertices", "matcher.partition_vertices"),
    ("matcher", "local_search_matching", "matcher.local_search_matching"),
    ("matcher", "build_matching", "matcher.build_matching"),
    ("matcher", "mono_connecting_path", "matcher.mono_connecting_path"),
    ("matcher", "residual_component", "matcher.residual_component"),
    ("matcher", "perfect_matching_dense", "matcher.perfect_matching_dense"),
    ("matcher", "dissolve_matching", "matcher.dissolve_matching"),
    ("matcher", "verify_cover", "matcher.verify_cover"),
    ("formats", "h3bits_loads", "formats.h3bits_loads"),
    ("formats", "h3bits_dumps", "formats.h3bits_dumps"),
    ("cycles", "search_cycle_pair", "cycles.search_cycle_pair"),
    ("cycles", "verify_cycle_pair", "cycles.verify_cycle_pair"),
    ("oracle", "oracle_cycle_pair", "oracle.oracle_cycle_pair"),
)
# (class, span name) of every traced constructor.
TRACED_INITS = (("Hypergraph3", "core.Hypergraph3.init"), ("Coloring", "core.Coloring.init"))
MOVE_KINDS = ("greedy-add", "one-for-two", "two-for-three")


def _count_cover(counts, result):
    """Move, branch and early-exit counts from a CoverResult's trace."""
    for ev in result.trace:
        stage, detail = ev["stage"], ev["detail"]
        if stage == "move":
            counts["matcher.moves." + detail["kind"]] += 1
        elif stage == "early-exit":
            counts["matcher.early_exit"] += 1
        elif stage == "branch":
            counts["matcher.branch.attempted"] += 1
            if "residual" in detail:  # its candidate verified
                counts["matcher.branch.applied"] += 1
        elif stage == "select" and detail["covered"] > detail["candidates"][0]:
            counts["matcher.branch.selected"] += 1  # beat the local-search cover


def _on_return(name, counts, args, result, rec):
    """Counters measured where the work happens; may rename the span."""
    if name == "generators.uniform_instance":
        counts["rng.draws"] += comb(args[0], 3)
    elif name == "core.connected_components":
        counts["core.components_found"] += len(result)
    elif name == "matcher.clean":
        deleted = len(result[1].deleted)
        counts["matcher.clean.deleted_vertices"] += deleted
        counts["matcher.clean.useful"] += deleted > 0
    elif name == "matcher.cover":
        _count_cover(counts, result)
    elif name == "matcher.build_matching":
        counts["matcher.certificate_edges"] += sum(len(p.edges) for p in result.certificates)
    elif name == "formats.h3bits_loads":
        counts["formats.h3bits_loads.bytes"] += len(args[0])
    elif name == "cycles.search_cycle_pair":
        counts["cycles.status." + result.status] += 1
        rec[0] = f"{name}.{result.status}"


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)  # root name -> counters
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; counters come from its result."""
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        counts = self.counts[spans[stack[0]][0] if stack else name]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()
        counts[name + ".calls"] += 1
        _on_return(name, counts, args, result, rec)
        return result

    def _wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def install(self, m):
        """Wrap every TRACED function wherever the rcover modules refer to it."""
        self.uninstall()
        modules = list(vars(m).values())
        for mod_name, attr, name in TRACED:
            original = getattr(getattr(m, mod_name), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls_name, name in TRACED_INITS:
            cls = getattr(m.core, cls_name)
            self._patched.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(name, cls.__init__)

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span: (name, root name, self seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = [None] * len(spans)
        for i, (name, start, end, parent, _op) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = name
        return [(s[0], root[i], s[2] - s[1] - child[i]) for i, s in enumerate(spans)]

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
