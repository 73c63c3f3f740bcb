"""Instance and result file formats.

h3json
    JSON object with fields ``n`` (int), ``edges`` (array of [a,b,c] with
    a < b < c, sorted by colex index) and optional ``colors`` (array of
    "R"/"B" aligned with ``edges``).  Serialized canonically: sorted keys,
    compact separators, trailing newline — byte-exact for a given instance.

h3bits
    Complete colorings only.  Header line ``H3BITS n`` followed by
    ceil(C(n,3) / 8) bytes.  Bit j of byte k (least significant bit first)
    is the color of the triple with colex index 8k + j; 1 means red.  The
    payload is the coloring's red bits in little-endian order, and the
    padding bits after bit C(n,3) - 1 must be zero.

Result payloads (cover results, cycle pairs, oracle reports) are plain JSON
documents produced by the ``*_to_json`` helpers below, and cover results and
cycle pairs are read back by the matching ``*_from_json``; timing data is never
part of them so reruns are byte-identical.

Cover trace
    ``trace`` is a list of ``{"stage", "detail"}`` events.  ``clean`` and
    ``partition`` come first, once each; ``move`` events follow in the order
    applied.  The detail keys of each stage:

    * ``clean``: t_before, t_after, deleted, rounds, deactivated_pairs,
      bound_held;
    * ``partition``: major_red, major_blue (component ids or null);
    * ``move``: kind (greedy-add, one-for-two, two-for-three), removed,
      added, covered (after the move).
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

from .core import Color, Coloring, Hypergraph3, PseudoPath, colex_index
from .errors import FormatError

_H3BITS_MAGIC = b"H3BITS"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def int_rows(rows, width: int | None = 3, what: str = "edge") -> list[tuple[int, ...]]:
    """Tuples from a JSON array of integer arrays; FormatError otherwise.

    Each array holds ``width`` integers, or any number when ``width`` is None.
    """
    if not isinstance(rows, list):
        raise FormatError(f"expected an array of {what} arrays")
    for r in rows:
        if not isinstance(r, list) or width not in (None, len(r)) or any(type(v) is not int for v in r):
            raise FormatError(f"{what} {r!r} is not an array of {width or 'any number of'} integers")
    return [tuple(r) for r in rows]


def triple_rows(rows, what: str = "edge") -> list[tuple[int, int, int]]:
    """Ascending triples of non-negative integers from a JSON array; FormatError otherwise."""
    triples = int_rows(rows, 3, what)
    for t in triples:
        if not 0 <= t[0] < t[1] < t[2]:
            raise FormatError(f"{what} {t} is not an ascending triple of non-negative integers")
    return triples


# -- h3json ------------------------------------------------------------------


def h3json_dumps(h: Hypergraph3, col: Coloring | None = None) -> str:
    doc: dict = {"n": h.n, "edges": [list(t) for t in h.edges]}
    if col is not None:
        if col.host.edge_bits != h.edge_bits:
            raise FormatError("coloring does not match the hypergraph")
        doc["colors"] = col.color_sequence()
    return canonical_json(doc)


def h3json_loads(text: str) -> tuple[Hypergraph3, Coloring | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise FormatError("h3json needs 'n' and 'edges' fields")
    n = doc["n"]
    if type(n) is not int:
        raise FormatError(f"'n' must be an integer, got {n!r}")
    edges = triple_rows(doc["edges"])
    try:
        h = Hypergraph3(n, edges)
    except MemoryError:  # the edge mask has C(n, 3) bits
        raise FormatError(f"n = {n} is too large: its edge mask does not fit in memory") from None
    colors = doc.get("colors")
    if colors is None:
        return h, None
    if not isinstance(colors, list) or len(colors) != len(edges):
        raise FormatError("colors array must align with edges")
    order = sorted(range(len(edges)), key=lambda i: colex_index(edges[i]))
    col = Coloring.from_sequence(h, [colors[i] for i in order])
    return h, col


# -- h3bits ------------------------------------------------------------------


def h3bits_dumps(col: Coloring) -> bytes:
    h = col.host
    total = comb(h.n, 3)
    if h.edge_count != total:
        raise FormatError("h3bits requires a complete host")
    payload = col.red_bits.to_bytes((total + 7) // 8, "little")
    return _H3BITS_MAGIC + b" " + str(h.n).encode() + b"\n" + payload


def h3bits_loads(data: bytes) -> tuple[Hypergraph3, Coloring]:
    if not data.startswith(_H3BITS_MAGIC):
        raise FormatError("missing H3BITS header")
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError("missing header newline")
    header = data[:nl].split()
    if len(header) != 2:
        raise FormatError("header must be 'H3BITS n'")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise FormatError("bad vertex count in header") from exc
    total = comb(n, 3)
    body = data[nl + 1 :]
    if len(body) != (total + 7) // 8:
        raise FormatError(
            f"expected {(total + 7) // 8} payload bytes, got {len(body)}"
        )
    red = int.from_bytes(body, "little")
    if red >> total:
        raise FormatError("non-zero padding bits after the last color")
    host = Hypergraph3.complete(n)
    return host, Coloring.from_bits(host, red)


# -- file helpers ------------------------------------------------------------


def save_instance(path, h: Hypergraph3, col: Coloring | None = None) -> None:
    path = Path(path)
    if path.suffix == ".h3bits":
        if col is None:
            raise FormatError("h3bits stores colorings; none given")
        path.write_bytes(h3bits_dumps(col))
    else:
        path.write_text(h3json_dumps(h, col))


def load_instance(path) -> tuple[Hypergraph3, Coloring | None]:
    """Sniffs h3bits by magic, otherwise parses h3json."""
    data = Path(path).read_bytes()
    if data.startswith(_H3BITS_MAGIC):
        return h3bits_loads(data)
    return h3json_loads(data.decode())


# -- result payloads ---------------------------------------------------------


def matching_to_json(m) -> dict:
    return {
        "color": m.color.value,
        "edges": [list(e) for e in m.edges],
        "component": m.component_id,
        "certificates": [[list(e) for e in p.edges] for p in m.certificates],
    }


def matching_from_json(doc) -> "ConnectedMatching":
    from .matcher import ConnectedMatching

    return ConnectedMatching(
        color=Color(doc["color"]),
        edges=tuple(triple_rows(doc["edges"])),
        component_id=doc["component"],
        certificates=tuple(PseudoPath(tuple(triple_rows(p, "certificate edge"))) for p in doc["certificates"]),
    )


def cover_to_json(r) -> dict:
    return {
        "type": "cover",
        "red": matching_to_json(r.red),
        "blue": matching_to_json(r.blue),
        "covered": r.covered,
        "uncovered": list(r.uncovered),
        "trace": [dict(ev) for ev in r.trace],
    }


def cover_from_json(doc) -> "CoverResult":
    from .matcher import CoverResult

    if not isinstance(doc, dict) or doc.get("type") != "cover":
        raise FormatError("not a cover result document")
    try:
        return CoverResult(
            red=matching_from_json(doc["red"]),
            blue=matching_from_json(doc["blue"]),
            covered=doc["covered"],
            uncovered=tuple(doc["uncovered"]),
            trace=tuple(doc["trace"]),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"malformed cover result: {type(exc).__name__} {exc}") from exc


def cycle_pair_to_json(outcome) -> dict:
    doc = {"type": "cycle-pair", "status": outcome.status}
    if outcome.pair is not None:
        doc["red"] = list(outcome.pair.red.order)
        doc["blue"] = list(outcome.pair.blue.order)
        doc["uncovered"] = list(outcome.pair.uncovered)
    return doc


def cycle_pair_from_json(doc) -> "SearchOutcome":
    from .cycles import CyclePair, SearchOutcome, TightCycle

    if not isinstance(doc, dict) or doc.get("type") != "cycle-pair":
        raise FormatError("not a cycle-pair result document")
    status = doc.get("status")
    if status not in ("found", "exhausted", "timeout"):
        raise FormatError(f"cycle-pair result has unknown status {status!r}")
    if status != "found":
        return SearchOutcome(status)
    for key in ("red", "blue", "uncovered"):
        if not isinstance(doc.get(key), list) or any(type(v) is not int for v in doc[key]):
            raise FormatError(f"cycle-pair result needs an integer array {key!r}")
    pair = CyclePair(TightCycle(tuple(doc["red"])), TightCycle(tuple(doc["blue"])), tuple(doc["uncovered"]))
    return SearchOutcome(status, pair)


def oracle_report_to_json(rep) -> dict:
    return {
        "type": "oracle",
        "optimum": rep.optimum,
        "witness": rep.witness,
        "instances_searched": rep.instances_searched,
    }
