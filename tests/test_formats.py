"""File formats: h3json/h3bits round trips, exact bytes, result payloads."""

import json
import re

import pytest

from rcover.core import Coloring, Hypergraph3
from rcover.cycles import SearchOutcome, search_cycle_pair
from rcover.errors import FormatError
from rcover.formats import (
    canonical_json,
    cover_from_json,
    cover_to_json,
    cycle_pair_from_json,
    cycle_pair_to_json,
    h3bits_dumps,
    h3bits_loads,
    h3json_dumps,
    h3json_loads,
    load_instance,
    save_instance,
)
from rcover.generators import uniform_instance
from rcover.matcher import cover, verify_cover


def test_h3json_roundtrip_uncolored():
    h = Hypergraph3(6, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
    text = h3json_dumps(h)
    h2, col = h3json_loads(text)
    assert col is None
    assert h2.n == h.n and h2.edges == h.edges
    assert h3json_dumps(h2) == text  # canonical: reserialization is identical


def test_h3json_roundtrip_colored():
    col = uniform_instance(7, 0.5, 9)
    text = h3json_dumps(col.host, col)
    h2, col2 = h3json_loads(text)
    assert col2 is not None
    assert col2.red == col.red
    assert h3json_dumps(h2, col2) == text


def test_h3json_validation():
    with pytest.raises(FormatError):
        h3json_loads("{}")
    with pytest.raises(FormatError):
        h3json_loads('{"n": 4, "edges": [[2,1,0]]}')
    with pytest.raises(FormatError):
        h3json_loads('{"n": 4, "edges": [[0,1,2]], "colors": []}')


def test_h3json_type_checks():
    for text in (
        '{"format":"h3json","n":"5","edges":[]}',
        '{"n": 5.0, "edges": []}',
        '{"n": true, "edges": []}',
        '{"n": 5, "edges": [[0, 1, "2"]]}',
        '{"n": 5, "edges": [[0, 1.0, 2]]}',
        '{"n": 5, "edges": [7]}',
        '{"n": 5, "edges": 7}',
        '{"n": 5, "edges": [[0, 1, 2]], "colors": 1}',
        '{"n": 5, "edges": [[-3, -2, -1]]}',
    ):
        with pytest.raises(FormatError):
            h3json_loads(text)


def test_cover_from_json_rejects_malformed_documents():
    col = uniform_instance(8, 0.5, 21)
    good = cover_to_json(cover(col.host, col, 1e-3))
    cover_from_json(good)
    bad_edges = dict(good, red=dict(good["red"], edges=[["a", "b", "c"]]))
    for doc in ({"type": "cover"}, [], dict(good, red=1), dict(good, blue=None), bad_edges):
        with pytest.raises(FormatError):
            cover_from_json(doc)
    # a negative or non-ascending triple is named, in the edges or in a certificate
    negative = dict(good, red=dict(good["red"], edges=[[-3, -2, -1]]))
    descending = dict(good, blue=dict(good["blue"], certificates=[[[0, 1, 2], [4, 3, 5]]]))
    for doc, named in ((negative, "(-3, -2, -1)"), (descending, "(4, 3, 5)")):
        with pytest.raises(FormatError, match=re.escape(named)):
            cover_from_json(doc)


def test_cycle_pair_json_round_trip():
    col = uniform_instance(8, 0.5, 3)
    found = search_cycle_pair(col.host, col, max_uncovered=2)
    assert found.found
    for outcome in (found, SearchOutcome("exhausted"), SearchOutcome("timeout")):
        doc = json.loads(canonical_json(cycle_pair_to_json(outcome)))
        assert cycle_pair_from_json(doc) == outcome
    for doc in ({"type": "cover"}, {"type": "cycle-pair"}, {"type": "cycle-pair", "status": "found"}):
        with pytest.raises(FormatError):
            cycle_pair_from_json(doc)


def test_h3bits_exact_bytes():
    # n=4: triples in colex order are {0,1,2},{0,1,3},{0,2,3},{1,2,3};
    # red at colex 0 and 2 packs (LSB first) to the single byte 0b0101 = 5
    host = Hypergraph3.complete(4)
    col = Coloring(host, [(0, 1, 2), (0, 2, 3)])
    data = h3bits_dumps(col)
    assert data == b"H3BITS 4\n\x05"
    h2, col2 = h3bits_loads(data)
    assert h2.n == 4
    assert col2.red == {(0, 1, 2), (0, 2, 3)}


def test_h3bits_roundtrip():
    col = uniform_instance(9, 0.3, 123)
    h2, col2 = h3bits_loads(h3bits_dumps(col))
    assert col2.red == col.red and col2.blue == col.blue


def test_h3bits_requires_complete_host():
    h = Hypergraph3(5, [(0, 1, 2)])
    with pytest.raises(FormatError):
        h3bits_dumps(Coloring(h, [(0, 1, 2)]))


def test_h3bits_header_errors():
    with pytest.raises(FormatError):
        h3bits_loads(b"NOPE 4\n\x05")
    with pytest.raises(FormatError):
        h3bits_loads(b"H3BITS 4\n")  # payload too short


def test_h3bits_rejects_nonzero_padding():
    # n=5: C(5,3) = 10 colors in 2 bytes; bit 15 is padding
    data = bytearray(h3bits_dumps(uniform_instance(5, 0.5, 1)))
    h3bits_loads(bytes(data))
    data[-1] |= 0x80
    with pytest.raises(FormatError):
        h3bits_loads(bytes(data))


def test_save_load_sniffing(tmp_path):
    col = uniform_instance(6, 0.5, 4)
    bits = tmp_path / "a.h3bits"
    js = tmp_path / "a.h3json"
    save_instance(bits, col.host, col)
    save_instance(js, col.host, col)
    for path in (bits, js):
        h, c = load_instance(path)
        assert c is not None and c.red == col.red


def test_cover_result_json_roundtrip():
    col = uniform_instance(8, 0.5, 21)
    res = cover(col.host, col, 1e-3)
    doc = cover_to_json(res)
    back = cover_from_json(doc)
    assert back.covered == res.covered
    assert back.red.edges == res.red.edges
    assert back.blue.certificates == res.blue.certificates
    ok, diags = verify_cover(back, col.host, col)
    assert ok, diags
