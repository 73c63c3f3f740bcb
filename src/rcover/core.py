"""3-uniform hypergraphs: canonical triples, pair links, pseudo-path connectivity.

Vertices are integers in [0, n).  An edge is a strictly increasing triple
(a, b, c), totally ordered by its colex index C(c,3) + C(b,2) + C(a,1).
Every edge set -- a host's edges, a coloring's red class -- is one integer
whose bit i is set iff the triple of colex index i is present; the same
integer is the payload of the ``h3bits`` file format.  Triples are decoded
from the set bits on demand and come out in colex order.  The link of a
pair is a bitmask over vertex ids.  Each host keeps one flat link table,
``links()[x * n + y]``, filled in both orders with a zero diagonal, and the
same links packed as one integer per vertex (``link_blocks()``).  Both are
built once, lazily, off the edge bits: a host complete on its vertex set
needs no edge pass, any other host takes a fixed number of big-integer
operations (a row layout of the colex slices, a row permutation and one
bit transpose), and a coloring's blue table is the host's XOR the red one.
Pseudo-path components come from the link blocks: every vertex's link
graph is searched at once on packed rows, and the parts are glued.  Every
shadow, component and path query reads those tables.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import InvalidPairError, NotAnEdgeError

Triple = tuple[int, int, int]
Pair = tuple[int, int]


class Color(str, Enum):
    RED = "R"
    BLUE = "B"

    def other(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED


def canon_triple(a: int, b: int, c: int) -> Triple:
    """Sort three distinct vertex ids into canonical ascending order."""
    if a == b or a == c or b == c:
        raise ValueError(f"triple needs three distinct vertices, got {(a, b, c)}")
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
    if a > b:
        a, b = b, a
    return (a, b, c)


def colex_index(t: Triple) -> int:
    """Position of a canonical triple in colex order: C(c,3) + C(b,2) + C(a,1)."""
    a, b, c = t
    return comb(c, 3) + comb(b, 2) + a


def colex_inverse(index: int) -> Triple:
    """Inverse of colex_index; independent of any ambient vertex count."""
    if index < 0:
        raise ValueError("colex index must be nonnegative")
    c = 2
    while comb(c + 1, 3) <= index:
        c += 1
    rem = index - comb(c, 3)
    b = 1
    while comb(b + 1, 2) <= rem:
        b += 1
    a = rem - comb(b, 2)
    return (a, b, c)


def triple_mask(t: Triple) -> int:
    a, b, c = t
    return (1 << a) | (1 << b) | (1 << c)


def tight_adjacent(e: Triple, f: Triple) -> bool:
    """True iff the two triples share exactly two vertices."""
    shared = len(set(e) & set(f))
    return shared == 2


def mask_bits(mask: int):
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def index_mask(indices, size: int) -> int:
    """Integer with exactly the given bit positions set, each below ``size``."""
    buf = bytearray((size + 7) >> 3)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def edge_mask(n: int, edges, vertex_mask: int) -> int:
    """Colex mask of canonical triples whose vertices lie in ``vertex_mask``."""
    indices = []
    for t in edges:
        if len(t) != 3 or not (t[0] < t[1] < t[2]):
            raise ValueError(f"edge {t} is not a canonical triple")
        if triple_mask(t) & ~vertex_mask:
            raise ValueError(f"edge {t} uses a vertex outside the vertex set")
        indices.append(colex_index(t))
    return index_mask(indices, comb(n, 3))


def within_mask(vertex_mask: int) -> int:
    """Colex mask of every triple with all three vertices in ``vertex_mask``."""
    out = pairs = 0  # pairs: colex mask of the pairs below the current vertex
    for c in mask_bits(vertex_mask):
        out |= pairs << comb(c, 3)
        pairs |= (vertex_mask & ((1 << c) - 1)) << comb(c, 2)
    return out


def colex_slices(bits: int):
    """Yield (b, c, part) for every nonzero slice of a colex mask.

    The mask is consumed in blocks: C(c,2) bits for the triples with largest
    vertex c, within which b bits for each second-largest vertex b.  Bit a of
    ``part`` is set iff the triple (a, b, c) is present, so ``part`` is the
    part below b of the link of the pair bc.
    """
    c = 2
    while bits:
        width = comb(c, 2)
        block = bits & ((1 << width) - 1)
        bits >>= width
        b = 1
        while block:
            part = block & ((1 << b) - 1)
            block >>= b
            if part:
                yield b, c, part
            b += 1
        c += 1


def decode_edges(bits: int) -> tuple[Triple, ...]:
    """Triples of the set bits of a colex mask, in colex order."""
    out = []
    for b, c, part in colex_slices(bits):
        out += [(a, b, c) for a, bit in enumerate(reversed(f"{part:b}")) if bit == "1"]
    return tuple(out)


# -- packed rows ------------------------------------------------------------
#
# A packed matrix is one integer holding rows of w bits, row r at bits
# [r * w, (r + 1) * w), with w = row_width(n) a whole number of bytes, so a
# row is also rb = w // 8 bytes of the little-endian byte string.

_WORD = {array(code).itemsize: code for code in "BHILQ"}  # array typecode per byte size
_CHUNK_BITS = 1 << 21  # largest integer the link-table transpose works on: n <= 128 in one go


def row_width(n: int) -> int:
    """Bits per packed row for vertex ids below n: a power of two >= max(8, n)."""
    return max(8, 1 << (n - 1).bit_length())


def _rows_of(buf, rb: int) -> list[int]:
    """The rb-byte little-endian rows of a byte string, as ints."""
    words = array(_WORD[min(rb, 8)])
    words.frombytes(buf)
    if sys.byteorder == "big":
        words.byteswap()
    k = rb >> 3  # 64-bit words per row, when a row is wider than one
    if k < 2:
        return words.tolist()
    rows = words[k - 1 :: k].tolist()
    for j in range(k - 2, -1, -1):
        rows = [r << 64 | x for r, x in zip(rows, words[j::k])]
    return rows


def _pack(rows, rb: int) -> int:
    """Inverse of ``_rows_of``: the rows, each below 2**(8 * rb), as one integer."""
    if rb > 8:
        return int.from_bytes(b"".join(r.to_bytes(rb, "little") for r in rows), "little")
    words = array(_WORD[rb], rows)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


@lru_cache(maxsize=16)
def _transpose_steps(w: int) -> tuple[tuple[int, bytes], ...]:
    """(shift, mask of one w x w block) of each delta swap of a bit transpose.

    Step j swaps the bit (r, c), r without and c with bit j, and the bit
    (r + j, c - j), which lies j * (w - 1) places higher.
    """
    rb = w >> 3
    steps = []
    j = w >> 1
    while j:
        row = sum(1 << c for c in range(w) if c & j).to_bytes(rb, "little")
        steps.append((j * (w - 1), b"".join(bytes(rb) if r & j else row for r in range(w))))
        j >>= 1
    return tuple(steps)


def _build_link_table(n: int, bits: int) -> list[int]:
    """Flat link table of a colex edge mask (see ``Hypergraph3.links``), word-parallel.

    The table is a bit cube T(x, y, z) = [xyz is an edge], laid out as rows
    (x, y) of w bits z, y padded to w.  S holds each edge abc once, at row
    (c, b) bit a: the ``colex_slices`` themselves.  s2 swaps the two row
    axes (a row permutation) and s1 swaps y with z (a bit transpose of every
    w x w block), so the six images of each triple are
    T = (1 + s2)(S + s1(S + s2 S)), all disjoint, with one transpose.  The
    transpose runs on runs of whole blocks of at most _CHUNK_BITS bits, so
    its temporaries stay small on large hosts.
    """
    w = row_width(n)
    rb = w >> 3
    rows = [0] * (n * w)
    for b, c, part in colex_slices(bits):
        rows[c * w + b] = part
    sym = rows[:]
    for x in range(n - 1):  # s2: upper row (x, y) from lower row (y, x)
        sym[x * w + x + 1 : x * w + n] = sym[(x + 1) * w + x :: w]
    links: list[int] = []
    step = max(1, _CHUNK_BITS // (w * w))
    for x0 in range(0, n, step):
        span = slice(x0 * w, min(n, x0 + step) * w)
        blocks = (span.stop - span.start) // w
        t = _pack(sym[span], rb)
        for shift, block in _transpose_steps(w):  # s1
            mask = int.from_bytes(block * blocks, "little")
            d = (t ^ t >> shift) & mask
            t ^= d ^ d << shift
        lower = (_pack(rows[span], rb) | t).to_bytes(blocks * w * rb, "little")  # rows y < x
        links += _rows_of(b"".join(lower[x * w * rb : (x * w + n) * rb] for x in range(blocks)), rb)
    for x in range(n - 1):  # s2 again, on the flat table
        links[x * n + x + 1 : (x + 1) * n] = links[(x + 1) * n + x :: n]
    return links


class Hypergraph3:
    """Immutable 3-uniform hypergraph on a vertex subset of [0, n).

    ``vertices`` defaults to all of range(n); induced subhypergraphs keep the
    original vertex labels and simply restrict the vertex set.  The state is
    ``n``, the vertex bitmask ``vertex_mask`` and the colex edge bitmask
    ``edge_bits``; ``edges`` decodes the latter on demand.  The link table
    ``links()`` is a flat list of n * n masks, ``links()[x * n + y]`` the
    link of the pair xy in either order, and ``link_blocks()`` packs it by
    vertex; both are built lazily and cached, and instances are safe to
    share across threads once constructed.
    """

    __slots__ = ("n", "vertex_mask", "edge_bits", "_links", "_blocks")

    def __init__(self, n: int, edges, vertices=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        vmask = (1 << n) - 1
        if vertices is not None:
            vmask = 0
            for v in vertices:
                if v < 0 or v >= n:
                    raise ValueError("vertices must lie in [0, n)")
                vmask |= 1 << v
        self._init(n, edge_mask(n, edges, vmask), vmask)

    def _init(self, n: int, edge_bits: int, vertex_mask: int) -> None:
        self.n = n
        self.edge_bits = edge_bits
        self.vertex_mask = vertex_mask
        self._links = self._blocks = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bits(cls, n: int, edge_bits: int, vertex_mask: int) -> "Hypergraph3":
        """Host from a colex edge mask whose triples lie inside ``vertex_mask``."""
        h = cls.__new__(cls)
        h._init(n, edge_bits, vertex_mask)
        return h

    @classmethod
    def complete(cls, n: int) -> "Hypergraph3":
        return cls.from_bits(n, (1 << comb(n, 3)) - 1, (1 << n) - 1)

    def induced(self, vertex_subset) -> "Hypergraph3":
        """Subhypergraph on a vertex subset, keeping original labels."""
        kmask = 0
        for v in vertex_subset:
            kmask |= 1 << v
        if kmask & ~self.vertex_mask:
            raise ValueError("subset must be contained in the vertex set")
        return Hypergraph3.from_bits(self.n, self.edge_bits & within_mask(kmask), kmask)

    # -- basic queries -----------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(mask_bits(self.vertex_mask))

    @property
    def t(self) -> int:
        """Number of vertices (the proof-side t)."""
        return self.vertex_mask.bit_count()

    @property
    def edges(self) -> tuple[Triple, ...]:
        """Edges in colex order, decoded from the edge bits."""
        return decode_edges(self.edge_bits)

    @property
    def edge_count(self) -> int:
        return self.edge_bits.bit_count()

    def has_edge(self, t: Triple) -> bool:
        a, b, c = t
        return 0 <= a < b < c and bool(self.edge_bits >> colex_index(t) & 1)

    def links(self) -> list[int]:
        """Flat link table: ``links[x * n + y]`` is the link mask of xy; built once.

        Both orders are filled and the diagonal is 0.  On a host complete on
        its vertex set, link(x, y) is the vertex mask minus x and y: one
        template row, with x cleared, per vertex x.  Otherwise the table is
        read off the edge bits by ``_build_link_table``, in a fixed number
        of big-integer and list-slice operations.
        """
        links = self._links
        if links is None:
            n, vmask, bits = self.n, self.vertex_mask, self.edge_bits
            if bits and bits == within_mask(vmask):
                row = [vmask & ~(1 << y) if vmask >> y & 1 else 0 for y in range(n)]
                links = []
                for x in range(n):
                    links += [m & ~(1 << x) for m in row] if vmask >> x & 1 else [0] * n
                    links[x * n + x] = 0
            else:
                links = _build_link_table(n, bits)
            self._links = links
        return links

    def link_blocks(self) -> list[int]:
        """The link table packed by vertex; built once.

        Block z is one integer holding link(u, z) as row u, for u < n, in
        rows of ``row_width(n)`` bits: column z of ``links()``.
        """
        blocks = self._blocks
        if blocks is None:
            links, n = self.links(), self.n
            rb = row_width(n) >> 3
            blocks = self._blocks = [_pack(links[z * n : (z + 1) * n], rb) for z in range(n)]
        return blocks

    def shadow_pairs(self) -> list[Pair]:
        """Pairs (x, y), x < y, with a nonempty link, in ascending order."""
        links, n = self.links(), self.n
        return [(x, y) for x in mask_bits(self.vertex_mask) for y in range(x + 1, n) if links[x * n + y]]

    def link_mask(self, x: int, y: int) -> int:
        """Bitmask of the link N(x, y); 0 when the pair is inactive."""
        if x == y:
            raise InvalidPairError(f"pair needs two distinct vertices, got ({x}, {y})")
        n = self.n
        return self.links()[x * n + y] if 0 <= x < n and 0 <= y < n else 0

    def link(self, x: int, y: int) -> set[int]:
        """N(x, y) = { z : {x,y,z} is an edge }."""
        return set(mask_bits(self.link_mask(x, y)))

    def shadow(self) -> set[Pair]:
        """All pairs contained in at least one edge."""
        return set(self.shadow_pairs())

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, t={self.t}, edges={self.edge_count})"


# -- connectivity ----------------------------------------------------------


def _link_graph_parts(blocks: list[int]) -> list[list[int]]:
    """Components of every link graph G_u = {zw : uzw an edge}, as vertex masks.

    All n searches run at once on packed rows: row u of R holds the vertices
    reached in G_u, and for each z one step ORs link(u, z) -- row u of block
    z -- into every row u that holds z.  Each round seeds every row with its
    lowest unreached vertex; a vertex of G_u is a z with link(u, z) nonempty.
    """
    n = len(blocks)
    w = row_width(n)
    rb = w >> 3
    low = int.from_bytes((b"\x01" + bytes(rb - 1)) * n, "little")  # bit 0 of every row
    full = (1 << w) - 1
    live = [(z, blk) for z, blk in enumerate(blocks) if blk]
    vertices = 0  # row u: the vertices of G_u
    for _, blk in live:
        vertices |= blk
    left = _rows_of(vertices.to_bytes(n * rb, "little"), rb)
    parts: list[list[int]] = [[] for _ in range(n)]
    while any(left):
        r = _pack([m & -m for m in left], rb)
        prev = None
        while r != prev:
            prev = r
            for z, blk in live:
                r |= ((r >> z) & low) * full & blk
        for u, m in enumerate(_rows_of(r.to_bytes(n * rb, "little"), rb)):
            if m:
                parts[u].append(m)
                left[u] ^= m
    return parts


def shadow_components(h: Hypergraph3) -> list[tuple[int, dict[int, int]]]:
    """Pseudo-path components as (edge bits, partner masks), sorted by first edge.

    A component is a set of shadow pairs, and a step of the pair search,
    from uz to uw across the edge uzw, stays at u and follows the edge zw
    of u's link graph G_u.  So a component is a union of link-graph
    components glued wherever the pair uz is both the vertex z of G_u and
    the vertex u of G_z: a search over (u, part of G_u) nodes, which is a
    mask search over vertices wherever G_u is connected.  The partner mask
    of u is the union of its parts in the component; an edge abc belongs
    with its pair bc, so the whole colex block of c goes with c when G_c is
    connected.
    """
    parts = _link_graph_parts(h.link_blocks())
    single = sum(1 << u for u, ps in enumerate(parts) if len(ps) == 1)
    part_of = {  # for each split G_u: the part that holds z
        u: {z: i for i, m in enumerate(ps) for z in mask_bits(m)} for u, ps in enumerate(parts) if len(ps) > 1
    }

    label: dict[tuple[int, int], int] = {}
    found: list[dict[int, int]] = []
    seen = 0  # the vertices with a connected G_u already reached
    for start in ((u, i) for u, ps in enumerate(parts) for i in range(len(ps))):
        if start in label:
            continue
        partners: dict[int, int] = {}
        stack = [start]
        label[start] = len(found)
        seen |= single & 1 << start[0]
        while stack:
            u, i = stack.pop()
            m = parts[u][i]
            partners[u] = partners.get(u, 0) | m
            fresh = m & single & ~seen
            seen |= fresh
            for z in mask_bits(fresh):
                label[z, 0] = len(found)
                stack.append((z, 0))
            for z in mask_bits(m & ~single):
                node = (z, part_of[z][u])
                if node not in label:
                    label[node] = len(found)
                    stack.append(node)
        found.append(partners)
    if len(found) < 2:
        return [(h.edge_bits, f) for f in found]
    bits = [0] * len(found)
    rest, c = h.edge_bits, 2
    while rest:
        width = comb(c, 2)
        block = rest & ((1 << width) - 1)
        rest >>= width
        if block and single >> c & 1:
            bits[label[c, 0]] |= block << comb(c, 3)
        elif block:
            for b in range(1, c):
                part = block >> comb(b, 2) & ((1 << b) - 1)
                if part:
                    bits[label[c, part_of[c][b]]] |= part << (comb(c, 3) + comb(b, 2))
        c += 1
    return sorted(zip(bits, found), key=lambda comp: comp[0] & -comp[0])


def connected_components(h: Hypergraph3) -> tuple[tuple[Triple, ...], ...]:
    """Partition of the edge set into pseudo-path components.

    Two edges are equivalent iff a sequence of edges joins them with every
    consecutive pair sharing exactly two vertices; equivalently, their
    shadow pairs lie in one component of ``shadow_components``.  Components
    are returned with edges in colex order, sorted by their first edge.
    """
    return tuple(decode_edges(bits) for bits, _ in shadow_components(h))


@dataclass(frozen=True)
class PseudoPath:
    """Edge sequence with every consecutive pair sharing exactly 2 vertices.

    Edges may repeat; length is the number of edges.  A single edge is a
    valid pseudo-path of length 1.
    """

    edges: tuple[Triple, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    def is_valid(self) -> bool:
        if not self.edges:
            return False
        return all(
            tight_adjacent(self.edges[i], self.edges[i + 1])
            for i in range(len(self.edges) - 1)
        )


def edge_neighbors(h: Hypergraph3, g: Triple) -> list[Triple]:
    """Edges sharing exactly two vertices with g.

    Pairs ab, ac, bc of g in turn, each pair's completions ascending.
    """
    a, b, c = g
    gmask = triple_mask(g)
    return [
        canon_triple(x, y, z)
        for x, y in ((a, b), (a, c), (b, c))
        for z in mask_bits(h.link_mask(x, y) & ~gmask)
    ]


def connecting_path(h: Hypergraph3, e: Triple, f: Triple) -> PseudoPath | None:
    """Shortest pseudo-path from e to f, or None if they are disconnected.

    Breadth-first search over tight adjacency, neighbors scanned in colex
    order, each shadow pair expanded once.  It stops at the first edge w found
    at distance 2 from f; the path ends w, the smallest-colex edge adjacent to
    w and f, then f.  ``e == f`` yields the length-1 path (e,).
    """
    if not h.has_edge(e):
        raise NotAnEdgeError(f"{e} is not an edge of the host")
    if not h.has_edge(f):
        raise NotAnEdgeError(f"{f} is not an edge of the host")
    if e == f:
        return PseudoPath((e,))
    links, n = h.links(), h.n

    def through(pairs) -> set[Triple]:  # the edges through any of the pairs
        return {canon_triple(x, y, z) for x, y in pairs for z in mask_bits(links[x * n + y])}
    near = through(combinations(f, 2))  # f and its neighbors
    if e in near:
        return PseudoPath((e, f))
    ring = through({p for g in near for p in combinations(g, 2)})  # within 2 of f
    parents: dict[Triple, Triple] = {e: e}
    expanded: set[Pair] = set()
    queue = [e]  # breadth-first: grows while it is scanned
    hits = [e] if e in ring else []
    for g in queue:
        if hits:
            break
        fresh = [p for p in combinations(g, 2) if p not in expanded]
        expanded.update(fresh)
        found = sorted(through(fresh) - parents.keys(), key=colex_index)
        parents.update(dict.fromkeys(found, g))
        queue += found
        hits = [nb for nb in found if nb in ring]
    if not hits:
        return None
    path = [hits[0]]
    while path[-1] != e:
        path.append(parents[path[-1]])
    last = min(through(combinations(hits[0], 2)) & near, key=colex_index)
    return PseudoPath((*reversed(path), last, f))


# -- colorings -------------------------------------------------------------


class Coloring:
    """Total red/blue assignment on the edges of a host hypergraph.

    The state is ``red_bits``, a colex edge mask inside the host's edge
    bits; blue is every other host edge.
    """

    __slots__ = ("host", "red_bits", "_subs")

    def __init__(self, host: Hypergraph3, red_edges):
        self._init(host, edge_mask(host.n, red_edges, host.vertex_mask))

    def _init(self, host: Hypergraph3, red_bits: int) -> None:
        if red_bits & ~host.edge_bits:
            raise ValueError("red edges must be edges of the host")
        self.host = host
        self.red_bits = red_bits
        self._subs: dict[Color, Hypergraph3] = {}

    @classmethod
    def from_bits(cls, host: Hypergraph3, red_bits: int) -> "Coloring":
        col = cls.__new__(cls)
        col._init(host, red_bits)
        return col

    @classmethod
    def from_sequence(cls, host: Hypergraph3, colors) -> "Coloring":
        """Colors aligned with host.edges (colex order), values 'R'/'B'."""
        colors = list(colors)
        if len(colors) != host.edge_count:
            raise ValueError("color sequence length must match edge count")
        red = [t for t, c in zip(host.edges, colors) if Color(c) is Color.RED]
        return cls(host, red)

    @property
    def blue_bits(self) -> int:
        return self.host.edge_bits & ~self.red_bits

    @property
    def red(self) -> set[Triple]:
        """Red triples, decoded on demand."""
        return set(decode_edges(self.red_bits))

    @property
    def blue(self) -> set[Triple]:
        """Blue triples, decoded on demand."""
        return set(decode_edges(self.blue_bits))

    def color_of(self, t: Triple) -> Color:
        if not self.host.has_edge(t):
            raise NotAnEdgeError(f"{t} is not an edge of the host")
        return Color.RED if self.red_bits >> colex_index(t) & 1 else Color.BLUE

    def subhypergraph(self, color: Color) -> Hypergraph3:
        """Host restricted to the edges of one color (cached); blue links are host XOR red."""
        sub = self._subs.get(color)
        if sub is None:
            bits = self.red_bits if color is Color.RED else self.blue_bits
            sub = Hypergraph3.from_bits(self.host.n, bits, self.host.vertex_mask)
            if color is Color.BLUE:
                red = self.subhypergraph(Color.RED).links()
                sub._links = [h ^ r for h, r in zip(self.host.links(), red)]
            self._subs[color] = sub
        return sub

    def color_sequence(self) -> list[str]:
        """'R' or 'B' for each host edge, in colex order."""
        host = f"{self.host.edge_bits:b}"
        red = f"{self.red_bits:0{len(host)}b}"
        return ["R" if r == "1" else "B" for h, r in zip(host[::-1], red[::-1]) if h == "1"]

    def restrict(self, host: Hypergraph3) -> "Coloring":
        """Coloring induced on a subhypergraph of the current host."""
        return Coloring.from_bits(host, self.red_bits & host.edge_bits)

    def __repr__(self) -> str:
        return f"Coloring(red={self.red_bits.bit_count()}, blue={self.blue_bits.bit_count()})"
