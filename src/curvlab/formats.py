"""graph6 / sparse6 line formats and the plain edge-list text format.

graph6 encodes the upper triangle of the adjacency matrix column by column
in 6-bit printable chunks; sparse6 (lines starting with ':') encodes an
edge stream.  A line may start with one ">>graph6<<" or ">>sparse6<<"
header, which must name the line's own format.

A graph6 or sparse6 line, or an edge-list header, that names more than
`graph.MAX_EDGES` edges is refused before any edge list or adjacency set
is built.
"""

from __future__ import annotations

import binascii
import re

from .graph import MAX_EDGES, Graph, GraphError, from_edge_list

GRAPH6_HEADER = ">>graph6<<"
SPARSE6_HEADER = ">>sparse6<<"
_FORMAT_LIMIT = 68_719_476_735  # 2^36 - 1
_INTEGER = re.compile(r"-?[0-9]+")


class FormatError(GraphError):
    """Malformed graph6/sparse6/edge-list input."""


def parse_integer(token: str) -> int:
    """An integer read from input, written `-?[0-9]+` in ASCII; int() alone
    would also read '+1', '1_0', ' 3' and non-ASCII digits."""
    if not _INTEGER.fullmatch(token):
        raise FormatError(f"not an integer: {token!r}")
    return int(token)


def parse_real(token: str) -> float:
    """A real number read from input: `inf`, `-inf`, `nan` or an ASCII
    decimal such as `2`, `-2.5` or `1e3`; float() alone would also read
    '+2', '1_0', ' 2', 'Infinity' and non-ASCII digits."""
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|-?inf|nan", token):
        raise FormatError(f"not a real number: {token!r}")
    return float(token)


def _decode_size(data: bytes, pos: int) -> tuple[int, int]:
    """Decode the N(n) size prefix, returning (n, next position)."""
    if pos >= len(data):
        raise FormatError("empty graph6 payload")
    c = data[pos]
    if not (63 <= c <= 126):
        raise FormatError(f"bad byte {c} in size prefix")
    if c != 126:  # single-byte form, n <= 62
        return c - 63, pos + 1
    if pos + 1 < len(data) and data[pos + 1] == 126:
        chunk, nxt = data[pos + 2 : pos + 8], pos + 8
        width = 6
    else:
        chunk, nxt = data[pos + 1 : pos + 4], pos + 4
        width = 3
    if len(chunk) != width:
        raise FormatError("truncated size prefix")
    n = 0
    for b in chunk:
        if not (63 <= b <= 126):
            raise FormatError(f"bad byte {b} in size prefix")
        n = (n << 6) | (b - 63)
    return n, nxt


def _encode_size(n: int) -> bytes:
    if n < 0 or n > _FORMAT_LIMIT:
        raise FormatError(f"vertex count {n} outside format range")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])


# graph6 payload bytes 63..126 carry the six bits 0..63; as the base64
# digits of those values they decode to the same bits packed into bytes
_PAYLOAD_BYTES = bytes(range(63, 127))
_AS_BASE64 = bytes.maketrans(
    _PAYLOAD_BYTES, b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)


def _payload(data: bytes, pos: int) -> tuple[int, int]:
    """The bytes from `pos` on read as one integer, six bits a byte with the
    first byte's highest bit first, and its number of bits."""
    payload = data[pos:]
    bad = payload.translate(None, _PAYLOAD_BYTES)
    if bad:
        raise FormatError(f"non-printable byte {bad[0]} in payload")
    pad = -len(payload) % 4
    packed = binascii.a2b_base64(payload.translate(_AS_BASE64) + b"A" * pad)
    return int.from_bytes(packed, "big") >> 6 * pad, 6 * len(payload)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 (or sparse6) line into a Graph."""
    line = text.strip()
    # no graph6 or sparse6 line, nor a header, starts with an ASCII digit
    if "0" <= line[:1] <= "9":
        raise FormatError(
            "a line that starts with a digit is edge-list text, not graph6 or sparse6"
        )
    for header, kind in ((GRAPH6_HEADER, "graph6"), (SPARSE6_HEADER, "sparse6")):
        if line.startswith(header):
            line = line[len(header) :]
            # a graph6 payload never starts with '>', a sparse6 one always with ':'
            if line.startswith(">") or line.startswith(":") != (kind == "sparse6"):
                raise FormatError(f"header {header} is not followed by a {kind} payload")
            break
    if not line:
        raise FormatError("empty graph6 line")
    if not line.isascii():
        raise FormatError("non-ASCII characters in graph6 line")
    if line.startswith(":"):
        return _parse_sparse6(line)
    data = line.encode("ascii")
    n, pos = _decode_size(data, 0)
    value, nbits = _payload(data, pos)
    npairs = n * (n - 1) // 2
    if nbits < npairs or nbits >= npairs + 6:
        raise FormatError(
            f"graph6 payload has {nbits} bits, expected {npairs} (+<6 padding)"
        )
    if value & ((1 << (nbits - npairs)) - 1):
        raise FormatError("nonzero padding bits in graph6 payload")
    if (m := value.bit_count()) > MAX_EDGES:
        raise FormatError(
            f"graph6 line names {m} edges, more than the maximum size MAX_EDGES = {MAX_EDGES}"
        )
    # a 1 above the top bit keeps the leading zeros in bin(); the pairs
    # (u, v), u < v, of column v follow those of the columns before it
    bits = bin(value | 1 << nbits)[3:]
    edges = []
    k = 0
    for v in range(1, n):
        u = bits.find("1", k, k + v)
        while u >= 0:
            edges.append((u - k, v))
            u = bits.find("1", u + 1, k + v)
        k += v
    return from_edge_list(n, edges)


def _parse_sparse6(line: str) -> Graph:
    data = line[1:].encode("ascii")
    n, pos = _decode_size(data, 0)
    k = max(1, (n - 1).bit_length())
    # each record takes 1 + k bits, and at most n of them add no edge: n - 1
    # that raise v to x, and one that ends the stream
    records = 6 * (len(data) - pos) // (1 + k)
    if records - n > MAX_EDGES:
        raise FormatError(
            f"sparse6 line names at least {records - n} edges, "
            f"more than the maximum size MAX_EDGES = {MAX_EDGES}"
        )
    value, nbits = _payload(data, pos)
    bits = bin(value | 1 << nbits)[3:]
    edges = set()
    v = 0
    i = 0
    while i + k < len(bits):
        start = i
        x = int(bits[i + 1 : i + 1 + k], 2)
        i += 1 + k
        if bits[start] == "1":
            v += 1
        if v >= n or x >= n:
            # only the 1-bits that pad the last byte may end the stream early
            if len(bits) - start >= 6 or "0" in bits[start:]:
                raise FormatError(f"sparse6 data after the end of the edge stream at bit {start}")
            break
        if x > v:
            v = x
        else:
            if x == v:
                raise FormatError(f"self-loop at vertex {x} in sparse6 line")
            if (x, v) in edges:
                raise FormatError(f"parallel edge ({x}, {v}) in sparse6 line")
            edges.add((x, v))
    if len(edges) > MAX_EDGES:
        raise FormatError(
            f"sparse6 line names {len(edges)} edges, more than the maximum size MAX_EDGES = {MAX_EDGES}"
        )
    return from_edge_list(n, sorted(edges))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding; round-trips through parse_graph6."""
    out = bytearray(_encode_size(g.n))
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        row = g.adjacency[v]
        for u in range(v):
            acc = (acc << 1) | (1 if u in row else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def iter_graph6_file(lines) -> "list[tuple[int, Graph]]":
    """Parse an iterable of graph6/sparse6 lines to (line_number, Graph).

    Blank lines are skipped; parse errors are re-raised with the 1-based
    line number attached.
    """
    graphs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            graphs.append((lineno, parse_graph6(line)))
        except GraphError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return graphs


def _legible(token: str) -> str:
    """A token quoted, every non-ASCII byte shown as \\xNN.  A file read with
    errors="surrogateescape" carries such a byte as a lone surrogate, which
    encodes back to the byte."""
    return repr(token.encode("utf-8", "surrogateescape"))[1:]


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format "n m\\nu v\\n..." (one edge per line)."""
    values = []
    token_lines = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for token in line.split():
            try:
                values.append(parse_integer(token))
            except ValueError as exc:
                raise FormatError(
                    f"line {lineno}: non-integer token {_legible(token)} in edge list"
                ) from exc
            token_lines.append(lineno)
    if len(values) < 2:
        raise FormatError("edge-list header must be 'n m'")
    n, m, rest = values[0], values[1], values[2:]
    if m < 0:
        raise FormatError(f"edge count must be non-negative, got {m}")
    if m > MAX_EDGES:
        raise FormatError(
            f"edge-list header names {m} edges, more than the maximum size MAX_EDGES = {MAX_EDGES}"
        )
    if len(rest) % 2:
        raise FormatError(
            f"odd number of endpoint tokens ({len(rest)}); each edge needs two"
        )
    if len(rest) != 2 * m:
        raise FormatError(f"expected {m} edges, found {len(rest) // 2}")
    edges = list(zip(rest[0::2], rest[1::2]))
    g = from_edge_list(n, edges)
    if g.m < m:
        # an edge repeats: name its second listing and the line of its first
        lines = token_lines[2::2]
        first: dict[frozenset, int] = {}
        for i, (u, v) in enumerate(edges):
            j = first.setdefault(frozenset((u, v)), i)
            if j != i:
                raise FormatError(f"line {lines[i]}: edge ({u}, {v}) repeats line {lines[j]}")
    return g


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
