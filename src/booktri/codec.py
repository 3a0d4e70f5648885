"""graph6 and edge-list text interchange.

graph6 packs the upper triangle of the adjacency matrix column by column
(bit (u, v) for u < v, columns v = 1..n-1) into 6-bit groups, padded with
zero bits, each group stored as one printable byte (value + 63).  The
vertex count is one byte (n + 63) for n <= 62, otherwise '~' followed by
three bytes holding an 18-bit big-endian count.  Both directions work on
the whole boolean adjacency matrix, whose strict lower triangle in row-major
order is exactly graph6's bit order.

The edge-list format is one "u v" pair per line, 0-based.  Lines starting
with '#' are comments; the writer emits "# n <count>" first so graphs with
trailing isolated vertices survive a round trip.
"""

from __future__ import annotations

import numpy as np

from .errors import EdgeListParseError, Graph6ParseError, GraphSizeError
from .graph import MAX_VERTICES, Graph, _row_bits, _row_words, _set_row_bits

_HEADER = b">>graph6<<"


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        header = bytes([n + 63])
    else:
        header = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = _row_bits(_row_words(g))[np.tri(n, k=-1, dtype=bool)]
    groups = np.concatenate((bits, np.zeros(-len(bits) % 6, dtype=bool))).reshape(-1, 6)
    payload = (np.packbits(groups, axis=1) >> 2) + 63
    return (header + payload.tobytes()).decode("ascii")


def from_graph6(data: str | bytes) -> Graph:
    """Decode graph6 bytes, or a str of ASCII characters.

    Graph6ParseError offsets count from the start of the payload once
    surrounding whitespace and any ">>graph6<<" header are dropped; a
    non-ASCII character in a str is reported at its index in the str.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError(
                f"non-ASCII character {data[exc.start]!r}", exc.start
            ) from None
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):].strip()
    if not data:
        raise Graph6ParseError("empty input", 0)

    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            # 8-byte count form encodes n >= 258048, far past our cap
            raise Graph6ParseError("vertex count exceeds supported range", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated extended vertex count", len(data))
        vals = []
        for i in (1, 2, 3):
            b = data[i]
            if not 63 <= b <= 126:
                raise Graph6ParseError(f"invalid count byte {b:#04x}", i)
            vals.append(b - 63)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        pos = 4
    else:
        b = data[0]
        if not 63 <= b <= 125:
            raise Graph6ParseError(f"invalid header byte {b:#04x}", 0)
        n = b - 63
        pos = 1

    if n < 1 or n > MAX_VERTICES:
        raise GraphSizeError(f"vertex count {n} outside 1..{MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    payload = data[pos:]
    if len(payload) < expect:
        raise Graph6ParseError(
            f"payload too short: expected {expect} bytes, got {len(payload)}",
            len(data),
        )
    if len(payload) > expect:
        raise Graph6ParseError("trailing bytes after payload", pos + expect)

    groups = np.frombuffer(payload, dtype=np.uint8) - 63
    bad = np.flatnonzero(groups > 63)  # bytes outside 63..126 wrap above 63
    if bad.size:
        i = int(bad[0])
        raise Graph6ParseError(f"non-printable payload byte {payload[i]:#04x}", pos + i)
    bits = np.unpackbits(groups[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():  # padding lives in the last byte
        raise Graph6ParseError("nonzero padding bits", pos + expect - 1)
    matrix = np.zeros((n, n), dtype=bool)
    matrix[np.tri(n, k=-1, dtype=bool)] = bits[:nbits]
    return _set_row_bits(Graph(n), matrix | matrix.T)


def to_edge_list(g: Graph) -> str:
    lines = [f"# n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str, n: int | None = None) -> Graph:
    """Parse edge-list text.  n falls back to a "# n" comment, then max index + 1."""
    pairs = []
    maxv = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if n is None and len(tokens) == 2 and tokens[0] == "n":
                try:
                    n = int(tokens[1])
                except ValueError:
                    raise EdgeListParseError(f"bad vertex count {tokens[1]!r}", lineno)
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer vertex in {line!r}", lineno)
        if u < 0 or v < 0:
            raise EdgeListParseError(f"negative vertex in {line!r}", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop {u} {v}", lineno)
        pairs.append((u, v))
        maxv = max(maxv, u, v)

    if n is None:
        n = maxv + 1 if maxv >= 0 else 1
    if maxv >= n:
        raise EdgeListParseError(f"vertex {maxv} outside declared count {n}", 0)
    g = Graph(n)  # refuses a bad count before the matrix is allocated
    us, vs = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    matrix = np.zeros((n, n), dtype=bool)
    matrix[us, vs] = matrix[vs, us] = True
    return _set_row_bits(g, matrix)
