"""graph6 and edge-list text interchange.

graph6 packs the upper triangle of the adjacency matrix column by column
(bit (u, v) for u < v, columns v = 1..n-1) into 6-bit groups, padded with
zero bits, each group stored as one printable byte (value + 63).  The
vertex count is one byte (n + 63) for n <= 62, otherwise '~' followed by
three bytes holding an 18-bit big-endian count.

The edge-list format is one "u v" pair per line, 0-based.  Lines starting
with '#' are comments; the writer emits "# n <count>" first so graphs with
trailing isolated vertices survive a round trip.
"""

from __future__ import annotations

from .errors import EdgeListParseError, Graph6ParseError, GraphSizeError
from .graph import MAX_VERTICES, Graph

_HEADER = b">>graph6<<"


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    group = 0
    nbits = 0
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            group = (group << 1) | ((col >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(group + 63)
                group = 0
                nbits = 0
    if nbits:
        out.append((group << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


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

    g = Graph(n)
    bit = 0
    u, v = 0, 1
    for i, byte in enumerate(payload):
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"non-printable payload byte {byte:#04x}", pos + i)
        group = byte - 63
        for k in range(5, -1, -1):
            if bit == nbits:
                if (group >> k) & 1:
                    raise Graph6ParseError("nonzero padding bits", pos + i)
                continue
            if (group >> k) & 1:
                g.adj[u] |= 1 << v
                g.adj[v] |= 1 << u
                g.m += 1
            bit += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return g


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
    g = Graph(n)
    for u, v in pairs:
        g.add_edge(u, v)
    return g
