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
trailing isolated vertices survive a round trip.  The reader takes ASCII
str or bytes.  It maps every byte to a code with one bytes.translate, finds
tokens and line breaks (those of str.splitlines, CRLF as one) with numpy,
and decodes every line of two tokens of at most four digits from one
little-endian word per token.  Any other non-blank line is read on its own
with str.split and int(), in line order, so errors name the first bad line.
"""

from __future__ import annotations

import numpy as np

from .errors import EdgeListParseError, Graph6ParseError
from .graph import Graph, _row_bits, _set_row_bits

_HEADER = b">>graph6<<"


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        header = bytes([n + 63])
    else:
        header = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = _row_bits(g.adj, n)[np.tri(n, k=-1, dtype=bool)]
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

    g = Graph(n)  # refuses a bad count before the payload is read
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
    return _set_row_bits(g, matrix | matrix.T)


def to_edge_list(g: Graph) -> str:
    lines = [f"# n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# Byte codes of the edge-list reader.  On ASCII they follow str.splitlines
# and str.split: a line break ends a line, in-line space separates tokens and
# every other byte belongs to a token.  A digit codes as its value and any
# other token byte as _OTHER, so a token codes below _BREAK.
_OTHER, _BREAK, _SPACE = 0x80, 0xE0, 0xF0
_CODES = bytes(
    b - 48 if 48 <= b <= 57
    else _SPACE if b in b" \t\x1f"
    else _BREAK if b in b"\n\r\v\f\x1c\x1d\x1e"
    else _OTHER
    for b in range(256)
)
_WORD = 4  # tokens of 1.._WORD digits are decoded in numpy, one uint32 each
# the high bytes of a little-endian word that a token of 0.._WORD bytes fills
_KEEP = np.array([(0xFFFFFFFF << 8 * (_WORD - k)) & 0xFFFFFFFF for k in range(_WORD + 1)],
                 dtype=np.uint32)


def _codes(data: bytes) -> bytes:
    """The code of every byte.  The LF of a CRLF codes as space, so that
    CRLF ends one line."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\r ")
    return data.translate(_CODES)


def _ascii(text: str | bytes) -> bytes:
    """The input as ASCII bytes; the first non-ASCII byte or character
    raises at its line."""
    if isinstance(text, str):
        try:
            return text.encode("ascii")
        except UnicodeEncodeError as exc:
            at, what = exc.start, f"character {text[exc.start]!r}"
            prefix = text[:at].encode("ascii")
    elif text.isascii():
        return text
    else:
        at = int(np.argmax(np.frombuffer(text, dtype=np.uint8) > 127))
        what, prefix = f"byte {text[at]:#04x}", text[:at]
    raise EdgeListParseError(f"non-ASCII {what}", 1 + _codes(prefix).count(_BREAK))


def _short_numbers(coded: bytes, starts: np.ndarray, ends: np.ndarray):
    """The value of each token, and whether it is 1.._WORD digits (the value
    of any other token is meaningless).  coded holds the codes of the text
    after _WORD bytes of padding."""
    # word e holds the codes of text bytes e-4 .. e-1, first byte lowest, so
    # word ends[k] ends with token k; bytes before the token become zeros
    words = np.ndarray((len(coded) - _WORD + 1,), dtype="<u4", buffer=coded, strides=(1,))
    length = ends - starts
    w = words[ends] & _KEEP[np.minimum(length, _WORD)]
    short = ((w & 0x80808080) == 0) & (length <= _WORD)  # digits code as 0..9
    # digits a b c d, a lowest: times 1 + 10 * 2**8 puts 10a + b in byte 1
    # and 10c + d in byte 3; shifted down and masked, times 1 + 100 * 2**16
    # puts 100(10a + b) + 10c + d in bits 16 and up
    w = ((w * 2561) >> 8) & 0x00FF00FF
    return (w * 6553601) >> 16, short


def _parse_line(raw: str, lineno: int, n: int | None) -> tuple[int | None, tuple[int, int] | None]:
    """One non-blank line the vectorised pass left over: a comment, which may
    set n, or a "u v" pair.  Returns n and the pair, if the line held one."""
    line = raw.strip()
    if line.startswith("#"):
        tokens = line[1:].split()
        if n is None and len(tokens) == 2 and tokens[0] == "n":
            try:
                n = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(f"bad vertex count {tokens[1]!r}", lineno)
        return n, None
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
    return n, (u, v)


def from_edge_list_text(text: str | bytes) -> Graph:
    """Parse edge-list text, ASCII only.  The vertex count is the first
    "# n" comment's, else max index + 1.

    Lines and tokens are those of str.splitlines and str.split.  A line of
    two tokens of one to four digits is decoded in one numpy pass over the
    bytes; every other non-blank line, and the first self-loop, goes through
    _parse_line in line order, so the first error by line is the one raised.
    Errors carry a 1-based line, or line 0 for a vertex outside the count.
    """
    data = _ascii(text)
    pad = bytes([_BREAK])
    coded = pad * _WORD + _codes(data) + pad
    code = np.frombuffer(coded, dtype=np.uint8)[_WORD - 1:]  # from the last pad byte
    tok = code < _BREAK
    bounds = (tok[1:] != tok[:-1]).nonzero()[0]
    starts, ends = bounds[0::2], bounds[1::2]
    # A break at code index i is text byte i - 1, so edges[k] counts the
    # tokens that start before break k.  The pad bytes code as breaks, so
    # line k (0-based) holds tokens edges[k] .. edges[k+1] - 1.
    edges = starts.searchsorted((code == _BREAK).nonzero()[0])
    first, count = edges[:-1], edges[1:] - edges[:-1]

    values, short = _short_numbers(coded, starts, ends)
    two = (count == 2).nonzero()[0]
    u = first[two]
    fast = short[u] & short[u + 1]
    fast_lines, u = two[fast], u[fast]
    uv = values[u[:, None] + (0, 1)]
    loops = (uv[:, 0] == uv[:, 1]).nonzero()[0]

    count[fast_lines] = 0  # leaves the lines _parse_line reads,
    count[fast_lines[loops[:1]]] = 2  # and hands it the first self-loop
    slow_lines = count.nonzero()[0]
    lo = starts[first[slow_lines]]
    hi = ends[edges[slow_lines + 1] - 1]
    n, pairs = None, []
    for li, a, b in zip(slow_lines.tolist(), lo.tolist(), hi.tolist()):
        n, got = _parse_line(data[a:b].decode("ascii"), li + 1, n)
        if got is not None:
            pairs.append(got)
    maxv = max([int(uv.max()) if uv.size else -1, *map(max, pairs)])

    if n is None:
        n = maxv + 1 if maxv >= 0 else 1
    g = Graph(n)  # refuses a bad count before any vertex is checked against it
    if maxv >= n:
        raise EdgeListParseError(f"vertex {maxv} outside declared count {n}", 0)
    us, vs = np.concatenate((uv, np.array(pairs, dtype=np.intp).reshape(-1, 2))).T
    matrix = np.zeros((n, n), dtype=bool)
    matrix[us, vs] = matrix[vs, us] = True
    return _set_row_bits(g, matrix)
