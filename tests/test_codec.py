import random
import tracemalloc
from itertools import product
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import booktri as bt
from conftest import (
    complete,
    edge_list_like,
    edge_list_reference,
    graph6_like,
    graph6_reference_decode,
    graph6_reference_encode,
    graphs,
    random_graph,
)


def test_empty5_encoding():
    # hand-encoded: header 'D' (5+63), ten zero bits -> two all-zero groups
    assert bt.to_graph6(bt.Graph(5)) == "D??"


def test_k5_encoding():
    assert bt.to_graph6(complete(5)) == "D~{"


def test_roundtrip_complete_bipartite():
    g = bt.complete_bipartite(3, 3)
    assert bt.from_graph6(bt.to_graph6(g)) == g


def test_payload_too_short():
    with pytest.raises(bt.Graph6ParseError) as exc:
        bt.from_graph6("D?")
    assert "too short" in str(exc.value)
    assert exc.value.offset == 2


def test_parse_error_catalogue():
    with pytest.raises(bt.Graph6ParseError):
        bt.from_graph6("")
    with pytest.raises(bt.Graph6ParseError):
        bt.from_graph6("D???")  # trailing bytes
    with pytest.raises(bt.Graph6ParseError) as exc:
        bt.from_graph6(b"D?\x07")  # non-printable payload byte
    assert exc.value.offset == 2
    with pytest.raises(bt.Graph6ParseError):
        bt.from_graph6("D?~")  # n=5 leaves 2 padding bits; both set here
    with pytest.raises(bt.Graph6ParseError):
        bt.from_graph6("~B")  # truncated extended count
    with pytest.raises(bt.Graph6ParseError, match="vertex count exceeds supported range$") as exc:
        bt.from_graph6(b"~~??????")  # the 8-byte count form
    assert exc.value.offset == 1
    with pytest.raises(bt.Graph6ParseError, match="invalid count byte 0x21$") as exc:
        bt.from_graph6(b"~?A!")  # a count byte below 63
    assert exc.value.offset == 3


@pytest.mark.parametrize(
    "data,offset", [("Bé", 1), ("B€", 1), ("\u00e9B?", 0), (b"B\xe9", 1), ("B?".encode() + "é".encode(), 2)]
)
def test_non_ascii_rejected(data, offset):
    # a str used to be encoded with errors="replace", so 'Bé' read as "B?",
    # the empty graph on 3 vertices
    with pytest.raises(bt.Graph6ParseError) as exc:
        bt.from_graph6(data)
    assert exc.value.offset == offset


def test_header_prefix_accepted():
    g6 = bt.to_graph6(complete(4))
    assert bt.from_graph6(">>graph6<<" + g6) == complete(4)


def test_extended_count_roundtrip():
    rng = random.Random(77)
    for n in (63, 64, 100, 200):
        g = random_graph(rng, n, 0.1)
        s = bt.to_graph6(g)
        assert s[0] == "~" and len(s) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert bt.from_graph6(s) == g


def test_vertex_count_over_cap_rejected():
    # header for n = 2000 > 1024
    n = 2000
    hdr = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    with pytest.raises(bt.GraphSizeError):
        bt.from_graph6(hdr + b"?" * 10)


def test_roundtrip_random_graphs():
    """Identity on 10^4 random graphs with n <= 64."""
    rng = random.Random(2024)
    for _ in range(10**4):
        n = rng.randint(1, 64)
        g = random_graph(rng, n, rng.random())
        assert bt.from_graph6(bt.to_graph6(g)) == g


def test_agrees_with_networkx():
    """Cross-check both directions against an independent codec."""
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.random())
        ours = bt.to_graph6(g)
        theirs = nx.to_graph6_bytes(
            nx.from_edgelist(g.edges(), nx.Graph()) if g.m else nx.empty_graph(n),
            header=False,
        ).strip().decode("ascii")
        if g.m:  # networkx drops isolated vertices in from_edgelist
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).strip().decode("ascii")
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode("ascii"))
        assert set(map(tuple, map(sorted, back.edges()))) == set(g.edges())
        assert back.number_of_nodes() == n


@settings(deadline=None)
@given(graphs(max_n=130))  # crosses the 62/63 header forms and 64-bit words
def test_graph6_matches_reference_encoder(g):
    s = bt.to_graph6(g)
    assert s == graph6_reference_encode(g)
    back = bt.from_graph6(s)
    assert back == g and back.m == g.m


def _decode_outcome(decode, *args):
    """The graph decoded, or the error's class, message and position."""
    try:
        g = decode(*args)
    except (bt.Graph6ParseError, bt.EdgeListParseError, bt.GraphSizeError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", getattr(exc, "line", None))
    return g.n, g.adj, g.m


@settings(deadline=None)
@given(st.one_of(st.binary(max_size=24), st.text(max_size=8), graph6_like()))
@example(b"D?~")  # both padding bits set
@example(b"D?\x07")  # non-printable payload byte
@example(b"~??~" + b"?" * 10)  # n = 63 with a short payload
@example(b"~~??????")  # the 8-byte count form
@example(b"~?A!")  # a count byte below 63
def test_graph6_decode_matches_reference(data):
    """Same graph, or the same error class, message and offset."""
    assert _decode_outcome(bt.from_graph6, data) == _decode_outcome(
        graph6_reference_decode, data
    )


def test_edge_list_roundtrip():
    g = bt.from_edge_list(7, [(0, 1), (2, 5), (3, 4)])  # vertex 6 isolated
    text = bt.to_edge_list(g)
    assert text.splitlines()[0] == "# n 7"
    assert bt.from_edge_list_text(text) == g


def test_edge_list_inferred_count():
    g = bt.from_edge_list_text("0 1\n1 2\n")
    assert g.n == 3 and g.m == 2


def test_edge_list_errors():
    with pytest.raises(bt.EdgeListParseError):
        bt.from_edge_list_text("0 1 2\n")
    with pytest.raises(bt.EdgeListParseError):
        bt.from_edge_list_text("a b\n")
    with pytest.raises(bt.EdgeListParseError):
        bt.from_edge_list_text("3 3\n")
    with pytest.raises(bt.EdgeListParseError):
        bt.from_edge_list_text("# n 2\n0 5\n")
    with pytest.raises(bt.GraphSizeError):
        bt.from_edge_list_text("# n 2000\n0 5\n")


@settings(deadline=None)
@given(graphs(max_n=70))
def test_edge_list_roundtrip_property(g):
    back = bt.from_edge_list_text(bt.to_edge_list(g))
    assert back == g and back.m == g.m


def test_edge_list_duplicate_pairs_counted_once():
    g = bt.from_edge_list_text("# n 5\n0 1\n1 0\n0 1\n3 4\n")
    assert g == bt.from_edge_list(5, [(0, 1), (3, 4)]) and g.m == 2


@settings(deadline=None, max_examples=500)
@given(edge_list_like())
@example(b"# n 4\r\n0 1\r\n\r\n2 x\r\n")  # CRLF ends one line
@example("0 1\n# n 5\n")  # the header may follow the edges
@example("# n 5\n# n 3\n0 4\n# n x\n")  # only the first header counts
@example("0 1\n2 2\n# n x\n")  # the self-loop comes first
@example("0 1\n# n x\n2 2\n")  # the bad header comes first
@example("1 2\n+3 3\n4 4\n")  # a self-loop read by int()
@example("")
@example(b"")
@example("# one\n#\n  # n 3\n")  # comments only
@example("1 2 3\n4 5 6\n")  # tokens pair up across lines, no line holds two
@example("# n -3\n")  # a count below 1 is a bad count, not a missing vertex
@example("# n 2000\n0 3000\n")  # and so is one above the cap, whatever the edges
def test_edge_list_matches_reference(data):
    """Same graph, or the same error class, message and line."""
    assert _decode_outcome(bt.from_edge_list_text, data) == _decode_outcome(
        edge_list_reference, data
    )


@pytest.mark.parametrize("window", [1, 5, 16])
@settings(deadline=None, max_examples=200)
@given(edge_list_like())
@example("0 1\n2 2\n3 3\n")  # each window's first self-loop, the first one raising
@example("0 1\r\r1 2\n")  # CR breaks with no line feed in reach: one window
def test_edge_list_windows_match_reference(window, data):
    """Small windows cut the fuzz texts into many: the same graph, or the
    same error class, message and line, as in one window."""
    with mock.patch.object(bt.codec, "_WINDOW", window):
        assert _decode_outcome(bt.from_edge_list_text, data) == _decode_outcome(
            edge_list_reference, data
        )


@pytest.mark.parametrize("window", range(3, 17))
def test_edge_list_window_boundaries(window):
    """Five-byte CRLF lines against every window size up to 16: a boundary
    falls after some line, never inside a CRLF, and a bad line, or a
    self-loop, on either side of it keeps its number."""
    lines = [f"{i} {i + 1}\r\n" for i in range(9)]
    with mock.patch.object(bt.codec, "_WINDOW", window):
        g = bt.from_edge_list_text("".join(lines).encode("ascii"))
        assert g == bt.from_edge_list(10, [(i, i + 1) for i in range(9)])
        for k, bad in product(range(len(lines)), ["x 1\r\n", "4 4\r\n"]):
            text = "".join(lines[:k] + [bad] + lines[k + 1:])
            with pytest.raises(bt.EdgeListParseError) as exc:
                bt.from_edge_list_text(text)
            assert exc.value.line == k + 1
            assert _decode_outcome(bt.from_edge_list_text, text) == _decode_outcome(
                edge_list_reference, text
            )


def test_edge_list_memory_is_windowed():
    """G(1024, 1/2) as a 2 MB edge list: the numpy temporaries are a
    window's, so the peak is the text, the pairs and the n x n matrix
    (34.0 MB of tracemalloc peak when the whole text was one window)."""
    a = np.triu(np.random.default_rng(1).random((1024, 1024)) < 0.5, 1)
    us, vs = np.nonzero(a)
    text = "# n 1024\n" + "".join(f"{u} {v}\n" for u, v in zip(us.tolist(), vs.tolist()))
    assert len(text) > 2 * 10**6
    tracemalloc.start()
    try:
        g = bt.from_edge_list_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == len(us) and g.adj[0] == sum(1 << v for v in vs[us == 0].tolist())
    assert peak < 16 * 2**20, peak
