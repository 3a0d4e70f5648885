import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import booktri as bt
from conftest import (
    anneal_reference,
    brute_max_book,
    brute_triangle_count,
    enumerate_fixed_edges,
    random_graph,
)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_fixed_edges(3, 3)) == 1
    assert sum(1 for _ in enumerate_fixed_edges(4, 2)) == 15
    assert sum(1 for _ in enumerate_fixed_edges(6, 10)) == 3003


def test_enumerate_single_graph_is_triangle():
    (g,) = list(enumerate_fixed_edges(3, 3))
    assert g.m == 3 and brute_triangle_count(g) == 1


def test_enumerate_unique_and_ordered():
    masks = []
    slots = {e: i for i, e in enumerate(combinations(range(5), 2))}
    for g in enumerate_fixed_edges(5, 4):
        mask = 0
        for e in g.edges():
            mask |= 1 << slots[e]
        masks.append(mask)
    assert len(masks) == math.comb(10, 4)
    assert len(set(masks)) == len(masks)
    combos = [tuple(sorted(i for i in range(10) if (m >> i) & 1)) for m in masks]
    assert combos == sorted(combos), "must follow lexicographic subset order"
    assert combos == list(combinations(range(10), 4))


def test_enumerate_guard():
    with pytest.raises(bt.ExplosionGuardError):
        list(enumerate_fixed_edges(9, 21))


def test_enumerate_bad_edge_count():
    with pytest.raises(bt.ParameterError):
        list(enumerate_fixed_edges(4, 7))


def _oracle_scan(n, e):
    """Independent frontier: enumerate graphs, count via set-based oracles."""
    pairs = {}
    for rank, g in enumerate(enumerate_fixed_edges(n, e)):
        key = (brute_max_book(g), brute_triangle_count(g))
        if key not in pairs:
            pairs[key] = bt.to_graph6(g)
    frontier = bt.search.pareto_min(pairs)
    return {
        "min_t": min(t for _, t in pairs),
        "min_b": min(b for b, _ in pairs),
        "pareto": frontier,
        "witnesses": [pairs[p] for p in frontier],
        "scanned": rank + 1,
    }


# every e at n=5 puts edges in the high and the low half-mask at every
# popcount split
@pytest.mark.parametrize(
    "n,e",
    [(5, e) for e in range(11)]
    + [(6, e) for e in range(16)]
    + [(n, e) for n in range(1, 5) for e in (0, math.comb(n, 2))],
)
def test_extremal_scan_matches_oracle(n, e):
    record = bt.extremal_scan(n, e)
    oracle = _oracle_scan(n, e)
    assert record.min_t == oracle["min_t"]
    assert record.min_b == oracle["min_b"]
    assert record.pareto == oracle["pareto"]
    assert record.witnesses == oracle["witnesses"]
    assert record.scanned == oracle["scanned"] == math.comb(math.comb(n, 2), e)


def test_extremal_scan_known_values():
    record = bt.extremal_scan(6, 10)
    assert record.min_t == 3 and record.min_b == 2
    assert record.pareto == [(2, 4), (3, 3)]


def test_extremal_scan_thread_invariant():
    # the scan runs on one thread; `threads` is still accepted (the benchmark
    # harness passes it) and changes nothing
    a = bt.extremal_scan(6, 10)
    b = bt.extremal_scan(6, 10, threads=2)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


@pytest.mark.parametrize("block", [1, 3, 64, 1 << 20])
@pytest.mark.parametrize("threads", [1, 2])
def test_extremal_scan_block_invariant(monkeypatch, block, threads):
    # small blocks split every popcount class into many blocks, and a block
    # above any scan's size holds every class in one, so a pair's witness
    # must be its largest mask whichever classes share its block; neither
    # the block size nor the ignored `threads` may change a record.  (8, 14)
    # examines 199,282 graphs over 15 classes.
    scans = [(6, 10), (7, 13), (8, 7), (8, 14), (8, 21)]
    default = {ne: bt.extremal_scan(*ne) for ne in scans}
    monkeypatch.setattr(bt.search, "_BLOCK", block)
    for ne, want in default.items():
        got = bt.extremal_scan(*ne, threads=threads)
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        assert got.to_csv() == want.to_csv()


def test_extremal_scan_memory_is_bounded_by_block(monkeypatch):
    # a block holds at most _BLOCK graphs (or one high half's low halves),
    # so the scan's peak memory follows the block size, not the 199,282
    # graphs that (8, 14) examines
    monkeypatch.setattr(bt.search, "_BLOCK", 1024)
    bt.extremal_scan(8, 14)  # builds the cached half-mask tables
    tracemalloc.start()
    try:
        bt.extremal_scan(8, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_scan_tables_are_read_only():
    # every scan shares the cached tables, so a write must fail, not leak
    # into the next scan
    bt.extremal_scan(6, 10)
    slots = bt.search._guard(6, 10)
    us, vs = tables = list(bt.search._slots(6))
    assert list(zip(us.tolist(), vs.tolist())) == list(combinations(range(6), 2))
    low = slots // 2
    for shift, width in ((low, slots - low), (0, low)):
        by_pop, words = bt.search._half(6, slots, shift, width)
        tables += [*by_pop, words]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[:1] = 0


def test_witnesses_reverify():
    record = bt.extremal_scan(6, 10)
    for (b, t), w in zip(record.pareto, record.witnesses):
        g = bt.from_graph6(w)
        assert g.m == 10
        assert bt.triangle_count(g) == t
        assert bt.max_book(g) == b


def test_frontier_monotone_under_cap():
    record = bt.extremal_scan(6, 10)
    values = [record.min_t_under_cap(c) for c in range(1, 8)]
    seen = [v for v in values if v is not None]
    assert all(a >= b for a, b in zip(seen, seen[1:]))
    assert record.min_t_under_cap(0) is None


# sha256 of each record's canonical JSON for every (n, e) with n <= 8.  The
# n=7 keys, (8,7) and (8,21) come from the scan before its rewrite onto the
# popcount kernel, the rest from the scan before it skipped the graphs no
# witness can be; scan output must never change.
SCAN_PINS = {
    "1,0": "ce026301d23907231951487b9a6c96880aa5f262a7f14e7831ba8880e5a46f6a",
    "2,0": "4bf8639e62e429e6d8b7355b8939a2629090a7c5273e9f8939e303cc5375c1dc",
    "2,1": "474593b34e3abb9002094fc53636a541f6487465af328e9b9701b308d8a1840d",
    "3,0": "acbfd414daca898f2c02c9d600b5c9e34194a991b7c7d345d33a0aad46d90665",
    "3,1": "1c04e0a431024bb04ed70c206ad50901dd2c4402080dbd3a752e0fb237c12a89",
    "3,2": "cdb9bc3521ba2118844b1f49391f260457ade46cdb9ac99776f68b646c70729b",
    "3,3": "67457d6d8101c255fb07dea8b3d0af96f36c692abfd05129dda8a8b88c961055",
    "4,0": "e988dcff81efb9daefbca3571f22ee09e943513238a2e40a6aab9cba41bbce7c",
    "4,1": "d12ba443ec9e36c216abbf6e90371ff463528a4eedd0419c5becd800eaa815e2",
    "4,2": "051a3d2b13bc65b89435be3759693fd89d29d633b345a3257bcfc47930b6d52e",
    "4,3": "45ece144fa25975eaa2bc3aa9c5fa1ed343571dfc984c7b871cacb8ad71ea9de",
    "4,4": "c01e5416a8944d5830e2809bab1d153fdaf6c8b2895b044b3b72484c1a961ee8",
    "4,5": "141dc97a7f1c5d1e463a6345a66c26eedf172223653e6930019fed63991886d3",
    "4,6": "8df3dc0016c5192f11cc77ef4794fb12662a93ebaa68700a81efdf869f74b9de",
    "5,0": "ff41bf3a224f5cad8dfb74a59f8ab59b3738d1213c633624ac53c5f5783efc77",
    "5,1": "9016b8ab0afd6c292e5828f8e07f3ceca2e99b350e500222537bd9a241eb36ac",
    "5,2": "d79facab4e1433c0b8c46e154b975975b80584bf9577e8eb93ce6675eef6f69c",
    "5,3": "5662c2e34874faabf53a2d89bfe2453fa956b89066396d1dd0f7c36d6bdff671",
    "5,4": "207f450593becae6ec7836a4586ea2b832057550a9b96d114979bfe7ec8adfe6",
    "5,5": "37011284c448e3ac0efaf2f0a60b319d0e4628477c15f80011f6c0525fb348ba",
    "5,6": "55abee1dc7fca9cec6a4d7a2a61a88c537d5ce5e8eb51a43bcbca0d637073a50",
    "5,7": "a76c4c4e762e48e8d5f05c87cd4f3b87ac90d691bfa747efb6fecc86df92539a",
    "5,8": "9daa8b01c4db8f7acef3e77177e87e03b76e07c26a593ab0c08f70689f2fd62b",
    "5,9": "c78f4fd2892fa1b5fa0b7342350178cc8bbf4e0978a662169656a288e82f8385",
    "5,10": "9efd77be4da8a7756f9615d9bfa6d5dc938c2e36c4968345777d9d311e751739",
    "6,0": "084c06f876399572b80df991f41e3e27ef9dff6244d531a4b9e8a5112ae54dba",
    "6,1": "dff0f9145a49b6e8cefe99b47af0914f295ef7b5adbd91d686db4bd643751a50",
    "6,2": "3eac46f6aa2bbe4aa5f8fcd0e59963d588e02619391f1967ca261ae195da0597",
    "6,3": "cbe7b9b8f94d437412d7e06d43db7d7b191184ea7cdd2ff0ad0b2bbfdde33fa4",
    "6,4": "2304b79969508e0bcb910fcf02acf7dec4d796581e722a226214bebad3a0f7f9",
    "6,5": "188cf2821cf9d3761b25a458c130bbf4ce7fd61056b51eea51f667bb2ae1ad18",
    "6,6": "8d1b355c6714b307bfe63c72635797e55f143914ec1fe5e38f31cfda807b714c",
    "6,7": "4f91d271b5c8993d96da59b185db877c2b1a53a9938abe29abe44af7f8008350",
    "6,8": "274d7875214d25bc4f0589a483ffb4cae0b0e43f09138623269adbcef2cf9863",
    "6,9": "3f47446ed5af69fb7c6507a7dad32c43c0490ff8ab60d62474aaa3a5e4e1ed82",
    "6,10": "c914595640cb5ceeff6d364abf9dfdd00af1d55b461ede3a379fe676aa52d044",
    "6,11": "8436f0952c046e221f52865742f8400ddf8146c2893df341fb60631dd3ce3e01",
    "6,12": "1af06057f573aaa6317d2c0fad252392da8355e09bdf7d4ece1c96adad12a364",
    "6,13": "aa8e239d3b485065542e2dff6c6b9b7a493158cd51979627e6205c4ed8254482",
    "6,14": "de7a55b504ecb48f31941cf3a054a9c8c1a70395345ee626fce282102e1f4473",
    "6,15": "9ea83dd74043745f6482f6eb18bb80da3eee5efb5a4d7fb51bd6d53d9d1788e4",
    "7,0": "5c6dd5f456a1640d76d3c8ad7343fae1e56a4a98ac0bc5bb7cb0eeb44334599f",
    "7,1": "42649ba77a2767e8400888ab8a6fa0cdb8b8453214a81fe5574225564cdedd99",
    "7,2": "57e6d5bf6516be00f29ded9ffc8b06091e967419ac0372bb12e8725e5154eccb",
    "7,3": "8d3aacb4d531928acf1f48d3f53a5ab78be7bdcca05b78f17ec6ec60e72aba8d",
    "7,4": "28b6bb55fec06a7f5415008525bd63c2801503b16d5a03184d01eb5965d95a7b",
    "7,5": "02ba8f9ec61fa189b409ef761117a028460eca6a3493fbee91bb3eec495be42f",
    "7,6": "7c95c57b71b95bf4077df7b2763682f3a3c562ce873315655055ef73dcf6e56b",
    "7,7": "a73ade2af41cd24d024c132b07ae9fc4ee40ad7ba298d39e5fa3de7772368089",
    "7,8": "eb8ff5b0f35cb0494af5950c85b2d921034bcef25d4834ae20537e594ad431b1",
    "7,9": "1804cc26e8b9ff0ea8ea7e29871f3f5ee30ccda0996001c5d30dda27d7430c8b",
    "7,10": "73349defdad2190da34db6ba00480734945f0f136c7241424b12657ff0413ecc",
    "7,11": "f0e22e81639eaaa6ab8d67628028cca2f66c166845d60028fc9cee6f9702abc3",
    "7,12": "eede36a91bb6135afbda555f8017eab36150a3a27131c8b6177d13ee16f415f0",
    "7,13": "c0ca13d7c4b9b31d15fb1785fdeb2bf47a236aa24b4cc5e94ebe469557dbfb21",
    "7,14": "93b851a7562e01cb900db47ccf9f7646202e1503c6bc13d67de2f8d680c606f1",
    "7,15": "18d91226d75ce09ec01d912fc042bb348b552761be08f4bb3b411a294a512428",
    "7,16": "a03636f10abf8cf1d1916c479904369c543dfb38c945002e61d816be746001e8",
    "7,17": "7a46ab3f820fbaa42e5f2c831998dbada1c4c410861bf4ddbd5f1eecdeb40a29",
    "7,18": "c63b6bd1fd05cfdaf0cb358fb4fbdc826b6681461ae2f5f1729dd90bb2f2ac90",
    "7,19": "334a75c65d3b4b6ce5edaea20fd88b6657301e870b02301d60c77fc6604a963c",
    "7,20": "6d7172d2ab8490d3eb0f7d3ebf0164761e1f187def9be22aa57e527a3c51a848",
    "7,21": "015f01eb915f8846d307c31ed97f81415e21b53b98cd7d4172cc62762cc26ce3",
    "8,0": "a4771f03140fb8f3014543c7c1dfc68ef0cc62ca43a0c6ecaab57ff43bb5f08c",
    "8,1": "50d8a9c64abfdbd3d06626b2ca208927cb6193cd7dc5dac1b180b63063318853",
    "8,2": "56116d953d9a2d1022efa994543ae47778c07d8b690ea772157006d1549465d5",
    "8,3": "1206d35568ac28923aa879e6c43e8be7f9ef0d26c7685da2e4c90e619f1f608a",
    "8,4": "1783e0741cbbe911dbd2e2c686f3771ea6911daaa5a34a77f97fb243826e9650",
    "8,5": "4ace72881d47ecfcbfbf7c57c020c2084c485aafe76a8b669069c7160eb73499",
    "8,6": "d61ebe5c724533fc48e21dad3f22a110a1b83f15d9a7221edb439067a09135ed",
    "8,7": "04e5a96300d77d34ca9e68e7d92c33eec21dab684e4e2d419d6bc3596941d0bb",
    "8,8": "a1da6dcae52eeac7f60add19f22feaa8a8ae2226f6df3739d123354fa6110d67",
    "8,9": "248930a4c9aa3d7afdcb330d11723b314c96f868fefeab630ac17fad90270b5b",
    "8,10": "b8bcb8b2a1ff732a20b4d25b24d6c05b9a8b8b18d02b5cdbc285bfda3c9c9bbe",
    "8,11": "1987125a7bdbdfd90c49144bab7c47c5c7fd85624d91640741e8d08c4d17cecd",
    "8,12": "4fa4f612d0138cd36213a92bce72919919a6dca54e6b37908a39eb40a1fb17fc",
    "8,13": "7ff154b1820587ffa0290430c8f07394001883cd49ee5fec783859e500db21e4",
    "8,14": "514bb971dd0d404a5d56b26bd6eaf28a82f8ba91bb3f9d068056692524f0bd44",
    "8,15": "0195f25f86d423e883a2f66c5fecc247e0845fd4c5d575bd1e11fe3883ed0938",
    "8,16": "f3cfaa61c375561cb0e34947f039c25b861d9f2734e18c3ecf19263cbda08f25",
    "8,17": "dbf36662f70bd4a38b4978bc4adf9e5e492bea74a19949caa8beee8bb4d72e2e",
    "8,18": "c2e0795abe9e7b61dfbd7163fca44db4992e064b81aa8f846388ab137af46218",
    "8,19": "12616b4cb3b5bad3f62f8698e2806c66868a781763b4b83d23a8fc9236efff2b",
    "8,20": "6d4b3a549bce64aada601ab43df277e5194c1f763cbb5e96dd6d1b74b7114911",
    "8,21": "da6e66dc230ebc1ab19095c7db31fb5f91715010056bc8dd43821325bef7d95e",
    "8,22": "15e45f4dc44f04cc55f0ea1566d32ee815678c3b025613c4ddf16a00b4819897",
    "8,23": "a02b6735802eb9883394962624ede064421a3111ca2160f2edbd455c7b8f94c7",
    "8,24": "8943b9a10fd3fbfdf78e98c5484e770f8d7616d862b27b4a7b70454dfc461649",
    "8,25": "0b5cf93b634514388669227ac333eb88ada36c9b734d31a911bb327f1771e8f6",
    "8,26": "460286025144f8111946eb3a8d6e0668b404f2a46140a9e21f47b9ec0dd0af0b",
    "8,27": "7f0788f54b7275c8d26d93d1bdf659eef438879b2f08b1f413e23afa560f1cfe",
    "8,28": "a109618ea9e50aa826a07b7e922bc62d8599ae7475c903e0ef4ceacb91864e6a",
}


def _digest(record) -> str:
    blob = json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def test_extremal_scan_golden_pins():
    # the pins were taken from the scan before any cut; `threads` is
    # accepted and ignored, so the records must match them with it set
    for key, digest in SCAN_PINS.items():
        n, e = map(int, key.split(","))
        assert _digest(bt.extremal_scan(n, e, threads=2)) == digest, key


def test_extremal_scan_witnesses_are_canonical():
    # every record matches its pin, taken from the scan before any cut; the
    # scan skips every graph whose vertex 0 is not a max-degree vertex
    # adjacent to exactly 1..d, or whose vertex 1 meets {2..d} or
    # {d+1..n-1} outside a prefix, so each witness must be none of those
    for key, digest in SCAN_PINS.items():
        n, e = map(int, key.split(","))
        record = bt.extremal_scan(n, e)
        assert _digest(record) == digest, key
        for w in record.witnesses:
            adj = bt.from_graph6(w).adj
            d = adj[0].bit_count()
            assert max(row.bit_count() for row in adj) == d, (key, w)
            assert adj[0] == (1 << d + 1) - 2, (key, w)
            if n > 1:
                inner, outer = adj[1] & adj[0], adj[1] >> d + 1 << d + 1
                assert inner == (1 << inner.bit_count() + 2) - 4, (key, w)
                assert outer == ((1 << outer.bit_count()) - 1) << d + 1, (key, w)


def test_scan_guard():
    for e in range(-1, 38):
        with pytest.raises(bt.ExplosionGuardError):
            bt.extremal_scan(9, e)


def test_scan_rejects_nonpositive_n():
    for n in (-1, 0):
        with pytest.raises(bt.GraphSizeError):
            bt.extremal_scan(n, 0)
        with pytest.raises(bt.GraphSizeError):
            list(enumerate_fixed_edges(n, 0))


def test_anneal_reaches_exhaustive_minimum():
    params = bt.AnnealParams(book_cap=7, budget=10**5, seed=1)
    record = bt.anneal_min_triangles(6, 10, params)
    assert record.min_t == bt.extremal_scan(6, 10).min_t == 3
    assert record.mode == "heuristic"
    assert record.scanned == 10**5 + 1


def test_anneal_matches_exhaustive_5_7():
    params = bt.AnnealParams(book_cap=6, budget=10**5, seed=2)
    record = bt.anneal_min_triangles(5, 7, params)
    assert record.min_t == bt.extremal_scan(5, 7).min_t == 2


def test_anneal_reproducible():
    params = bt.AnnealParams(book_cap=7, budget=20000, seed=42)
    a = bt.anneal_min_triangles(6, 10, params)
    b = bt.anneal_min_triangles(6, 10, params)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.rng == "numpy-pcg64" and a.seed == 42


def test_anneal_respects_cap():
    params = bt.AnnealParams(book_cap=3, budget=5000, seed=5)
    record = bt.anneal_min_triangles(7, 11, params)
    for (b, _), w in zip(record.pareto, record.witnesses):
        assert b < 3
        assert bt.max_book(bt.from_graph6(w)) == b


def test_anneal_rademacher_floor():
    # any feasible 12-vertex graph with 37 edges has at least 6 triangles
    params = bt.AnnealParams(book_cap=12, budget=20000, seed=1)
    record = bt.anneal_min_triangles(12, 37, params)
    assert record.min_t >= 6


def test_anneal_keeps_best_seen_from_init():
    init = bt.edwards_generalized(30, Fraction(2, 5))
    params = bt.AnnealParams(book_cap=6, budget=3000, seed=3, init=init.graph)
    record = bt.anneal_min_triangles(30, init.e, params)
    assert record.min_t <= init.predicted_t


def test_anneal_init_validation():
    init = bt.complete_bipartite(3, 3)
    with pytest.raises(bt.ParameterError):
        bt.anneal_min_triangles(6, 10, bt.AnnealParams(book_cap=7, budget=10, seed=1, init=init))
    with pytest.raises(bt.ParameterError, match=r"^edge count 16 outside 0\.\.15 for n=6$"):
        bt.anneal_min_triangles(6, 16, bt.AnnealParams(book_cap=7, budget=10, seed=1))
    wide = bt.complete_bipartite(3, 4)
    with pytest.raises(bt.ParameterError, match=r"^init has 7 vertices, expected 6$"):
        bt.anneal_min_triangles(6, 12, bt.AnnealParams(book_cap=7, budget=10, seed=1, init=wide))
    dense = bt.rademacher_extremal(6).graph  # b = 3
    with pytest.raises(bt.ParameterError, match=r"^init violates book cap: b=3 >= 3$"):
        bt.anneal_min_triangles(6, 10, bt.AnnealParams(book_cap=3, budget=10, seed=1, init=dense))


def test_anneal_measures_init_once(monkeypatch):
    calls = []
    kernel = bt.search._groups
    monkeypatch.setattr(bt.search, "_groups", lambda g: calls.append(g.m) or kernel(g))
    dense = bt.rademacher_extremal(6).graph
    bt.anneal_min_triangles(6, 10, bt.AnnealParams(book_cap=4, budget=10, seed=1, init=dense))
    assert calls == [10]
    # a random start measures each candidate once: the first fits a loose
    # cap, and under cap 1 all 200 fail (10 edges on 6 vertices close a triangle)
    calls.clear()
    bt.anneal_min_triangles(6, 10, bt.AnnealParams(book_cap=7, budget=10, seed=1))
    assert calls == [10]
    calls.clear()
    with pytest.raises(bt.ParameterError, match="no feasible random start"):
        bt.anneal_min_triangles(6, 10, bt.AnnealParams(book_cap=1, budget=10, seed=1))
    assert calls == [10] * 200


@pytest.mark.parametrize("n", [0, -1, 10**9])
def test_anneal_refuses_vertex_count_before_allocating(monkeypatch, n):
    def fail(n, k):
        raise AssertionError("slots listed before the vertex count was checked")

    monkeypatch.setattr(bt.search.np, "triu_indices", fail)
    with pytest.raises(bt.GraphSizeError):
        bt.anneal_min_triangles(n, 1, bt.AnnealParams(book_cap=5, budget=10, seed=1))


def test_anneal_params_validation():
    with pytest.raises(bt.ParameterError):
        bt.AnnealParams(book_cap=3, budget=0, seed=1)
    with pytest.raises(bt.ParameterError):
        bt.AnnealParams(book_cap=3, budget=10, seed=1, decay=1.5)
    with pytest.raises(bt.ParameterError):
        bt.AnnealParams(book_cap=3, budget=10, seed=-1)
    with pytest.raises(bt.ParameterError, match=r"^book cap must be >= 1, got 0$"):
        bt.AnnealParams(book_cap=0, budget=10, seed=1)


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("book_cap", 4.5, "book cap"),
        ("book_cap", Fraction(9, 2), "book cap"),
        ("book_cap", np.int64(5), "book cap"),
        ("budget", 100.0, "budget"),
        ("seed", 1.5, "seed"),
        ("seed", "1", "seed"),
    ],
)
def test_anneal_params_refuse_non_integers(field, value, shown):
    knobs = {"book_cap": 5, "budget": 100, "seed": 1, field: value}
    with pytest.raises(bt.ParameterError, match=rf"^{shown} must be an integer, got "):
        bt.AnnealParams(**knobs)


def test_anneal_fractional_cap_regression():
    """A cap of b + 0.5 once slipped past the cap test: `top = cap - 1` never
    equals an integer book, so moves that lift a book from b to b + 1 passed,
    e.g. n = 9, e = 23, cap 4.5 reported pareto [(3, 14), (5, 13)]."""
    with pytest.raises(bt.ParameterError, match=r"^book cap must be an integer, got 4\.5$"):
        bt.anneal_min_triangles(9, 23, bt.AnnealParams(book_cap=4.5, budget=400, seed=1))


def _canonical(record) -> str:
    return json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))


# sha256 of _canonical(record) for (n, e, book_cap, seed), and of the sweep
# CSV, taken from the annealer before its incremental rewrite; the records
# must never change.
ANNEAL_PINS = {
    (6, 10, 7, 1): "f9d5c72073dfa13ef19b9c2aece4c4814228bb95501a2adf0dfc419f556ad5ef",
    (6, 10, 7, 2): "60b494a3af672af8248506f627a68c969d007c6fb64b64d638f802ab86ed39d3",
    (6, 10, 7, 42): "d4bee8a123634ed63c366e99608a0eb86bd899e3166968cc762c5b58b49668a4",
    (12, 37, 12, 1): "6adcfd582c12e940bc8eb2e19f2e5e23270816a01007786decb14d514f83a105",
    (40, 401, 14, 1): "e79f58324e22bc033fe62b27da4f01d49eab31c141f5590825eeb1df23784bda",
    (40, 401, 12, 1): "977b068f2868320a52c9cf4ee65b7cb5e0d9b2a7774343d928af82b9c8b010cf",
}
SWEEP_PIN = "ac934d1a66dfdb8208fc7164f8a6f4216848f729ad7ac7ba7b7660449390aab6"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_anneal_golden_pins():
    # n=40 runs start from the rewired-vertex family; under cap 12 that is
    # the 3/5 graph, whose b = 11 sits one below the cap from the start
    assert bt.strict_book_cap(40, Fraction(3, 5)) == 12
    starts = {
        14: bt.theorem1_sharp(40, Fraction(7, 10)).graph,
        12: bt.theorem1_sharp(40, Fraction(3, 5)).graph,
    }
    for (n, e, cap, seed), pin in ANNEAL_PINS.items():
        params = bt.AnnealParams(
            book_cap=cap,
            budget=5000 if n == 40 else 20000,
            seed=seed,
            init=starts[cap] if n == 40 else None,
        )
        record = bt.anneal_min_triangles(n, e, params)
        assert _sha256(_canonical(record)) == pin, (n, e, cap, seed)
    entries = bt.alpha_sweep(40, ["3/5", "9/10"], seed=1, budget=2000)
    assert _sha256(bt.sweep_to_csv(entries)) == SWEEP_PIN


# the same for runs whose pools hold vertices >= 256, one from a random start
# and one from rademacher_extremal(1024): (n, e, book_cap, budget) -> pin
LARGE_ANNEAL_PINS = {
    (300, 22501, 300, 2000): "984194900feb2c6261c03e182965ed59c4044d4e5652967536b296d057e4cccd",
    (1024, 262145, 600, 1000): "73dce24c04a8d3b552e92c6fbf08ffd7baffc991daed7c48fc6bad7bae648a22",
}


def test_anneal_large_n_golden_pins():
    for (n, e, cap, budget), pin in LARGE_ANNEAL_PINS.items():
        init = bt.rademacher_extremal(n).graph if n == 1024 else None
        params = bt.AnnealParams(book_cap=cap, budget=budget, seed=1, init=init)
        record = bt.anneal_min_triangles(n, e, params)
        assert _sha256(_canonical(record)) == pin, (n, e, cap)


def test_anneal_matches_full_recount_reference():
    """The incremental annealer against the full-recount reference, on random
    small cases; half start from a random graph whose largest book sits just
    below the cap, so cap rejections are frequent."""
    rng = random.Random(20)
    ran = 0
    for case in range(20):
        n = rng.randint(4, 9)
        slots = n * (n - 1) // 2
        init = None
        if case % 2:
            init = random_graph(rng, n, rng.uniform(0.3, 0.8))
            e, cap = init.m, brute_max_book(init) + 1
        else:
            e, cap = rng.randint(slots // 4, 3 * slots // 4), rng.randint(n // 2 + 1, n - 1)
        params = bt.AnnealParams(
            book_cap=cap,
            budget=rng.randint(100, 400),
            seed=rng.randrange(2**64),
            init=init,
            t0=rng.choice([0.3, 2.0, 8.0]),
        )
        try:
            expected = _canonical(anneal_reference(n, e, params))
        except bt.ParameterError:
            with pytest.raises(bt.ParameterError):
                bt.anneal_min_triangles(n, e, params)
            continue
        assert _canonical(bt.anneal_min_triangles(n, e, params)) == expected, (n, e, params)
        ran += 1
    assert ran >= 15


def test_anneal_matches_reference_past_chunk_boundaries(monkeypatch):
    """Budgets of 9,000 proposals read at least 9,000 words, so the walk
    crosses two chunk boundaries of _Draws: once from a random start whose
    draws leave half a word buffered (the shifted pairing) and once from init
    (aligned)."""
    fills = []
    fill = bt.search._Draws.fill
    monkeypatch.setattr(bt.search._Draws, "fill", lambda d, h: fills.append(h) or fill(d, h))
    init = random_graph(random.Random(7), 8, 0.5)
    cap = brute_max_book(init) + 1
    cases = [
        (7, 12, bt.AnnealParams(book_cap=4, budget=9000, seed=11, t0=8.0)),
        (8, init.m, bt.AnnealParams(book_cap=cap, budget=9000, seed=12, init=init)),
    ]
    for n, e, params in cases:
        fills.clear()
        expected = _canonical(anneal_reference(n, e, params))
        assert _canonical(bt.anneal_min_triangles(n, e, params)) == expected, (n, e)
        assert len(fills) >= 3
        assert (fills[0] >= 0) == (params.init is None)


# bounds for _Draws: any k < 2**32, plus ranges where Lemire's method rejects
# often (about 1/4 of draws near 3 * 2**30, 1/2 just above 2**31)
_BOUNDS = st.one_of(
    st.integers(1, 4),
    st.integers(1, 2**32 - 1),
    st.integers(3 * 2**30 - 64, 3 * 2**30),
    st.integers(2**31 + 1, 2**31 + 64),
)


class _Reader:
    """Reads _Draws as anneal_min_triangles does: each pair by index off the
    decoded lists in the aligned or shifted pairing, numpy's exact scalar
    path on a rejected half or a bound of 1, and a uniform by index."""

    def __init__(self, draws):
        self.draws, self.j, self.h = draws, draws.j, draws.h
        self.pairings = set()

    def _word(self):
        if self.j == len(self.draws.uniform):
            self.h, self.j = self.draws.fill(self.h), 1

    def pair(self) -> tuple[int, int]:
        self._word()
        d, j, h = self.draws, self.j, self.h
        ri, ai = (d.lo_r[j], d.hi_a[j]) if h < 0 else (d.hi_r[h], d.lo_a[j])
        if ri < 0 or ai < 0:
            ri, ai, self.j, self.h = d.pair(j, h)
        else:
            self.pairings.add("aligned" if h < 0 else "shifted")
            self.h = -1 if h < 0 else j
            self.j = j + 1
        return ri, ai

    def uniform(self) -> float:
        self._word()
        self.j += 1
        return self.draws.uniform[self.j - 1]


@settings(deadline=None, max_examples=60)
@example(seed=1, odd_start=True, kr=1, ka=1000, steps=5000, uphill=1.0)
@example(seed=2, odd_start=False, kr=7, ka=1, steps=5000, uphill=0.3)
@example(seed=3, odd_start=False, kr=3 * 2**30, ka=2**31 + 1, steps=5000, uphill=0.3)
@example(seed=4, odd_start=True, kr=10, ka=5, steps=9000, uphill=1.0)
@given(
    seed=st.integers(0, 2**64 - 1),
    odd_start=st.booleans(),
    kr=_BOUNDS,
    ka=_BOUNDS,
    steps=st.integers(0, 9000),
    uphill=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_draws_match_numpy_generator(seed, odd_start, kr, ka, steps, uphill):
    """_Draws against a twin Generator, replaying the annealer's draws: a
    pair integers(0, kr), integers(0, ka), then a random() on an uphill
    move.  An odd start leaves half a word buffered in both (has_uint32 set)
    before _Draws takes over, so the pairs start shifted; 9,000 uphill
    steps read 18,000 words, over four chunk boundaries.  The closing draws
    check that both streams end at the same position."""
    rng, twin = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    if odd_start:
        assert rng.integers(0, 7) == twin.integers(0, 7)
    assert rng.bit_generator.state == twin.bit_generator.state
    reader = _Reader(bt.search._Draws(rng, kr, ka))
    moves = random.Random(seed)
    for _ in range(steps):
        assert reader.pair() == (twin.integers(0, kr), twin.integers(0, ka)), (kr, ka)
        if moves.random() < uphill:
            assert reader.uniform() == twin.random()
    assert reader.pair() == (twin.integers(0, kr), twin.integers(0, ka))
    assert reader.uniform() == twin.random()


@pytest.mark.parametrize("k", [3, 1001, 3 * 2**30 + 1, 2**31 + 1])
def test_draws_lemire_threshold_is_exact(k):
    """A buffered half x whose product x * k leaves exactly (2**32 - k) % k
    in its low word is accepted, and one leaving one less is rejected.
    Random streams almost never hit that edge, so the half is set in the
    state of both generators (k is odd, so x = leftover / k mod 2**32)."""
    threshold = (2**32 - k) % k
    for leftover in (threshold, threshold - 1):
        x = leftover * pow(k, -1, 2**32) % 2**32
        rng, twin = (np.random.Generator(np.random.PCG64(9)) for _ in range(2))
        for g in (rng, twin):
            state = g.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, x
            g.bit_generator.state = state
        reader = _Reader(bt.search._Draws(rng, k, 7))
        first = twin.integers(0, k)
        assert (first == x * k >> 32) == (leftover == threshold)
        assert reader.pair() == (first, twin.integers(0, 7))
        assert reader.uniform() == twin.random()
        # the decoded list itself, not only the exact path behind a -1
        assert reader.draws.hi_r[0] == (first if leftover == threshold else -1)


def test_draws_take_both_pairings_past_chunk_boundaries():
    """Each pairing holds across chunk boundaries: a fresh stream pairs
    aligned and a buffered half pairs shifted, and with small bounds no half
    is rejected, so neither switches over 20,000 words."""
    for odd_start, pairing in ((False, "aligned"), (True, "shifted")):
        rng, twin = (np.random.Generator(np.random.PCG64(3)) for _ in range(2))
        if odd_start:
            rng.integers(0, 7)
            twin.integers(0, 7)
        reader = _Reader(bt.search._Draws(rng, 401, 379))
        for _ in range(10_000):
            assert reader.pair() == (twin.integers(0, 401), twin.integers(0, 379))
            assert reader.uniform() == twin.random()
        assert reader.pairings == {pairing}


def test_draws_bound_one_takes_no_word():
    for has_half in (False, True):
        rng, twin = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
        if has_half:
            rng.integers(0, 3)
            twin.integers(0, 3)
        assert rng.bit_generator.state["has_uint32"] == has_half
        draws = bt.search._Draws(rng, 1, 1000)
        assert [draws.integers(1) for _ in range(5)] == [0] * 5
        assert twin.integers(0, 1) == 0
        assert twin.bit_generator.state == rng.bit_generator.state
        for _ in range(3):
            assert draws.integers(1000) == twin.integers(0, 1000)


def test_anneal_degenerate_pools_match_reference():
    """With one edge, or one non-edge, a pool holds a single slot and numpy
    draws nothing for it.  Every state there has the same (t, b), so the
    record is the random start's; that a bound of 1 takes no word is checked
    on the draws themselves above."""
    for n in range(3, 7):
        slots = n * (n - 1) // 2
        for e, cap in ((1, 1), (1, n), (slots - 1, n - 1), (slots - 1, n)):
            for seed in (0, 1, 2**64 - 1):
                params = bt.AnnealParams(book_cap=cap, budget=300, seed=seed)
                expected = _canonical(anneal_reference(n, e, params))
                assert _canonical(bt.anneal_min_triangles(n, e, params)) == expected, (n, e, cap)


def test_strict_book_cap():
    # cap is the smallest integer making (b < cap) equal to (b < alpha*n/2)
    assert bt.strict_book_cap(40, Fraction(11, 20)) == 11  # 11.0 -> b <= 10
    assert bt.strict_book_cap(42, Fraction(11, 20)) == 12  # 11.55 -> b <= 11
    assert bt.strict_book_cap(30, Fraction(2, 5)) == 6


def test_alpha_sweep_dispatch():
    entries = bt.alpha_sweep(40, [Fraction(2, 5), Fraction(7, 20)], seed=1, budget=500)
    assert entries[0].source == "edwards_generalized"
    assert entries[0].best_t == 588
    # at 7/20 the tripartite parts 6,7,7 would put b at the cap, so it refuses
    assert (entries[1].source, entries[1].best_t) == ("none", None)


def test_alpha_sweep_high_alpha_density():
    (entry,) = bt.alpha_sweep(40, [Fraction(9, 10)], seed=1, budget=2000)
    assert entry.best_t is not None
    assert abs(entry.best_t / (40 * 40 / 4) - 0.09) <= 0.1


def test_alpha_sweep_annealing_beats_families():
    """At (10, 9/10) the annealing run improves on the best family, so the
    entry carries its witness, not a family's graph."""
    assert bt.theorem1_sharp(10, Fraction(9, 10)).predicted_t == 9
    (entry,) = bt.alpha_sweep(10, ["9/10"], seed=1, budget=1000)
    assert (entry.source, entry.best_t, entry.b_cap) == ("anneal", 8, 5)
    report = bt.analyze_report(bt.from_graph6(entry.graph6))
    assert (report["n"], report["m"], report["t"], report["b"]) == (10, 26, 8, 4)


def test_alpha_sweep_range_error():
    with pytest.raises(bt.ParameterError):
        bt.alpha_sweep(40, [Fraction(1, 5)], seed=1)


@pytest.mark.parametrize("alphas", [["2/5"], ["7/20"], ["7/10"], []])
@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"seed": 1, "budget": 0}, "budget must be >= 1"),
        ({"seed": -1}, "seed must fit in 64 bits"),
        ({"seed": 2**64}, "seed must fit in 64 bits"),
        ({"seed": 1.5}, "seed must be an integer"),
    ],
)
def test_alpha_sweep_refuses_bad_seed_or_budget(alphas, knobs, message):
    """Whatever the alphas: once only those with an annealing run (7/10 at
    n = 40) refused these, and the others wrapped the seed modulo 2^64."""
    with pytest.raises(bt.ParameterError, match=f"^{message}"):
        bt.alpha_sweep(40, alphas, **knobs)


def test_sweep_csv_format():
    entries = bt.alpha_sweep(40, ["7/20", "9/10"], seed=1, budget=500)
    csv = bt.sweep_to_csv(entries)
    lines = csv.strip().splitlines()
    assert lines[0] == "alpha,b_cap,t,source"
    assert lines[1].startswith("7/20,7,")
    assert len(lines) == 3


def test_family_domains_cover_sweep_guards():
    """The families refuse outside their domains and never report a book at
    or above the cap, so alpha_sweep needs no alpha or parity guards."""
    for n in range(4, 81):
        for p in range(21, 60):  # alpha = p/60 in (1/3, 1)
            alpha = Fraction(p, 60)
            cap = bt.strict_book_cap(n, alpha)
            for build, refuses in (
                (bt.edwards_generalized, alpha >= Fraction(1, 2)),
                (bt.theorem1_sharp, alpha <= Fraction(1, 2) or n % 2),
            ):
                try:
                    report = build(n, alpha)
                except bt.ParameterError:
                    continue
                assert not refuses, (build.__name__, n, alpha)
                assert report.predicted_b < cap, (build.__name__, n, alpha)
