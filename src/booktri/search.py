"""Exhaustive and heuristic search over graphs with a fixed edge count.

Exhaustive scans cover every labeled graph on n <= 8 vertices with exactly e
edges and reduce the (max book, triangles) pairs to a Pareto frontier with
one witness per frontier point: the first graph achieving it in lexicographic
order of the edge subset, i.e. the largest edge mask.  The top n-1 mask bits
spell N(0), so relabelling a max-degree vertex to 0 and its neighbours to
1..d makes them 1^d 0^(n-1-d), a larger mask unless N(0) was {1..d}.  So a
witness has N(0) = {1..d}, d its maximum degree.  Permuting {2..d} and
{d+1..n-1} within themselves keeps that and fixes vertex 1, and the next
n-2 bits, the slots (1,2)..(1,n-1), then read largest when N(1) meets each
range in a prefix, {2..k} and {d+1..j}; so a witness does that too.  The
scan examines only the high half-masks that fit both (the prefix cuts) and
in which no vertex has more than d neighbours yet (the degree cut): the
first steps of orderly generation (Read 1978; McKay 1998).  It makes one
numpy pass per block of edge masks on the calling thread, over every edge
slot at once, and reads each edge's presence off the graph's own rows.

Annealing walks the same fixed-edge-count space with single edge swaps,
rejecting any state whose largest book reaches the cap, and reports the best
feasible states seen.  It keeps the rows, the present and absent (u, v)
pairs, a histogram of book sizes and the current (t, b), reads each book it
needs off two rows, and moves the histogram along the common neighbourhoods
of the swapped edges, so a proposal costs O(codegree), not O(m).  Its
draws are numpy's: the values Generator.integers and random() give on the
seeded PCG64 stream (numpy >= 2.0).  A swap keeps both pool sizes, so every
draw has one of two fixed bounds, and each chunk of raw words is decoded
once in numpy into lists of each half's bounded draw and each word's
uniform.  A proposal reads its two draws by index: both halves of one word
(aligned), or the buffered half of the last word and the next word's low
half (shifted).  Heuristic results are empirical upper bounds on the true
minimum, never proofs.

The alpha sweep tries every row of ``constructions.FAMILIES`` at each alpha
and keeps what fits the cap.  Each family refuses the parameters outside its
own domain, and at most one fits any (n, alpha), so the order picks no source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .analytics import _groups, _t_and_b
from .codec import to_graph6
from .constructions import FAMILIES, ConstructionReport, as_alpha, strict_book_cap
from .errors import ExplosionGuardError, ParameterError
from .graph import Graph, _row_bits, _set_row_bits

EXHAUSTIVE_VERTEX_LIMIT = 8
RNG_ALGORITHM = "numpy-pcg64"

# graphs per scan block, which may span popcount classes: it bounds the
# scan's memory, and a block this small keeps its arrays in cache
_BLOCK = 1 << 13


# -- edge-slot geometry ----------------------------------------------------


def _guard(n: int, e: int) -> int:
    if n > EXHAUSTIVE_VERTEX_LIMIT:
        raise ExplosionGuardError(
            f"refusing exhaustive enumeration at n={n} > {EXHAUSTIVE_VERTEX_LIMIT} "
            f"(C({math.comb(n, 2)},{e}) graphs)"
        )
    Graph(n)  # refuses n < 1 as the other two searches do
    slots = math.comb(n, 2)
    if not 0 <= e <= slots:
        raise ParameterError(f"edge count {e} outside 0..{slots} for n={n}")
    return slots


@cache
def _slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot i's endpoints u < v, lexicographic, as read-only uint8 arrays
    us and vs; the scan builds them only after _guard, so n <= 8."""
    us, vs = (a.astype(np.uint8) for a in np.triu_indices(n, 1))
    us.flags.writeable = vs.flags.writeable = False
    return us, vs


# -- frontier record ---------------------------------------------------------


def pareto_min(pairs) -> list[tuple[int, int]]:
    """Componentwise-minimal antichain of (b, t) pairs, sorted by b."""
    out = []
    for b, t in sorted(set(pairs)):
        if not any(pb <= b and pt <= t for pb, pt in out):
            out.append((b, t))
    return out


@dataclass(frozen=True)
class FrontierRecord:
    """Result of one scan: the minima, the Pareto set, and its witnesses."""

    n: int
    e: int
    mode: str  # "exhaustive" | "heuristic"
    min_t: int
    min_b: int
    pareto: list[tuple[int, int]]
    witnesses: list[str]
    scanned: int
    rng: str | None = None
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def min_t_under_cap(self, cap: int) -> int | None:
        """Smallest t among scanned graphs with b < cap (None if none)."""
        feasible = [t for b, t in self.pareto if b < cap]
        return min(feasible) if feasible else None

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "e": self.e,
            "mode": self.mode,
            "min_t": self.min_t,
            "min_b": self.min_b,
            "pareto": [list(p) for p in self.pareto],
            "witnesses": list(self.witnesses),
            "scanned": self.scanned,
        }
        if self.mode == "heuristic":
            out["rng"] = self.rng
            out["seed"] = self.seed
            out["params"] = dict(self.params)
        return out

    def to_csv(self) -> str:
        lines = ["b,t,witness"]
        lines.extend(
            f"{b},{t},{w}" for (b, t), w in zip(self.pareto, self.witnesses)
        )
        return "\n".join(lines) + "\n"


# -- exhaustive scan ---------------------------------------------------------


@cache
def _half(n: int, slots: int, shift: int, width: int):
    """Tables for mask bits shift..shift+width-1: the half-masks of each
    popcount in descending order, and for each half-mask the vertex rows it
    sets, packed into one uint64 word whose byte u is row u (n <= 8).
    Built once per argument tuple and read-only.

    Slot i of `_slots(n)` sits at mask bit slots-1-i, so lexicographic
    order of edge subsets is descending mask order (Knuth, TAOCP 4A
    7.2.1.3).  The top half (shift + width == slots) holds the slots
    (0, v), then as many of the slots (1, v) as fit, and lists only the
    half-masks that pass the prefix and degree cuts (module docstring).
    Its rows give N(0) whole and N(1) with the low half's slots read as
    absent; a witness's N(1) still meets {2..d} and {d+1..n-1} in prefixes
    once the slots past the top half are dropped, so the cuts are sound at
    any n.
    """
    us, vs = _slots(n)
    masks = np.arange(1 << width, dtype=np.uint32)
    rows = np.zeros((8, masks.size), dtype=np.uint8)
    for j in range(width):
        bit = ((masks >> j) & 1).astype(np.uint8)
        u, v = us[slots - 1 - shift - j], vs[slots - 1 - shift - j]
        rows[u] |= bit << v
        rows[v] |= bit << u
    pops = np.bitwise_count(masks)
    if shift + width == slots:
        n0, n1 = rows[:2].astype(np.uint32)
        d = np.bitwise_count(n0)
        # each set, shifted to its range's first vertex, must read 2^k - 1
        runs = (n0 >> 1, (n0 & n1) >> 2, n1 >> d + 1)  # N(0), N(1) in {2..d}, in {d+1..}
        keep = np.bitwise_count(rows).max(0) <= d  # the degree cut
        for x in runs:
            keep &= x & (x + 1) == 0
        masks, pops = masks[keep], pops[keep]
    by_pop = tuple(masks[pops == k][::-1] for k in range(width + 1))
    words = np.ascontiguousarray(rows.T).view(np.uint64).ravel()
    for a in (*by_pop, words):
        a.flags.writeable = False
    return by_pop, words


def extremal_scan(n: int, e: int, threads: int = 1) -> FrontierRecord:
    """Exact minima and Pareto frontier of (b, t) over every labeled graph
    with n vertices and e edges.

    Only the high halves past the prefix and degree cuts are examined, so
    only graphs whose vertex 0 is a max-degree vertex adjacent to 1..d and
    whose vertex 1 meets {2..d} and {d+1..n-1} in prefixes; they hold every
    pair's witness (module docstring), and `scanned` stays C(slots, e), the
    graphs covered.  Each e-edge mask is a high half OR a low half.  Walking
    the popcount classes h in order, each slice of the high halves of
    popcount h is paired with every low half of popcount e-h, and slices are
    buffered and flushed as one block before the next would pass _BLOCK
    graphs (one slice may, if its low class is larger), so a block may span
    classes and memory follows _BLOCK, not the graphs examined.  One numpy
    pass over every slot (u, v) of a block takes the codegree, the popcount
    of rows u and v ANDed, times the presence bit v of row u.  A block that
    spans classes is not in rank order, so it keeps the largest mask of each
    pair of its local Pareto set, and merging keeps the largest, i.e. the
    lowest rank.  `threads` is accepted and ignored, so callers that pass
    it keep working.
    """
    slots = _guard(n, e)
    low = slots // 2
    hi_masks, hi_words = _half(n, slots, low, slots - low)
    lo_masks, lo_words = _half(n, slots, 0, low)
    us, vs = _slots(n)

    best: dict[tuple[int, int], int] = {}  # pair -> largest mask seen
    # (slots, graphs) arrays reused by every block: fresh ones cost page faults
    bufs = np.empty((2, us.size * max(_BLOCK, *map(len, lo_masks))), np.uint8)

    def scan_block(his: np.ndarray, los: np.ndarray) -> None:
        words = np.take(hi_words, his) | np.take(lo_words, los)
        rows = np.ascontiguousarray(words.view(np.uint8).reshape(-1, 8).T)
        held, c = bufs[:, : us.size * his.size].reshape(2, us.size, his.size)
        rows.take(us, 0, held, "clip")  # "clip" fills out unbuffered; indices < 8
        rows.take(vs, 0, c, "clip")
        np.bitwise_and(c, held, out=c)
        np.bitwise_count(c, out=c)  # codegree of every slot
        np.right_shift(held, vs[:, None], out=held)
        np.bitwise_and(held, 1, out=held)  # the slot's presence bit
        np.multiply(c, held, out=c)
        tri3 = c.sum(0, dtype=np.uint8)  # n <= 8: 3t <= 168
        book = c.max(0, initial=0)
        key = book.astype(np.uint16) << 8 | tri3
        present = np.flatnonzero(np.bincount(key)).tolist()
        found = {(k >> 8, (k & 255) // 3): k for k in present}
        masks = his << low | los
        # the block's largest mask per pair of its own Pareto set
        for pair in pareto_min(found):
            mask = int(masks.max(where=key == found[pair], initial=0))
            best[pair] = max(mask, best.get(pair, mask))

    block: list[tuple[np.ndarray, np.ndarray]] = []
    size = 0
    for h in range(max(0, e - low), min(e, slots - low) + 1):
        his_h, los = hi_masks[h], lo_masks[e - h]
        step = max(1, _BLOCK // los.size)
        for i in range(0, his_h.size, step):
            his = his_h[i : i + step]
            if size + his.size * los.size > _BLOCK and block:
                scan_block(*map(np.concatenate, zip(*block)))
                block, size = [], 0
            block.append((np.repeat(his, los.size), np.tile(los, his.size)))
            size += his.size * los.size
    scan_block(*map(np.concatenate, zip(*block)))

    def witness(mask: int) -> str:
        g = Graph(n)
        word = hi_words[mask >> low] | lo_words[mask & (1 << low) - 1]
        g.adj = list(word.tobytes()[:n])
        return to_graph6(g)

    frontier = pareto_min(best)
    witnesses = [witness(best[p]) for p in frontier]
    return FrontierRecord(
        n=n,
        e=e,
        mode="exhaustive",
        min_t=min(t for _, t in best),
        min_b=min(b for b, _ in best),
        pareto=frontier,
        witnesses=witnesses,
        scanned=math.comb(slots, e),
    )


# -- simulated annealing -----------------------------------------------------


@dataclass(frozen=True)
class AnnealParams:
    """Knobs for one annealing run.

    book_cap, budget and seed are ints.  book_cap is a strict upper bound:
    states with max book >= book_cap are rejected outright, keeping the
    whole walk inside the capped class.  No graph has a book below 0, so the
    cap must be at least 1.
    Temperature starts at t0 > 0 and decays geometrically per proposal; once
    it underflows to 0.0 no uphill move is accepted.  A proposal costs
    O(codegree) whatever the edge count (see anneal_min_triangles).
    """

    book_cap: int
    budget: int
    seed: int
    init: Graph | None = None
    t0: float = 2.0
    decay: float = 0.9995

    def __post_init__(self):
        named = (("book cap", self.book_cap), ("budget", self.budget), ("seed", self.seed))
        for name, value in named:
            if not isinstance(value, int):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.book_cap < 1:
            raise ParameterError(f"book cap must be >= 1, got {self.book_cap}")
        if self.budget < 1:
            raise ParameterError(f"budget must be >= 1, got {self.budget}")
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ParameterError(f"t0 must be positive and finite, got {self.t0}")
        if not 0.0 < self.decay < 1.0:
            raise ParameterError(f"decay must be in (0, 1), got {self.decay}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")


_CHUNK = 4096  # raw words fetched and decoded at a time


def _lemire(halves: np.ndarray, k: int) -> list[int]:
    """Generator.integers(0, k) on each 32-bit half by Lemire's method (2019),
    or -1 where the method rejects the half and draws again.  All -1 for
    k = 1, which numpy answers without a half."""
    if k == 1:
        return [-1] * halves.size
    m = halves * np.uint64(k)
    ok = (m & 0xFFFFFFFF) >= (0x100000000 - k) % k
    return np.where(ok, (m >> 32).astype(np.int64), -1).tolist()


class _Draws:
    """numpy's Generator.integers(0, k) for the two pool sizes kr and ka, and
    its random(): the same values from the same PCG64 stream, decoded from
    raw words a chunk at a time.

    numpy >= 2.0 bounds a draw by Lemire's method on a 32-bit half: the low
    half of a fresh word, then its buffered high half (has_uint32 and
    uinteger in bit_generator.state); k = 1 takes no half.  random() is
    (w >> 11) * 2**-53 of a whole word and leaves the buffer alone.

    The stream's position is (j, h): word j is the next fresh word, and h is
    the index of the word whose high half is buffered, or -1.  A chunk holds
    that buffered word at index 0 and _CHUNK fresh words after it.  Lists
    give each word's draws: uniform its random(), lo_r and hi_r
    integers(0, kr) on its low and high half, lo_a and hi_a the same for ka
    (-1 where Lemire rejects).  A pair of draws with no buffered half reads
    lo_r and hi_a of one word (aligned); with one, hi_r of the buffered word
    and lo_a of the next (shifted).  Each chunk decodes the two lists of its
    pairing, and the other two once a pair switches to it.  The lists are
    refilled in place, so a caller may hold on to them.  Words are read
    ahead, so the wrapped Generator must not be used afterwards.
    """

    def __init__(self, rng: np.random.Generator, kr: int, ka: int):
        bits = rng.bit_generator
        state = bits.state
        self._raw = bits.random_raw
        self._k = (kr, ka)
        self._w = np.zeros(_CHUNK + 1, dtype=np.uint64)
        self.uniform, self.lo_r, self.hi_r, self.lo_a, self.hi_a = (
            [0] * self._w.size for _ in range(5)
        )
        self._decoded: set[bool] = set()
        # no word is fetched before a draw; a half the Generator left
        # buffered sits in the last slot, which fill carries to index 0
        self.j, self.h = self._w.size, -1
        if state["has_uint32"]:
            self._w[-1], self.h = state["uinteger"] << 32, self._w.size - 1

    def fill(self, h: int) -> int:
        """Fetch the next chunk, with the buffered word h carried to index 0;
        the new position is (1, the returned h)."""
        w = self._w
        w[0] = w[h]  # with no buffered word, index 0 is never read
        w[1:] = self._raw(_CHUNK)
        self.uniform[:] = ((w >> 11) * 2.0**-53).tolist()
        self._decoded.clear()
        self._decode(h >= 0)
        return 0 if h >= 0 else -1

    def _decode(self, shifted: bool) -> None:
        kr, ka = self._k
        lo, hi = self._w & 0xFFFFFFFF, self._w >> 32
        if shifted:
            self.hi_r[:], self.lo_a[:] = _lemire(hi, kr), _lemire(lo, ka)
        else:
            self.lo_r[:], self.hi_a[:] = _lemire(lo, kr), _lemire(hi, ka)
        self._decoded.add(shifted)

    def integers(self, k: int) -> int:
        """Uniform in [0, k), as rng.integers(0, k), from position (j, h)."""
        while k > 1:
            if self.h < 0:
                if self.j == self._w.size:
                    self.h, self.j = self.fill(-1), 1
                half = int(self._w[self.j]) & 0xFFFFFFFF
                self.h = self.j
                self.j += 1
            else:
                half = int(self._w[self.h]) >> 32
                self.h = -1
            m = half * k
            # Lemire (2019): redraw while the low word is below 2**32 % k
            if (m & 0xFFFFFFFF) >= (0x100000000 - k) % k:
                return m >> 32
        return 0

    def pair(self, j: int, h: int) -> tuple[int, int, int, int]:
        """integers(0, kr), then integers(0, ka), from position (j, h), with
        the position after them; decodes the lists of their pairing."""
        self.j, self.h = j, h
        kr, ka = self._k
        ri, ai = self.integers(kr), self.integers(ka)
        if (self.h >= 0) not in self._decoded:
            self._decode(self.h >= 0)
        return ri, ai, self.j, self.h


def anneal_min_triangles(n: int, e: int, params: AnnealParams) -> FrontierRecord:
    """Minimize the triangle count over graphs with exactly e edges and max
    book below params.book_cap, by Metropolis annealing on single edge swaps.

    A move removes one uniformly random present edge r and adds one
    uniformly random edge a absent from the pre-move state.  The walk keeps
    the bitset rows, a histogram of book sizes and the current (t, b), and
    reads each book off two rows.  A move changes t by the book of a after r
    is gone minus the book of r, and only the edges in a triangle with r
    (one less) or with a (one more) change book, so a proposal costs
    O(codegree) rather than O(m); a rejected proposal changes no state.
    Runs are reproducible from the seed (PCG64): the random start uses the
    Generator, and every later draw is the value numpy's integers(0, k) or
    random() would return.  _Draws decodes them a chunk of raw words at a
    time, and the loop reads them by index: a pair comes from one word's
    low and high half (aligned), or from the buffered high half and the
    next word's low half (shifted; most random starts leave one), and
    an uphill move's uniform from the next whole word, leaving the buffer
    alone.  A half Lemire's method rejects, or a pool of one pair, takes
    numpy's exact scalar path instead.  The record carries the generator id,
    seed, and knobs.  The reported values are upper bounds for the capped
    minimum, not proofs.
    """
    Graph(n)  # refuses n outside 1..MAX_VERTICES before the slots are listed
    us, vs = np.triu_indices(n, 1)  # slot i is (us[i], vs[i]), lexicographic
    slots = us.size
    if not 0 <= e <= slots:
        raise ParameterError(f"edge count {e} outside 0..{slots} for n={n}")
    rng = np.random.Generator(np.random.PCG64(params.seed))

    if params.init is not None:
        if params.init.n != n:
            raise ParameterError(f"init has {params.init.n} vertices, expected {n}")
        g = params.init.copy()
        if g.m != e:
            raise ParameterError(f"init has {g.m} edges, expected {e}")
        hist = _groups(g)[3]
        b = _t_and_b(hist)[1]
        if b >= params.book_cap:
            raise ParameterError(f"init violates book cap: b={b} >= {params.book_cap}")
    else:
        for _ in range(200):
            pick = rng.choice(slots, size=e, replace=False)
            m = np.zeros((n, n), dtype=bool)
            m[us[pick], vs[pick]] = True
            m |= m.T
            g = _set_row_bits(Graph(n), m)
            hist = _groups(g)[3]
            if _t_and_b(hist)[1] < params.book_cap:
                break
        else:
            raise ParameterError(
                f"no feasible random start under book cap {params.book_cap}; "
                "provide init explicitly"
            )

    adj = g.adj
    # the pools hold the present and absent (u, v) pairs in slot order
    held = _row_bits(g.adj, n)[us, vs]
    present = list(zip(us[held].tolist(), vs[held].tolist()))
    absent = list(zip(us[~held].tolist(), vs[~held].tolist()))

    # the book of a present edge (u, v) is (adj[u] & adj[v]).bit_count();
    # hist[c] counts the present edges with book c
    cur_t, cur_b = _t_and_b(hist)
    hist = hist.tolist() + [0] * (n - hist.size)

    def shift(x, y, mask, d) -> int:
        """The books of (x, w) and (y, w), w in mask, have just changed by d:
        read each new book off the rows, move hist, return the largest."""
        hi = 0
        ax, ay = adj[x], adj[y]
        while mask:
            low = mask & -mask
            aw = adj[low.bit_length() - 1]
            for new in ((ax & aw).bit_count(), (ay & aw).bit_count()):
                hist[new - d] -= 1
                hist[new] += 1
                if new > hi:
                    hi = new
            mask ^= low
        return hi

    # per-b best t with the rows of its first-seen state; encoded at the end
    best_by_b: dict[int, tuple[int, tuple[int, ...]]] = {}

    def record_state(t, b):
        prev = best_by_b.get(b)
        if prev is None or t < prev[0]:
            best_by_b[b] = (t, tuple(adj))

    cap = params.book_cap
    top = cap - 1  # a book at top reaches the cap with one more triangle

    def any_at_top(x, mask) -> bool:
        """Whether some edge (x, w), w in mask, has book top."""
        ax = adj[x]
        while mask:
            low = mask & -mask
            if (ax & adj[low.bit_length() - 1]).bit_count() == top:
                return True
            mask ^= low
        return False

    record_state(cur_t, cur_b)
    temp = params.t0
    decay = params.decay
    exp = math.exp
    # the swap keeps both pool sizes, so every pair draws from the same
    # bounds; rng itself is not used again
    draws = _Draws(rng, len(present), len(absent))
    uniform, lo_r, hi_r, lo_a, hi_a = (
        draws.uniform, draws.lo_r, draws.hi_r, draws.lo_a, draws.hi_a
    )
    j, h, end = draws.j, draws.h, len(uniform)

    # with all or no slots occupied the space is a single graph: nothing to swap
    steps = params.budget if present and absent else 0
    for _ in range(steps):
        if j == end:
            h, j = draws.fill(h), 1
        if h < 0:  # aligned: word j's low half, then its high half
            ri, ai, nh = lo_r[j], hi_a[j], -1
        else:  # shifted: the buffered half, then word j's low half
            ri, ai, nh = hi_r[h], lo_a[j], j
        if ri < 0 or ai < 0:  # a rejected half or a bound of 1
            ri, ai, j, h = draws.pair(j, h)
        else:
            j, h = j + 1, nh
        (ru, rv), (au, av) = present[ri], absent[ai]

        # common neighbourhood of a once r is gone: r shares at most one
        # endpoint with a, and then only r's other endpoint leaves it
        rem = (1 << ru) | (1 << rv)
        common = adj[au] & adj[av]
        if rem & ((1 << au) | (1 << av)):
            common &= ~rem
        c = common.bit_count()

        # before the move every book is below the cap; after it only a's own
        # book and the books of (x, w), x in a, w in common, can grow, by one,
        # unless (x, w) also lost the triangle it shared with r
        feasible = c < cap
        lost = adj[ru] & adj[rv] if feasible else 0  # r's book is its popcount
        if feasible and cur_b == top and common:
            for x in (au, av):
                gain = common
                if (rem >> x) & 1:
                    gain &= ~lost
                elif (lost >> x) & 1:
                    gain &= ~rem
                if any_at_top(x, gain):
                    feasible = False
                    break

        accept = False
        if feasible:
            delta = c - lost.bit_count()
            if delta <= 0:
                accept = True
            else:
                # a whole word, buffer untouched; temp may underflow to
                # 0.0, and the draw keeps the stream fixed
                if j == end:
                    h, j = draws.fill(h), 1
                accept = uniform[j] < (exp(-delta / temp) if temp else 0.0)
                j += 1
        if accept:
            # each pool's last pair fills the hole, and the new pair goes last
            present[ri], present[-1] = present[-1], (au, av)
            absent[ai], absent[-1] = absent[-1], (ru, rv)
            hist[c - delta] -= 1
            adj[ru] ^= 1 << rv
            adj[rv] ^= 1 << ru
            shift(ru, rv, lost, -1)
            adj[au] |= 1 << av
            adj[av] |= 1 << au
            hi = max(c, shift(au, av, common, 1))
            hist[c] += 1
            cur_t += delta
            if hi > cur_b:
                cur_b = hi
            while not hist[cur_b]:
                cur_b -= 1
            record_state(cur_t, cur_b)
        temp *= decay

    frontier = pareto_min((b, t) for b, (t, _) in best_by_b.items())
    witnesses = []
    for b, _ in frontier:
        g.adj = list(best_by_b[b][1])
        witnesses.append(to_graph6(g))
    return FrontierRecord(
        n=n,
        e=e,
        mode="heuristic",
        min_t=min(t for _, t in frontier),
        min_b=min(b for b, _ in frontier),
        pareto=frontier,
        witnesses=witnesses,
        scanned=steps + 1,
        rng=RNG_ALGORITHM,
        seed=params.seed,
        params={
            "book_cap": params.book_cap,
            "budget": params.budget,
            "t0": params.t0,
            "decay": params.decay,
        },
    )


# -- alpha sweep --------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    """Best known triangle count under the book cap for one alpha.

    best_t is an empirical upper bound on the capped minimum (the exact
    optimum is unknown in general); source names the generator or run that
    achieved it, or "none" when nothing feasible was found.
    """

    alpha: Fraction
    b_cap: int
    best_t: int | None
    source: str
    graph6: str | None

    def to_json_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "b_cap": self.b_cap,
            "t": self.best_t,
            "source": self.source,
            "graph6": self.graph6,
        }


def alpha_sweep(
    n: int,
    alphas: Sequence,
    *,
    seed: int,
    budget: int = 20000,
) -> list[SweepEntry]:
    """Best known t at floor(n^2/4)+1 edges under each book cap alpha*n/2.

    For every alpha each row of ``constructions.FAMILIES`` is tried.  A
    family refuses the alphas and n outside its own domain, and the sweep
    keeps every report whose book fits the cap; an alpha with none is
    reported with source "none".  At most one family fits (the tripartite
    needs alpha < 1/2, the rewired vertex alpha > 1/2 and even n, the
    bipartite-plus-edge graph odd n and alpha > (n-1)/n), so the table's
    order never picks a source.  An annealing run seeded by the best
    in-class report then tries to improve on them.  The tripartite family
    carries floor(n^2/4) edges, one below the threshold class, so where it
    is the only candidate annealing is skipped.  Entries are empirical upper
    bounds only, never proofs of optimality.
    """
    Graph(n)  # refuses n outside 1..MAX_VERTICES before any family is tried
    AnnealParams(book_cap=1, budget=budget, seed=seed)  # and a bad budget or seed
    target_e = n * n // 4 + 1
    entries = []
    for i, raw in enumerate(alphas):
        alpha = as_alpha(raw)
        if not Fraction(1, 3) < alpha < 1:
            raise ParameterError(f"alpha must be in (1/3, 1), got {alpha}")
        cap = strict_book_cap(n, alpha)
        candidates: list[tuple[str, ConstructionReport]] = []
        for build, takes_alpha in FAMILIES.values():
            try:
                report = build(n, alpha) if takes_alpha else build(n)
            except ParameterError:
                continue
            if report.predicted_b < cap:
                candidates.append((build.__name__, report))
        if not candidates:
            entries.append(SweepEntry(alpha, cap, None, "none", None))
            continue

        source, best = min(candidates, key=lambda c: c[1].predicted_t)
        best_t = best.predicted_t
        best_g6 = to_graph6(best.graph)

        seeds = [r for _, r in candidates if r.e == target_e]
        if seeds:
            run = anneal_min_triangles(
                n,
                target_e,
                AnnealParams(
                    book_cap=cap,
                    budget=budget,
                    seed=(seed + i) % 2**64,
                    init=min(seeds, key=lambda r: r.predicted_t).graph,
                ),
            )
            if run.min_t < best_t:
                best_t = run.min_t
                source = "anneal"
                # t strictly falls along a frontier sorted by b: the last
                # point is the one with min_t
                best_g6 = run.witnesses[-1]
        entries.append(SweepEntry(alpha, cap, best_t, source, best_g6))
    return entries


def sweep_to_csv(entries: Sequence[SweepEntry]) -> str:
    lines = ["alpha,b_cap,t,source"]
    for s in entries:
        t = "" if s.best_t is None else str(s.best_t)
        lines.append(f"{s.alpha},{s.b_cap},{t},{s.source}")
    return "\n".join(lines) + "\n"
