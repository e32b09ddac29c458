"""The numpy engine's store and popcount on their own.

``_Store`` is the only open/closed/parent store of ``astar_batch``.  The
tests below drive its three operations (settle, update and the trace)
at both key widths against a plain dict reference.  Keys are packed
``uint64`` values when ``3n <= 64`` and 24-byte ``np.void`` rows
otherwise; the batches mix new states, stored states and stored states
with one bit of one word flipped, so keys that differ in a single word
meet in every lookup.

``_popcount_swar`` is the popcount the engine binds when numpy predates
``np.bitwise_count``; CI's numpy 2.x never runs it through the engine,
so it is checked against ``int.bit_count`` here.
"""

import random

import numpy as np
import pytest

from repro import PebblingInstance
from repro.generators import chain_dag
from repro.solvers.batch_kernel import _BatchContext, _popcount_swar, _Store
from repro.solvers.kernel import Expander

#: node counts at each key width: the widest packed key and the widest DAG
WIDTHS = {"packed": 21, "wide": 64}


def _context(n):
    inst = PebblingInstance(dag=chain_dag(n), model="base", red_limit=2)
    return _BatchContext(Expander(inst))


def _keys(ctx, triples):
    red, blue, computed = (
        np.array(col, dtype=np.uint64) for col in zip(*triples)
    )
    return ctx.keys_of(red, blue, computed)


def _assert_sorted_and_unique(keys):
    """Checked before any trace: on a corrupt order a trace need not end."""
    assert (keys[1:] != keys[:-1]).all()
    assert np.array_equal(np.sort(keys, kind="stable"), keys)


class _RandomRounds:
    """Random settle/update rounds on a store and on a dict reference.

    The reference maps each stored ``(red, blue, computed)`` triple to
    ``[g, settled, parent, code]``.  Parents are drawn from settled
    states only, as in the search, so every parent chain ends at the
    start state.
    """

    def __init__(self, n, with_parents, seed):
        self.ctx = _context(n)
        self.n = n
        self.rng = random.Random(seed)
        self.with_parents = with_parents
        start = (0, 0, 0)
        self.store = _Store(_keys(self.ctx, [start]), with_parents)
        self.ref = {start: [0, False, None, -1]}
        assert self.settle([(start, 0)]) == [True]

    def word(self):
        return self.rng.getrandbits(self.n)

    def neighbour(self, triple):
        """``triple`` with one bit of one of its words flipped."""
        words = list(triple)
        words[self.rng.randrange(3)] ^= 1 << self.rng.randrange(self.n)
        return tuple(words)

    def successors(self, count):
        stored = list(self.ref)
        out = set()
        while len(out) < count:
            pick = self.rng.random()
            if pick < 0.3:
                out.add(self.rng.choice(stored))
            elif pick < 0.7:
                out.add(self.neighbour(self.rng.choice(stored)))
            else:
                out.add((self.word(), self.word(), self.word()))
        return list(out)

    def sorted_batch(self, triples):
        """The batch in the store's key order, as ``update`` requires."""
        karr = _keys(self.ctx, triples)
        order = np.argsort(karr, kind="stable")
        return [triples[i] for i in order], karr[order]

    def update(self, count):
        settled = [t for t, entry in self.ref.items() if entry[1]]
        triples, karr = self.sorted_batch(self.successors(count))
        ng = [self.rng.randrange(1, 40) for _ in triples]
        parents = [self.rng.choice(settled) for _ in triples]
        codes = [self.rng.randrange(4 * 64 * 65) for _ in triples]
        g_arr = np.array(ng, dtype=np.int64)
        if self.with_parents:
            keep = self.store.update(
                karr, g_arr, _keys(self.ctx, parents),
                np.array(codes, dtype=np.int64),
            )
        else:
            keep = self.store.update(karr, g_arr)
        expected = []
        for t, g, parent, code in zip(triples, ng, parents, codes):
            entry = self.ref.get(t)
            better = entry is None or (not entry[1] and g < entry[0])
            if better:
                self.ref[t] = [g, False, parent, code]
            expected.append(better)
        assert keep.tolist() == expected

    def settle(self, rows):
        """Settle ``(triple, g)`` rows; returns the store's keep-mask."""
        karr = _keys(self.ctx, [t for t, _ in rows])
        fresh = self.store.settle(karr, np.array([g for _, g in rows], dtype=np.int64))
        expected = []
        for t, g in rows:
            entry = self.ref.get(t)
            ok = entry is not None and not entry[1] and entry[0] == g
            if ok:
                entry[1] = True
            expected.append(ok)
        assert fresh.tolist() == expected
        return fresh.tolist()

    def pop(self, count):
        """Settle stored open states, stale copies and unknown states."""
        open_ = [(t, e[0]) for t, e in self.ref.items() if not e[1]]
        rows = self.rng.sample(open_, min(count, len(open_)))
        done = [(t, e[0]) for t, e in self.ref.items() if e[1]]
        rows += [(t, g + 1) for t, g in open_[:3]]                  # stale g
        rows += [(t, g) for t, g in self.rng.sample(done, min(3, len(done)))]
        rows += [(self.neighbour(t), g) for t, g in rows[:3]]      # maybe unknown
        unique = {}
        for t, g in rows:
            unique.setdefault(t, g)
        self.settle(list(unique.items()))

    def reference_trace(self, triple):
        codes = []
        while self.ref[triple][3] >= 0:
            codes.append(self.ref[triple][3])
            triple = self.ref[triple][2]
        codes.reverse()
        return codes

    def check_columns(self):
        keys, g = self.store.cols[:2]
        assert len(keys) == len(self.ref)
        _assert_sorted_and_unique(keys)
        triples = list(self.ref)
        pos = np.searchsorted(keys, _keys(self.ctx, triples))
        for t, p in zip(triples, pos.tolist()):
            value, settled = self.ref[t][:2]
            assert g[p] == (-value - 1 if settled else value)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("with_parents", [True, False], ids=["parents", "no-parents"])
def test_store_matches_dict_reference(width, with_parents):
    rounds = _RandomRounds(WIDTHS[width], with_parents, seed=7)
    for _ in range(30):
        rounds.update(count=40)
        rounds.pop(count=15)
    rounds.check_columns()
    if with_parents:
        assert len(rounds.store.cols) == 4
        for t in rounds.ref:
            key = _keys(rounds.ctx, [t])
            assert rounds.store.trace(key) == rounds.reference_trace(t)
    else:
        assert len(rounds.store.cols) == 2


@pytest.mark.parametrize("width", WIDTHS)
def test_keys_differing_in_one_word_stay_apart(width):
    """The top bit of each word, alone, tells two keys apart."""
    n = WIDTHS[width]
    ctx = _context(n)
    top = 1 << (n - 1)
    triples = [(0, 0, 0), (top, 0, 0), (0, top, 0), (0, 0, top), (top, top, top)]
    store = _Store(_keys(ctx, triples[:1]), True)
    store.settle(_keys(ctx, triples[:1]), np.zeros(1, dtype=np.int64))
    karr = _keys(ctx, triples[1:])
    order = np.argsort(karr, kind="stable")
    karr = karr[order]
    codes = np.arange(1, 5, dtype=np.int64)[order]
    keep = store.update(
        karr, np.full(4, 3, dtype=np.int64), np.repeat(store.cols[0][:1], 4), codes
    )
    assert keep.all()
    assert len(store.cols[0]) == 5
    _assert_sorted_and_unique(store.cols[0])
    for i, t in enumerate(triples[1:], start=1):
        assert store.trace(_keys(ctx, [t])) == [i]


def test_swar_popcount_matches_int_bit_count():
    rng = np.random.default_rng(2024)
    words = np.concatenate([
        np.array([0, 1, 1 << 63, (1 << 64) - 1], dtype=np.uint64),
        rng.integers(0, 1 << 64, size=5000, dtype=np.uint64, endpoint=False),
    ])
    counts = _popcount_swar(words)
    assert counts.tolist() == [int(w).bit_count() for w in words.tolist()]
