"""Single set-associative cache with write-back, write-allocate semantics.

A block address splits as block = addr // bsize, set = block % nsets,
tag = block // nsets.  Each set is one list of the block numbers it holds,
at most assoc of them, made when a trace first touches the set, so a cache
of any geometry holds memory only for the sets it touches.  A miss appends
while the set has room; once it is full the victim comes from the
replacement policy.  LRU and FIFO keep the list oldest first, so the victim
is its head: a fill appends, and only an LRU hit moves its block to the
end.  RANDOM keeps list index = way and replaces a way drawn from a seeded
xorshift64* generator owned by the cache, so runs are reproducible.  Dirty
lines are one set of block numbers per cache.

Six event counters are maintained: accesses, hits, misses, replacements,
writebacks, invalidations.  accesses == hits + misses always holds.

After a replacement ``victim`` holds the evicted block number: the
hierarchy writes a dirty victim back to it, and ``outcome`` derives the
victim's tag from it.
"""

from collections import defaultdict, namedtuple

from .config import CacheSpec, ReplacementPolicy

# Outcome codes of the fast access path.
HIT = 0
MISS_FILL = 1          # filled a set with room
MISS_REPLACE = 2       # evicted a clean line
MISS_REPLACE_DIRTY = 3  # evicted a dirty line (one writeback)

_MASK64 = (1 << 64) - 1


class CacheStats(namedtuple("CacheStats",
                            "accesses hits misses replacements writebacks invalidations",
                            defaults=(0,) * 6)):
    """Snapshot of the six event counters plus the derived rates."""

    __slots__ = ()

    def _rate(self, n):
        return n / self.accesses if self.accesses > 0 else 0.0

    @property
    def miss_rate(self):
        return self._rate(self.misses)

    @property
    def repl_rate(self):
        return self._rate(self.replacements)

    @property
    def wb_rate(self):
        return self._rate(self.writebacks)

    @property
    def inv_rate(self):
        return self._rate(self.invalidations)


class AccessOutcome(namedtuple("AccessOutcome", "hit evicted_tag evicted_dirty",
                               defaults=(None, False))):
    """Result of one access: a hit, or a miss with the optional victim."""

    __slots__ = ()


class Cache:
    """Mutable cache state; single-owner, not safe for concurrent mutation.

    ``_sets`` is a ``defaultdict(list)``: ``_sets[si]`` lists the block
    numbers set si holds, and an untouched set has no entry.  ``_dirty`` is
    the set of resident dirty block numbers.  ``_sets`` and ``_dirty`` only
    ever change in place (``flush`` empties them), so the hierarchy binds
    them once per walk and settles a hit at an entry cache as
    ``_access`` would: the block is in its set, a store adds it to
    ``_dirty``, and under LRU it moves to the end of its set's list.
    """

    __slots__ = (
        "name", "nsets", "bsize", "assoc",
        "_bshift", "_smask", "_tshift",
        "_sets", "_dirty", "_lru", "_rand", "_rng",
        "hits", "misses", "replacements", "writebacks", "invalidations",
        "victim",
    )

    def __init__(self, spec: CacheSpec, seed: int = 1):
        spec.validate()
        self.name, self.nsets, self.bsize, self.assoc, repl = spec
        # power-of-two geometry makes the block/set/tag split shift/mask work
        self._bshift = spec.bsize.bit_length() - 1
        self._smask = spec.nsets - 1
        self._tshift = spec.nsets.bit_length() - 1
        self._sets = defaultdict(list)
        self._dirty = set()
        self._lru = repl is ReplacementPolicy.LRU
        self._rand = repl is ReplacementPolicy.RANDOM
        self._rng = (seed & _MASK64) or 0x9E3779B97F4A7C15
        self.hits = 0
        self.misses = 0
        self.replacements = 0
        self.writebacks = 0
        self.invalidations = 0
        self.victim = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            self.hits + self.misses, self.hits, self.misses,
            self.replacements, self.writebacks, self.invalidations,
        )

    def _access(self, block, write):
        """Fast path over a block number: returns an outcome code; victim is
        valid after MISS_REPLACE / MISS_REPLACE_DIRTY."""
        blocks = self._sets[block & self._smask]
        if write:
            self._dirty.add(block)
        if block in blocks:
            self.hits += 1
            if self._lru and blocks[-1] != block:
                blocks.remove(block)
                blocks.append(block)
            return HIT
        self.misses += 1
        if len(blocks) < self.assoc:
            blocks.append(block)
            return MISS_FILL
        self.replacements += 1
        if self._rand:
            way = self._draw() % self.assoc
            self.victim = victim = blocks[way]
            blocks[way] = block
        else:
            self.victim = victim = blocks.pop(0)
            blocks.append(block)
        if victim in self._dirty:
            self._dirty.remove(victim)
            self.writebacks += 1
            return MISS_REPLACE_DIRTY
        return MISS_REPLACE

    def _draw(self):
        x = self._rng
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._rng = x
        return ((x * 0x2545F4914F6CDD1D) & _MASK64) >> 32

    def access(self, addr, write=False) -> AccessOutcome:
        return self.outcome(self._access(addr >> self._bshift, write))

    def outcome(self, code) -> AccessOutcome:
        """The AccessOutcome of the fast-path code just returned."""
        if code == HIT:
            return AccessOutcome(True)
        if code == MISS_FILL:
            return AccessOutcome(False)
        return AccessOutcome(False, self.victim >> self._tshift, code == MISS_REPLACE_DIRTY)

    def flush(self):
        """Write back every dirty line, invalidate every valid line; the
        writebacks and invalidations counters grow by the lines affected.
        Only the sets touched since the last flush are visited."""
        self.invalidations += sum(map(len, self._sets.values()))
        self.writebacks += len(self._dirty)
        self._sets.clear()
        self._dirty.clear()
