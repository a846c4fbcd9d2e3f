"""Single set-associative cache with write-back, write-allocate semantics.

A block address splits as block = addr // bsize, set = block % nsets,
tag = block // nsets.  Misses fill invalid ways first (lowest way index);
once a set is full the victim comes from the replacement policy.  LRU and
FIFO share one stamp array: both stamp a line at fill time, only LRU
refreshes the stamp on a hit.  RANDOM draws from a seeded xorshift64*
generator owned by the cache, so runs are reproducible.

Six event counters are maintained: accesses, hits, misses, replacements,
writebacks, invalidations.  accesses == hits + misses always holds.
"""

from dataclasses import dataclass

from .config import CacheSpec, ReplacementPolicy

# Outcome codes of the fast access path.
HIT = 0
MISS_FILL = 1          # filled an invalid way
MISS_REPLACE = 2       # evicted a clean line
MISS_REPLACE_DIRTY = 3  # evicted a dirty line (one writeback)

_MASK64 = (1 << 64) - 1
_INVALID = -1


@dataclass
class CacheStats:
    """Snapshot of the six event counters plus the derived rates."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    replacements: int = 0
    writebacks: int = 0
    invalidations: int = 0

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


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one access: a hit, or a miss with the optional victim."""

    hit: bool
    evicted_tag: int | None = None
    evicted_dirty: bool = False


@dataclass(frozen=True)
class FlushResult:
    writebacks_done: int
    lines_invalidated: int


def decompose(addr, spec):
    """Split a byte address into (set index, tag) for the given geometry."""
    block = addr // spec.bsize
    return block % spec.nsets, block // spec.nsets


class Cache:
    """Mutable cache state; single-owner, not safe for concurrent mutation."""

    __slots__ = (
        "spec", "name", "nsets", "bsize", "assoc",
        "_bshift", "_smask", "_tshift",
        "_tags", "_dirty", "_order", "_stamp",
        "_lru", "_rand", "seed", "_rng",
        "hits", "misses", "replacements", "writebacks", "invalidations",
        "victim_tag", "victim_addr",
    )

    def __init__(self, spec: CacheSpec, seed: int = 1):
        spec.validate()
        self.spec = spec
        self.name = spec.name
        self.nsets = spec.nsets
        self.bsize = spec.bsize
        self.assoc = spec.assoc
        # power-of-two geometry makes the block/set/tag split shift/mask work
        self._bshift = spec.bsize.bit_length() - 1
        self._smask = spec.nsets - 1
        self._tshift = spec.nsets.bit_length() - 1
        self._tags = [[_INVALID] * spec.assoc for _ in range(spec.nsets)]
        self._dirty = [[False] * spec.assoc for _ in range(spec.nsets)]
        self._order = [[0] * spec.assoc for _ in range(spec.nsets)]
        self._stamp = 0
        self._lru = spec.repl is ReplacementPolicy.LRU
        self._rand = spec.repl is ReplacementPolicy.RANDOM
        self.seed = seed
        self._rng = (seed & _MASK64) or 0x9E3779B97F4A7C15
        self.hits = 0
        self.misses = 0
        self.replacements = 0
        self.writebacks = 0
        self.invalidations = 0
        self.victim_tag = _INVALID
        self.victim_addr = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            self.hits + self.misses, self.hits, self.misses,
            self.replacements, self.writebacks, self.invalidations,
        )

    def _access(self, addr, write):
        """Fast path: returns an outcome code; victim_tag/victim_addr are
        valid after MISS_REPLACE / MISS_REPLACE_DIRTY."""
        block = addr >> self._bshift
        si = block & self._smask
        tag = block >> self._tshift
        tags = self._tags[si]
        if tag in tags:
            self.hits += 1
            way = tags.index(tag)
            if write:
                self._dirty[si][way] = True
            if self._lru:
                self._stamp += 1
                self._order[si][way] = self._stamp
            return HIT
        self.misses += 1
        if _INVALID in tags:
            way = tags.index(_INVALID)
            code = MISS_FILL
        else:
            if self._rand:
                way = self._draw() % self.assoc
            else:
                order = self._order[si]
                way = order.index(min(order))
            self.replacements += 1
            victim = tags[way]
            self.victim_tag = victim
            self.victim_addr = ((victim << self._tshift) | si) << self._bshift
            if self._dirty[si][way]:
                self.writebacks += 1
                code = MISS_REPLACE_DIRTY
            else:
                code = MISS_REPLACE
        tags[way] = tag
        self._dirty[si][way] = write
        self._stamp += 1
        self._order[si][way] = self._stamp
        return code

    def _draw(self):
        x = self._rng
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._rng = x
        return ((x * 0x2545F4914F6CDD1D) & _MASK64) >> 32

    def access(self, addr, write=False) -> AccessOutcome:
        return self.outcome(self._access(addr, write))

    def outcome(self, code) -> AccessOutcome:
        """The AccessOutcome of the fast-path code just returned."""
        if code == HIT:
            return AccessOutcome(True)
        if code == MISS_FILL:
            return AccessOutcome(False)
        return AccessOutcome(False, self.victim_tag, code == MISS_REPLACE_DIRTY)

    def flush(self) -> FlushResult:
        """Write back every dirty line, invalidate every valid line."""
        wb = 0
        inv = 0
        for si in range(self.nsets):
            tags = self._tags[si]
            dirty = self._dirty[si]
            for way in range(self.assoc):
                if tags[way] != _INVALID:
                    inv += 1
                    if dirty[way]:
                        wb += 1
                    tags[way] = _INVALID
                    dirty[way] = False
        self.writebacks += wb
        self.invalidations += inv
        return FlushResult(wb, inv)
