"""Independent reference models used as oracles by the test suite.

These are deliberately written with different data structures than the
package (dict-of-tags sets, explicit recency lists, per-way victim search,
exhaustive search) so agreement is meaningful.
"""

from cachesim import Cache, CacheSpec, ReplacementPolicy


class RefCache:
    """Dict-based set-associative model for LRU and FIFO.

    Each set is a dict tag -> dirty plus an age list ordered oldest first.
    LRU moves a tag to the back on every touch; FIFO never reorders.
    """

    def __init__(self, nsets, bsize, assoc, policy="l"):
        assert policy in ("l", "f")
        self.nsets = nsets
        self.bsize = bsize
        self.assoc = assoc
        self.policy = policy
        self.sets = [{} for _ in range(nsets)]
        self.age = [[] for _ in range(nsets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.replacements = 0

    def access(self, addr, write=False):
        block = addr // self.bsize
        si = block % self.nsets
        tag = block // self.nsets
        lines = self.sets[si]
        age = self.age[si]
        if tag in lines:
            self.hits += 1
            if write:
                lines[tag] = True
            if self.policy == "l":
                age.remove(tag)
                age.append(tag)
            return ("hit", None, False)
        self.misses += 1
        evicted = None
        evicted_dirty = False
        if len(lines) >= self.assoc:
            evicted = age.pop(0)
            evicted_dirty = lines.pop(evicted)
            self.replacements += 1
            if evicted_dirty:
                self.writebacks += 1
        lines[tag] = write
        age.append(tag)
        return ("miss", evicted, evicted_dirty)


def data_blocks(records, bsize):
    """Block numbers touched by the data references of a trace."""
    out = []
    for r in records:
        if r.kind in ("L", "S"):
            first = r.addr // bsize
            last = (r.addr + r.size - 1) // bsize
            out.extend(range(first, last + 1))
    return out


def direct_misses(records, nsets, bsize, assoc, policy="l", seed=1):
    """Miss count from driving one Cache directly over the data references.

    This is the array-based simulation route, independent of the stack
    distance algorithm.
    """
    spec = CacheSpec("c", nsets, bsize, assoc, ReplacementPolicy.from_char(policy))
    c = Cache(spec, seed)
    for r in records:
        if r.kind in ("L", "S"):
            first = r.addr // bsize
            last = (r.addr + r.size - 1) // bsize
            for b in range(first, last + 1):
                c._access(b * bsize, r.kind == "S")
    return c.misses


def belady_victim_misses(stream, nsets, assoc):
    """Miss count under offline optimal replacement, by victim search.

    Two passes over a list of block numbers: the first indexes each
    reference's next use, the second simulates a demand-fetch cache that
    evicts the resident block whose next use lies farthest in the future
    (never-reused blocks first; ties break toward the lowest way index).
    """
    n = len(stream)
    never = n  # sorts after every real position
    next_use = [never] * n
    last_seen = {}
    for i in range(n - 1, -1, -1):
        b = stream[i]
        next_use[i] = last_seen.get(b, never)
        last_seen[b] = i

    way_block = {}  # set index -> list of resident blocks per way
    way_next = {}  # set index -> next-use position per way
    resident = {}  # set index -> {block: way}
    misses = 0
    for i in range(n):
        b = stream[i]
        si = b % nsets
        si_res = resident.get(si)
        if si_res is None:
            si_res = resident[si] = {}
            way_block[si] = []
            way_next[si] = []
        way = si_res.get(b)
        if way is not None:
            way_next[si][way] = next_use[i]
            continue
        misses += 1
        blocks = way_block[si]
        nexts = way_next[si]
        if len(blocks) < assoc:
            si_res[b] = len(blocks)
            blocks.append(b)
            nexts.append(next_use[i])
        else:
            victim = 0
            best = nexts[0]
            for w in range(1, assoc):
                if nexts[w] > best:
                    best = nexts[w]
                    victim = w
            del si_res[blocks[victim]]
            si_res[b] = victim
            blocks[victim] = b
            nexts[victim] = next_use[i]
    return misses


def brute_min_misses(blocks, nsets, assoc):
    """Exhaustive minimum miss count over every eviction-decision sequence.

    Feasible only for tiny instances; memoized per set on
    (position, resident frozenset).
    """
    total = 0
    for si in range(nsets):
        stream = [b for b in blocks if b % nsets == si]
        total += _brute_one_set(tuple(stream), assoc)
    return total


def _brute_one_set(stream, capacity):
    memo = {}

    def rec(i, resident):
        if i == len(stream):
            return 0
        key = (i, resident)
        cached = memo.get(key)
        if cached is not None:
            return cached
        b = stream[i]
        if b in resident:
            result = rec(i + 1, resident)
        elif len(resident) < capacity:
            result = 1 + rec(i + 1, resident | {b})
        else:
            result = 1 + min(rec(i + 1, (resident - {v}) | {b}) for v in resident)
        memo[key] = result
        return result

    return rec(0, frozenset())
