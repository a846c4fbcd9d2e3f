"""Route trace records through TLBs and the two-level cache hierarchy.

Routing rules:

* Inst records look up the instruction TLB (page = addr // page size via
  the TLB's own geometry), then the il1 chain; an il1 miss is refilled
  from il2 when one exists.
* Load/Store records look up the data TLB, then dl1/dl2.  An access that
  spans block boundaries issues one access per distinct block touched.
* A dirty eviction forwards a write of the evicted block to the next
  level; the refill read is issued first, then the writeback write.
* Syscall records flush every cache when flush-on-syscall is enabled.
  Flush writebacks are local: they do not generate next-level traffic.
* Region markers attribute by snapshot.  At each R record that names
  another region, and once when the report is built, the change in the
  monotonic global counters since the previous snapshot is credited to
  the named region that was active, so the walk itself knows nothing of
  regions.  TOTAL is the global counters; records after ``R TOTAL``
  belong to no named region.

Bindings resolve in one pass over the levels, data levels first, so a
unified level aliases the Cache object of the data level it names; that
object is reported once under its own name.  Fetches follow il1: with
il1 unified they enter the data chain at its target, with il1 none they
touch no cache, even when il2 is unified with dl2.

Per-level "routed" counters record exactly how many accesses were
forwarded into each lower cache (refills and writebacks separately), so
`l2.accesses == routed refills + routed writebacks` is checkable.

One routine makes every access, down a linked path of level descriptors;
a TLB is a one-level path with no memory boundary.  The walk settles a
single-block hit at its entry (each TLB and the first cache of each path)
in place, with no call, by the cache's own test on its ``_sets``: a store
adds the block to ``_dirty`` and, under LRU, a block that is not its set's
newest moves to the end, as in ``Cache._access``, so this is exact.  The
hits, counted in locals, are credited as hits, entry accesses and (at the
memory boundary) boundary accesses and hits before each region snapshot,
their only reader mid-walk, and when the walk returns or raises.  Rows
whose first and last bytes (``addr + size - 1``) lie in different blocks,
misses, L2 accesses and all of ``step()``, whose walk tests against sets
that hold nothing so that it logs every access, take the general path.
Either path touches the block of ``addr`` once for a size of 0 or less.

The caches at the memory boundary (the deepest cache on each side) also
feed the cycle model: their per-side access/hit/miss counts and, when
``events`` holds a sink, one ``(kind, at, size)`` tuple per bus
transaction (boundary miss or dirty eviction) passed to its ``append``,
``at`` being ``sim_num_insn`` as it stood when its record began.  The
sink is a list that ``run(collect_events=True)`` makes, or any object with
an ``append`` set before ``run``, such as ``timing.BusFold``, which folds
each transaction as it comes and so holds none.  Branches are counted,
taken and not taken, not logged.
"""

import time
import zlib
from collections import namedtuple

from .cache import HIT, MISS_REPLACE_DIRTY, Cache, CacheStats
from .config import HierarchySpec
from .trace import TOTAL_REGION

BranchCounts = namedtuple("BranchCounts", "executed taken not_taken", defaults=(0, 0, 0))


class RegionCounters(namedtuple("RegionCounters",
                                "insts ops refs branches i_misses d_misses caches")):
    """Counters attributed to one region of the trace; ``i_misses`` and
    ``d_misses`` are memory-boundary misses, ``caches`` name -> CacheStats."""

    __slots__ = ()

    def __new__(cls, insts=0, ops=0, refs=0, branches=BranchCounts(), i_misses=0, d_misses=0,
                caches=None):  # each gets its own dict
        return super().__new__(cls, insts, ops, refs, branches, i_misses, d_misses,
                               {} if caches is None else caches)


class SimReport(namedtuple("SimReport", "sim_num_insn sim_num_refs caches branches regions "
                                        "sim_elapsed_time sim_inst_rate")):
    """Aggregated counters of one simulation run; ``caches`` is name ->
    CacheStats, ``regions`` name -> RegionCounters."""

    __slots__ = ()

    def __new__(cls, sim_num_insn=0, sim_num_refs=0, caches=None, branches=BranchCounts(),
                regions=None, sim_elapsed_time=1, sim_inst_rate=0.0):  # each gets its own dicts
        return super().__new__(cls, sim_num_insn, sim_num_refs, {} if caches is None else caches,
                               branches, {} if regions is None else regions, sim_elapsed_time,
                               sim_inst_rate)


def _cache_seed(master, name):
    return (master * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFFFFFFFFFF


class Hierarchy:
    """Single-owner mutable simulation state; build one per run."""

    def __init__(self, spec: HierarchySpec, seed: int = 1):
        spec.validate()
        self.flush_on_syscall = spec.flush_on_syscall

        # One Cache per configured level; a unified level aliases the Cache
        # of its target, which the data levels coming first have built.
        level = {}
        for name in ("dl1", "dl2", "il1", "il2", "itlb", "dtlb"):
            b = getattr(spec, name)
            if isinstance(b, str):
                b = level[b]
            elif b is not None:
                b = Cache(b, _cache_seed(seed, b.name))
            level[name] = b
        dl1, dl2, il1, il2, self.itlb, self.dtlb = level.values()

        self.d_path = [c for c in (dl1, dl2) if c is not None]
        if il1 is None:
            self.i_path = []  # even when il2 is unified with dl2
        elif isinstance(spec.il1, str):
            # Fetches enter the data chain and follow it down.
            self.i_path = self.d_path[self.d_path.index(il1):]
        else:
            self.i_path = [c for c in (il1, il2) if c is not None]

        # Distinct caches once each, keyed and reported by their own name.
        # (Unified levels alias one object; spec validation keeps names unique.)
        self.caches = {c.name: c for c in (il1, dl1, il2, dl2, self.itlb, self.dtlb)
                       if c is not None}

        # Access ledger: demand accesses entering a cache from the trace
        # versus accesses forwarded into it from the level above, so
        # accesses == entry + routed refills + routed writebacks per cache.
        self.entry_accesses = {n: 0 for n in self.caches}
        self.routed = {}  # [refills, writebacks] of each cache a level forwards into, by levels()

        self.mem_counts = {"I": [0, 0, 0], "D": [0, 0, 0]}  # [accesses, hits, misses]

        # Linked level descriptors (cache, next descriptor, next's routed
        # counters, side's mem_counts row, miss event kind) keep the walk
        # free of list indexing and of the side; only the memory boundary
        # (next None) has the row and the kind; a TLB is a one-level path
        # with neither.
        def levels(path, row, miss_kind):
            desc = None
            for c in reversed(path):
                if desc is None:
                    desc = (c, None, None, row, miss_kind)
                else:
                    desc = (c, desc, self.routed.setdefault(desc[0].name, [0, 0]), None, None)
            return desc

        # The entry descriptors: i and d paths, then itlb and dtlb.
        self._entries = (levels(self.i_path, self.mem_counts["I"], "imiss"),
                         levels(self.d_path, self.mem_counts["D"], "dmiss"),
                         *(c and (c, None, None, None, None) for c in (self.itlb, self.dtlb)))

        self.sim_num_insn = 0
        self.sim_num_refs = 0
        self.ops_executed = 0
        self.taken_branches = 0
        self.not_taken_branches = 0
        self.events = None  # the sink of (kind, at, size) bus transactions, if any
        self._log = None  # step()'s outcome list while it runs, else None

        # Named regions only, name -> counters credited so far (flat, in
        # _snapshot order).  TOTAL is the global counters themselves.
        self._regions = {}
        self.current_region = TOTAL_REGION
        self._mark = self._snapshot()

    def boundary(self, side):
        """The memory-boundary cache of side "I" or "D", or None."""
        path = self.i_path if side == "I" else self.d_path
        return path[-1] if path else None

    def _snapshot(self):
        """The monotonic counters regions are credited from: insts, ops,
        refs, branches (executed, taken, not taken), boundary misses (I, D),
        then per cache hits, misses, replacements, writebacks, invalidations."""
        taken, not_taken = self.taken_branches, self.not_taken_branches
        snap = [self.sim_num_insn, self.ops_executed, self.sim_num_refs,
                taken + not_taken, taken, not_taken,
                self.mem_counts["I"][2], self.mem_counts["D"][2]]
        for c in self.caches.values():
            snap += (c.hits, c.misses, c.replacements, c.writebacks, c.invalidations)
        return snap

    def _credit(self):
        """Credit the counters' change since the last snapshot to the active
        named region; while in TOTAL it belongs to no named region."""
        snap = self._snapshot()
        acc = self._regions.get(self.current_region)
        if acc is not None:
            acc[:] = [a + s - m for a, s, m in zip(acc, snap, self._mark)]
        self._mark = snap

    def _access_level(self, level, addr, size, write, at):
        """Access every block of [addr, addr+size) at this level, forwarding
        refills and writebacks downward; boundary events are stamped ``at``.
        Returns the number of accesses issued at this level."""
        cache, nxt, nxt_routed, mc, miss_kind = level
        shift = cache._bshift
        first = addr >> shift
        last = (addr + size - 1) >> shift
        events = self.events
        log = self._log
        block = first
        while True:
            code = cache._access(block, write)
            if log is not None:
                log.append((cache.name, cache.outcome(code)))
            if mc is not None:  # memory boundary
                mc[0] += 1
                if code == HIT:
                    mc[1] += 1
                else:
                    mc[2] += 1
                    if events is not None:
                        events.append((miss_kind, at, cache.bsize))
                        if code == MISS_REPLACE_DIRTY:
                            events.append(("writeback", at, cache.bsize))
            elif code != HIT and nxt is not None:
                bsize = cache.bsize
                victim = cache.victim  # before the refill recursion
                nxt_routed[0] += self._access_level(
                    nxt, block << shift, bsize, False, at)
                if code == MISS_REPLACE_DIRTY:
                    nxt_routed[1] += self._access_level(
                        nxt, victim << shift, bsize, True, at)
            if block >= last:
                return block - first + 1
            block += 1

    def _walk(self, records):
        """The one loop behind run and step: fold trace rows into counters
        held in locals until each region snapshot and the loop's end, settling
        a single-block hit at an entry cache in place with the cache's own
        set test.  While step() logs, the entry tests see sets that hold
        nothing, so every access takes the general path."""
        entries = i_entry, d_entry, it_entry, dt_entry = self._entries
        ic, dc, itlb, dtlb = (e and e[0] for e in entries)
        ic_shift, dc_shift, it_shift, dt_shift = (c and c._bshift for c in (ic, dc, itlb, dtlb))
        # Per entry cache: its sets, set mask, and whether a hit reorders
        # its set (LRU with more than one way).
        (ic_sets, ic_smask, ic_lru), (dc_sets, dc_smask, dc_lru), \
            (it_sets, it_smask, it_lru), (dt_sets, dt_smask, dt_lru) = (
                (c._sets, c._smask, c._lru and c.assoc > 1)
                if c is not None and self._log is None else (([],), 0, False)
                for c in (ic, dc, itlb, dtlb))
        entry_accesses = self.entry_accesses
        access_level = self._access_level
        rows = iter(records)
        while True:  # the walk resumes here after each region marker
            insn, ops, refs = self.sim_num_insn, self.ops_executed, self.sim_num_refs
            taken, not_taken = self.taken_branches, self.not_taken_branches
            i_hits = d_hits = it_hits = dt_hits = 0
            region = self.current_region
            try:
                for code, addr, arg in rows:
                    if code == 0:  # I: arg is the op count
                        insn += 1
                        ops += arg
                        if itlb is not None:
                            if (block := addr >> it_shift) in (held := it_sets[block & it_smask]):
                                it_hits += 1
                                if it_lru and held[-1] != block:
                                    held.remove(block)
                                    held.append(block)
                            else:
                                entry_accesses[itlb.name] += access_level(
                                    it_entry, addr, 1, False, insn - 1)
                        if ic is not None:
                            if (block := addr >> ic_shift) in (held := ic_sets[block & ic_smask]):
                                i_hits += 1
                                if ic_lru and held[-1] != block:
                                    held.remove(block)
                                    held.append(block)
                            else:
                                entry_accesses[ic.name] += access_level(
                                    i_entry, addr, 1, False, insn - 1)
                    elif code == 1 or code == 2:  # L, S: arg is the size
                        refs += 1
                        if dtlb is not None:
                            if (block := addr >> dt_shift) in (held := dt_sets[block & dt_smask]):
                                dt_hits += 1
                                if dt_lru and held[-1] != block:
                                    held.remove(block)
                                    held.append(block)
                            else:
                                entry_accesses[dtlb.name] += access_level(
                                    dt_entry, addr, 1, False, insn)
                        if dc is not None:
                            if ((block := addr >> dc_shift) in (held := dc_sets[block & dc_smask])
                                    and (addr + arg - 1) >> dc_shift == block):
                                d_hits += 1
                                if code == 2:
                                    dc._dirty.add(block)
                                if dc_lru and held[-1] != block:
                                    held.remove(block)
                                    held.append(block)
                            else:
                                entry_accesses[dc.name] += access_level(
                                    d_entry, addr, arg, code == 2, insn)
                    elif code == 3:  # B: arg is the taken flag
                        if arg:
                            taken += 1
                        else:
                            not_taken += 1
                    elif code == 4:  # Y
                        if self.flush_on_syscall:
                            for c in self.caches.values():
                                c.flush()
                    elif code == 5:  # R: arg is the region name
                        if arg != region:  # naming the active region changes nothing
                            break
                    else:
                        raise ValueError(f"unknown trace record kind code {code!r}")
                else:
                    return
            finally:
                self.sim_num_insn, self.ops_executed, self.sim_num_refs = insn, ops, refs
                self.taken_branches, self.not_taken_branches = taken, not_taken
                for entry, n in zip(entries, (i_hits, d_hits, it_hits, dt_hits)):
                    if n:
                        c, _, _, mc, _ = entry
                        c.hits += n
                        entry_accesses[c.name] += n
                        if mc is not None:  # memory boundary
                            mc[0] += n
                            mc[1] += n
            self._credit()
            self.current_region = arg
            if arg != TOTAL_REGION:
                self._regions.setdefault(arg, [0] * len(self._mark))

    def step(self, rec):
        """Process one record, returning [(cache name, AccessOutcome), ...]
        for every cache access it caused, in order.  While it runs the walk
        settles nothing in place, so every access takes the general path and
        is logged; ``tests/reference.py::RefHierarchy`` is the independent
        oracle run is tested against."""
        self._log = log = []
        try:
            self._walk((rec,))
        finally:
            self._log = None
        return log

    def run(self, records, collect_events=False, clock=time.time):
        """Fold every record of the trace (TraceRecords or decoder rows)
        and return a SimReport.

        ``collect_events`` makes ``events`` a list of the bus transactions
        when no sink is set; a sink already set, a list or a fold, keeps
        taking them.

        ``clock`` is called once before and once after the loop; injecting
        a fake clock makes the wall-time fields reproducible.  Elapsed time
        is floored at one second, matching the integer-seconds convention
        of the classic statistics output.
        """
        if collect_events and self.events is None:
            self.events = []  # a later run adds to it, as to the counters
        start = clock()
        self._walk(records)
        elapsed = int(clock() - start)
        if elapsed < 1:
            elapsed = 1
        return self._report(elapsed)

    def _region_counters(self, v):
        """RegionCounters from a flat vector in _snapshot order."""
        caches = {name: CacheStats(v[i] + v[i + 1], *v[i:i + 5])
                  for name, i in zip(self.caches, range(8, len(v), 5))}
        return RegionCounters(insts=v[0], ops=v[1], refs=v[2],
                              branches=BranchCounts(*v[3:6]),
                              i_misses=v[6], d_misses=v[7], caches=caches)

    def _report(self, elapsed):
        self._credit()
        total = self._region_counters(self._mark)
        regions = {TOTAL_REGION: total}
        regions.update({n: self._region_counters(v) for n, v in self._regions.items()})
        return SimReport(
            sim_num_insn=self.sim_num_insn,
            sim_num_refs=self.sim_num_refs,
            caches=total.caches,
            branches=total.branches,
            regions=regions,
            sim_elapsed_time=elapsed,
            sim_inst_rate=self.sim_num_insn / elapsed,
        )
