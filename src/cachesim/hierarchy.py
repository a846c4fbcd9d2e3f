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
* Region markers attribute by snapshot.  At each R record, and once when
  the report is built, the change in the monotonic global counters since
  the previous snapshot is credited to the named region that was active,
  so the walk itself knows nothing of regions.  TOTAL is the global
  counters; records after ``R TOTAL`` belong to no named region.

Unified levels alias one Cache object, which is reported once under its
own name.  Per-level "routed" counters record exactly how many accesses
were forwarded into each lower cache (refills and writebacks separately),
so `l2.accesses == routed refills + routed writebacks` is checkable.

The caches at the memory boundary (the deepest cache on each side) also
feed the cycle model: their per-side access/hit/miss counts and, when
event collection is on, one TimingEvent per boundary miss, dirty
eviction, and taken branch.
"""

import time
import zlib
from dataclasses import dataclass, field

from .cache import HIT, MISS_REPLACE_DIRTY, Cache, CacheStats
from .config import CacheSpec, HierarchySpec, UnifiedWith
from .timing import TimingEvent

TOTAL_REGION = "TOTAL"


@dataclass
class BranchCounts:
    executed: int = 0
    taken: int = 0
    not_taken: int = 0


@dataclass
class RegionCounters:
    """Counters attributed to one region of the trace."""

    insts: int = 0
    ops: int = 0
    refs: int = 0
    branches: BranchCounts = field(default_factory=BranchCounts)
    i_misses: int = 0  # memory-boundary misses on the instruction side
    d_misses: int = 0  # memory-boundary misses on the data side
    caches: dict = field(default_factory=dict)  # name -> CacheStats


@dataclass
class SimReport:
    """Aggregated counters of one simulation run."""

    sim_num_insn: int = 0
    sim_num_refs: int = 0
    caches: dict = field(default_factory=dict)  # name -> CacheStats
    branches: BranchCounts = field(default_factory=BranchCounts)
    regions: dict = field(default_factory=dict)  # name -> RegionCounters
    sim_elapsed_time: int = 1
    sim_inst_rate: float = 0.0


def _cache_seed(master, name):
    return (master * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFFFFFFFFFF


class Hierarchy:
    """Single-owner mutable simulation state; build one per run."""

    def __init__(self, spec: HierarchySpec, seed: int = 1):
        spec.validate()
        self.spec = spec
        self.seed = seed
        self.flush_on_syscall = spec.flush_on_syscall

        def make(s):
            return Cache(s, _cache_seed(seed, s.name)) if isinstance(s, CacheSpec) else None

        dl1 = make(spec.dl1)
        dl2 = make(spec.dl2)
        data_obj = {"dl1": dl1, "dl2": dl2}

        il1 = dl2 if isinstance(spec.il1, UnifiedWith) and spec.il1.target == "dl2" \
            else dl1 if isinstance(spec.il1, UnifiedWith) else make(spec.il1)
        il2 = data_obj[spec.il2.target] if isinstance(spec.il2, UnifiedWith) else make(spec.il2)
        itlb = make(spec.itlb)
        dtlb = make(spec.dtlb)

        self.d_path = [c for c in (dl1, dl2) if c is not None]
        if il1 is None:
            self.i_path = []
        elif isinstance(spec.il1, UnifiedWith):
            # Fetches enter the data chain and follow it down.
            start = self.d_path.index(il1)
            self.i_path = self.d_path[start:]
        else:
            self.i_path = [il1] + ([il2] if il2 is not None else [])
        self.itlb = itlb
        self.dtlb = dtlb

        # Distinct caches once each, keyed and reported by their own name.
        # (Unified levels alias one object; spec validation keeps names unique.)
        self.caches = {c.name: c for c in (il1, dl1, il2, dl2, itlb, dtlb) if c is not None}

        # Access ledger: demand accesses entering a cache from the trace
        # versus accesses forwarded into it from the level above, so
        # accesses == entry + routed refills + routed writebacks per cache.
        self.entry_accesses = {n: 0 for n in self.caches}
        self.routed = {}
        for path in (self.i_path, self.d_path):
            for c in path[1:]:
                self.routed.setdefault(c.name, [0, 0])  # [refills, writebacks]

        # Linked level descriptors (cache, next descriptor, next's routed
        # counters) keep the walk free of list indexing.
        def levels(path):
            desc = None
            for c in reversed(path):
                routed = self.routed[desc[0].name] if desc is not None else None
                desc = (c, desc, routed)
            return desc

        self._i_entry = levels(self.i_path)
        self._d_entry = levels(self.d_path)

        self.sim_num_insn = 0
        self.sim_num_refs = 0
        self.ops_executed = 0
        self.branches = BranchCounts()
        self.mem_counts = {"I": [0, 0, 0], "D": [0, 0, 0]}  # [accesses, hits, misses]
        self.events = None  # list[TimingEvent] when collection is enabled
        self._now = 0
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
        b = self.branches
        snap = [self.sim_num_insn, self.ops_executed, self.sim_num_refs,
                b.executed, b.taken, b.not_taken,
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

    def _access_level(self, level, addr, size, write, side):
        """Access every block of [addr, addr+size) at this level, forwarding
        refills and writebacks downward.  Returns the number of accesses
        issued at this level."""
        cache, nxt, nxt_routed = level
        shift = cache._bshift
        first = addr >> shift
        last = (addr + size - 1) >> shift
        events = self.events
        log = self._log
        block = first
        while True:
            code = cache._access(block << shift, write)
            if log is not None:
                log.append((cache.name, cache.outcome(code)))
            if nxt is None:  # memory boundary
                mc = self.mem_counts[side]
                mc[0] += 1
                if code == HIT:
                    mc[1] += 1
                else:
                    mc[2] += 1
                    if events is not None:
                        events.append(TimingEvent(
                            "imiss" if side == "I" else "dmiss",
                            self._now, cache.bsize))
                if code == MISS_REPLACE_DIRTY and events is not None:
                    events.append(TimingEvent("writeback", self._now, cache.bsize))
            elif code != HIT:
                bsize = cache.bsize
                victim_addr = cache.victim_addr  # before the refill recursion
                nxt_routed[0] += self._access_level(
                    nxt, block << shift, bsize, False, side)
                if code == MISS_REPLACE_DIRTY:
                    nxt_routed[1] += self._access_level(
                        nxt, victim_addr, bsize, True, side)
            if block >= last:
                return last - first + 1
            block += 1

    def _step(self, rec):
        k = rec.kind
        if k == "L" or k == "S":
            self._now = self.sim_num_insn
            self.sim_num_refs += 1
            tlb, entry, size, write, side = self.dtlb, self._d_entry, rec.size, k == "S", "D"
        elif k == "I":
            self._now = self.sim_num_insn
            self.sim_num_insn += 1
            self.ops_executed += rec.ops
            tlb, entry, size, write, side = self.itlb, self._i_entry, 1, False, "I"
        elif k == "B":
            b = self.branches
            b.executed += 1
            if rec.taken:
                b.taken += 1
                if self.events is not None:
                    self.events.append(TimingEvent("branch", self._now, 0))
            else:
                b.not_taken += 1
            return
        elif k == "Y":
            if self.flush_on_syscall:
                for c in self.caches.values():
                    c.flush()
            return
        elif k == "R":
            self._credit()
            self.current_region = rec.name
            if rec.name != TOTAL_REGION:
                self._regions.setdefault(rec.name, [0] * len(self._mark))
            return
        else:
            raise ValueError(f"unknown trace record kind {k!r}")
        # The TLB -> L1 entry both access kinds share (inline: it runs on
        # most records, so it costs no extra call).
        if tlb is not None:
            code = tlb._access(rec.addr, False)
            self.entry_accesses[tlb.name] += 1
            if self._log is not None:
                self._log.append((tlb.name, tlb.outcome(code)))
        if entry is not None:
            self.entry_accesses[entry[0].name] += self._access_level(
                entry, rec.addr, size, write, side)

    def step(self, rec):
        """Process one record, returning [(cache name, AccessOutcome), ...]
        for every cache access it caused, in order."""
        self._log = log = []
        try:
            self._step(rec)
        finally:
            self._log = None
        return log

    def run(self, records, collect_events=False, clock=time.time):
        """Fold every record of the trace and return a SimReport.

        ``clock`` is called once before and once after the loop; injecting
        a fake clock makes the wall-time fields reproducible.  Elapsed time
        is floored at one second, matching the integer-seconds convention
        of the classic statistics output.
        """
        if collect_events:
            self.events = []
        start = clock()
        step = self._step
        for rec in records:
            step(rec)
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
            branches=BranchCounts(*self._mark[3:6]),
            regions=regions,
            sim_elapsed_time=elapsed,
            sim_inst_rate=self.sim_num_insn / elapsed,
        )
