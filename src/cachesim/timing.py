"""VLIW-style cycle accounting over a simulation's bus transactions.

Execution takes one core cycle per instruction record.  Stalls decompose
into miss service (misses times the side's penalty), bus-conflict waiting,
and taken-branch stalls, which come from the branch counts alone.  A
single memory bus serves refills and writebacks in trace order.  Each
transaction is a ``(kind, at, size)`` tuple: kind is "imiss", "dmiss" or
"writeback", ``at`` the issuing instruction index (the instruction count
when its record began, a documented approximation) and ``size`` the
transfer in bytes.  It requests the bus at ``at``, waits until the bus
frees, and occupies it for

    ceil(ceil(size / mem_width) * core_clk / bus_clk)  core cycles,

rounded up to whole core cycles.  Refill waiting accrues to that side's
bus-conflict stall; writebacks additionally occupy the bus for their
penalty but never stall the core, which is why the data-side stall equals
exactly misses times the miss penalty when nothing conflicts.

``BusFold`` folds each transaction by that rule as the walk emits it and
keeps only running totals, which ``account`` reads; a transaction it
refuses changes no total, and its memory does not grow with the trace.
"""

from collections import namedtuple
from dataclasses import dataclass, fields

from .config import ConfigError, _check_pow2


class InconsistentCounts(ValueError):
    pass


@dataclass(frozen=True)
class TimingSpec:
    """Cycle-model parameters shared by both configuration dialects.

    Clock frequencies are in MHz; every penalty and latency is in core
    cycles; ``mem_width`` is bytes moved per bus beat.
    """

    core_clk_mhz: int = 1
    bus_clk_mhz: int = 1
    miss_penalty: int = 0
    wb_penalty: int = 0
    icache_penalty: int = 0
    branch_stall: int = 0
    mem_lat_first: int = 18
    mem_lat_next: int = 2
    mem_width: int = 8
    num_caches: int = 1

    def validate(self):
        if not (self.core_clk_mhz >= self.bus_clk_mhz > 0):
            raise ConfigError(
                f"need core_clk_mhz >= bus_clk_mhz > 0, got "
                f"{self.core_clk_mhz}/{self.bus_clk_mhz}"
            )
        for f in fields(self):
            if f.name not in ("core_clk_mhz", "bus_clk_mhz", "mem_width") \
                    and getattr(self, f.name) < 0:
                raise ConfigError(f"{f.name} must be >= 0")
        _check_pow2("mem_width", self.mem_width)
        return self


# The cycle model's results are named tuples; TimingSpec alone is a
# dataclass, for ``dataclasses.replace``.
MemSideReport = namedtuple("MemSideReport",
                           "accesses hits misses stall_total stall_miss stall_bus_conflict")
BranchReport = namedtuple("BranchReport", "executed taken not_taken branch_stall_cycles")
CycleReport = namedtuple("CycleReport", "total_cycles execution_cycles stall_cycles imem dmem "
                                        "branch bus_busy_cycles bandwidth_pct executed_operations")


def main_memory_latency(t: TimingSpec, nbytes: int) -> int:
    """Core cycles to move nbytes from main memory: first-beat latency plus
    per-beat latency for every further bus beat."""
    if nbytes < 1:
        raise ValueError(f"nbytes must be >= 1, got {nbytes}")
    beats = -(-nbytes // t.mem_width)
    return t.mem_lat_first + (beats - 1) * t.mem_lat_next


class BusFold:
    """An online fold of ``(kind, at, size)`` bus transactions under the
    TimingSpec ``timing``: ``append`` takes one transaction, in trace
    order, and raises ValueError for an unknown kind or a size below 1,
    which changes no total.  It holds the bus-free time, the busy cycles
    and each side's miss count and conflict cycles, and no transaction,
    so it can stand for ``Hierarchy.events``."""

    __slots__ = ("timing", "_transfer", "_free", "_busy",
                 "_imiss", "_dmiss", "_iconflict", "_dconflict")

    def __init__(self, timing):
        self.timing = timing
        self._transfer = {}  # size -> transfer cycles, for the few sizes a run has
        self._free = self._busy = 0
        self._imiss = self._dmiss = self._iconflict = self._dconflict = 0

    def append(self, event):
        kind, at, size = event
        cycles = self._transfer.get(size)
        if cycles is None:
            if size < 1:
                raise ValueError(f"bus event needs a transfer size: {event}")
            t = self.timing
            beats = -(-size // t.mem_width)
            cycles = self._transfer[size] = -(-(beats * t.core_clk_mhz) // t.bus_clk_mhz)
        start = at if at > self._free else self._free
        if kind == "writeback":
            cycles += self.timing.wb_penalty
        elif kind == "dmiss":
            self._dmiss += 1
            self._dconflict += start - at
        elif kind == "imiss":
            self._imiss += 1
            self._iconflict += start - at
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        self._busy += cycles
        self._free = start + cycles

    def totals(self):
        """(imiss count, dmiss count, I conflict, D conflict, busy cycles)."""
        return self._imiss, self._dmiss, self._iconflict, self._dconflict, self._busy


def account(events, t: TimingSpec, insn_count, op_count, imem, dmem, branches):
    """Fold a stream of ``(kind, at, size)`` bus transactions into a
    CycleReport.

    ``events`` is a BusFold built under ``t`` that has taken the
    transactions, whose totals are read, or any iterable of them, which a
    fresh BusFold folds.  ``imem`` and ``dmem`` are (accesses, hits,
    misses) summaries whose misses must agree with the stream's miss
    events, and ``branches`` is (executed, taken, not_taken); an
    inconsistent summary raises InconsistentCounts.  The branch stall is
    taken times ``branch_stall``.
    """
    i_acc, i_hit, i_miss = imem
    d_acc, d_hit, d_miss = dmem
    br_exec, br_taken, br_not = branches
    if i_acc != i_hit + i_miss or d_acc != d_hit + d_miss:
        raise InconsistentCounts("accesses != hits + misses in a summary")
    if br_exec != br_taken + br_not:
        raise InconsistentCounts("executed branches != taken + not taken")

    fold = events
    if not isinstance(fold, BusFold):
        fold = BusFold(t)
        for event in events:
            fold.append(event)
    elif fold.timing != t:
        raise ValueError("the bus fold was built under another TimingSpec")
    n_imiss, n_dmiss, i_conflict, d_conflict, bus_busy = fold.totals()
    if n_imiss != i_miss or n_dmiss != d_miss:
        raise InconsistentCounts(
            f"event misses ({n_imiss} I, {n_dmiss} D) disagree with the "
            f"summaries ({i_miss} I, {d_miss} D)"
        )

    i_stall_miss = i_miss * t.icache_penalty
    d_stall_miss = d_miss * t.miss_penalty
    branch_stall = br_taken * t.branch_stall
    imem_rep = MemSideReport(i_acc, i_hit, i_miss,
                             i_stall_miss + i_conflict, i_stall_miss, i_conflict)
    dmem_rep = MemSideReport(d_acc, d_hit, d_miss,
                             d_stall_miss + d_conflict, d_stall_miss, d_conflict)
    stall = imem_rep.stall_total + dmem_rep.stall_total + branch_stall
    total = insn_count + stall
    return CycleReport(
        total_cycles=total,
        execution_cycles=insn_count,
        stall_cycles=stall,
        imem=imem_rep,
        dmem=dmem_rep,
        branch=BranchReport(br_exec, br_taken, br_not, branch_stall),
        bus_busy_cycles=bus_busy,
        bandwidth_pct=100.0 * bus_busy / total if total > 0 else 0.0,
        executed_operations=op_count,
    )

