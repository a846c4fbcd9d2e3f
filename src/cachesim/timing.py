"""VLIW-style cycle accounting over a simulation's event stream.

Execution takes one core cycle per instruction record.  Stalls decompose
into miss service (misses times the side's penalty), bus-conflict waiting,
and taken-branch stalls.  A single memory bus serves refills and
writebacks in trace order: each transaction requests the bus at its
event's timestamp (the instruction index when it was issued, a documented
approximation), waits until the bus frees, and occupies it for

    ceil(ceil(size / mem_width) * core_clk / bus_clk)  core cycles,

rounded up to whole core cycles.  Refill waiting accrues to that side's
bus-conflict stall; writebacks additionally occupy the bus for their
penalty but never stall the core, which is why the data-side stall equals
exactly misses times the miss penalty when nothing conflicts.
"""

from dataclasses import dataclass

from ._fmt import pct
from .config import TimingSpec


class InconsistentCounts(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class TimingEvent:
    """One cycle-model event: kind is "imiss", "dmiss", "writeback" or
    "branch"; ``at`` is the issuing instruction index; ``size`` the bus
    transfer in bytes for miss and writeback events."""

    kind: str
    at: int
    size: int = 0


@dataclass(frozen=True)
class MemSideReport:
    accesses: int
    hits: int
    misses: int
    stall_total: int
    stall_miss: int
    stall_bus_conflict: int


@dataclass(frozen=True)
class BranchReport:
    executed: int
    taken: int
    not_taken: int
    branch_stall_cycles: int


@dataclass(frozen=True)
class CycleReport:
    total_cycles: int
    execution_cycles: int
    stall_cycles: int
    imem: MemSideReport
    dmem: MemSideReport
    branch: BranchReport
    bus_busy_cycles: int
    bandwidth_pct: float
    executed_operations: int


def main_memory_latency(t: TimingSpec, nbytes: int) -> int:
    """Core cycles to move nbytes from main memory: first-beat latency plus
    per-beat latency for every further bus beat."""
    if nbytes < 1:
        raise ValueError(f"nbytes must be >= 1, got {nbytes}")
    beats = -(-nbytes // t.mem_width)
    return t.mem_lat_first + (beats - 1) * t.mem_lat_next


def _transfer_cycles(t, size):
    beats = -(-size // t.mem_width)
    return -(-(beats * t.core_clk_mhz) // t.bus_clk_mhz)


def account(events, t: TimingSpec, insn_count, op_count, imem, dmem, branches):
    """Fold an event stream into a CycleReport.

    ``imem`` and ``dmem`` are (accesses, hits, misses) summaries and
    ``branches`` is (executed, taken, not_taken); each must agree with the
    event stream or InconsistentCounts is raised.
    """
    i_acc, i_hit, i_miss = imem
    d_acc, d_hit, d_miss = dmem
    br_exec, br_taken, br_not = branches
    if i_acc != i_hit + i_miss or d_acc != d_hit + d_miss:
        raise InconsistentCounts("accesses != hits + misses in a summary")
    if br_exec != br_taken + br_not:
        raise InconsistentCounts("executed branches != taken + not taken")

    n_imiss = n_dmiss = n_branch = 0
    bus_free = 0
    bus_busy = 0
    i_conflict = d_conflict = 0
    for ev in events:
        kind = ev.kind
        if kind == "branch":
            n_branch += 1
            continue
        if ev.size < 1:
            raise ValueError(f"bus event needs a transfer size: {ev}")
        start = ev.at if ev.at > bus_free else bus_free
        cycles = _transfer_cycles(t, ev.size)
        if kind == "writeback":
            cycles += t.wb_penalty
        elif kind == "imiss":
            n_imiss += 1
            i_conflict += start - ev.at
        elif kind == "dmiss":
            n_dmiss += 1
            d_conflict += start - ev.at
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        bus_busy += cycles
        bus_free = start + cycles

    if n_imiss != i_miss or n_dmiss != d_miss:
        raise InconsistentCounts(
            f"event misses ({n_imiss} I, {n_dmiss} D) disagree with the "
            f"summaries ({i_miss} I, {d_miss} D)"
        )
    if n_branch != br_taken:
        raise InconsistentCounts(
            f"{n_branch} taken-branch events but {br_taken} taken branches"
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


def rates(report: CycleReport) -> dict:
    """Hit/miss rates of both sides as two-decimal percentage strings.

    Sides with zero accesses are omitted.
    """
    out = {}
    for side, rep in (("imem", report.imem), ("dmem", report.dmem)):
        if rep.accesses > 0:
            out[f"{side}_hit_rate"] = pct(rep.hits, rep.accesses)
            out[f"{side}_miss_rate"] = pct(rep.misses, rep.accesses)
    return out
