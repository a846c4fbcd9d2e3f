import random

import pytest

from cachesim import (
    InconsistentCounts,
    TimingSpec,
    account,
    main_memory_latency,
)
from cachesim.timing import BusFold

VEX_TIMING = TimingSpec(
    core_clk_mhz=1000, bus_clk_mhz=500,
    miss_penalty=36, wb_penalty=33, icache_penalty=45, branch_stall=1,
)


def imiss(at, size=64):
    return ("imiss", at, size)


def dmiss(at, size=32):
    return ("dmiss", at, size)


def spread(n, make, step=100):
    # timestamps far enough apart that the bus never conflicts
    return [make(i * step) for i in range(n)]


def test_miss_stall_anchors():
    # 120 instruction misses at 45 cycles and 40 data misses at 36 cycles
    events = spread(120, imiss) + spread(40, lambda at: dmiss(100 * 120 + at * 100))
    c = account(events, VEX_TIMING, insn_count=1488, op_count=1689,
                imem=(1250, 1130, 120), dmem=(687, 647, 40),
                branches=(0, 0, 0))
    assert c.imem.stall_miss == 5400
    assert c.dmem.stall_miss == 1440
    assert c.imem.stall_bus_conflict == 0
    assert c.dmem.stall_bus_conflict == 0


def test_zero_events_gives_pure_execution():
    c = account([], VEX_TIMING, insn_count=500, op_count=600,
                imem=(500, 500, 0), dmem=(100, 100, 0), branches=(0, 0, 0))
    assert c.stall_cycles == 0
    assert c.total_cycles == c.execution_cycles == 500
    assert c.bus_busy_cycles == 0
    assert c.bandwidth_pct == 0.0


def test_single_miss_never_conflicts():
    c = account([dmiss(7)], VEX_TIMING, insn_count=10, op_count=10,
                imem=(0, 0, 0), dmem=(1, 0, 1), branches=(0, 0, 0))
    assert c.dmem.stall_bus_conflict == 0
    # one 32-byte transfer: 4 beats at a 2x clock ratio
    assert c.bus_busy_cycles == 8


def test_back_to_back_misses_conflict():
    # both request at cycle 0; the second waits out the first transfer
    c = account([dmiss(0), dmiss(0)], VEX_TIMING, insn_count=1, op_count=1,
                imem=(0, 0, 0), dmem=(2, 0, 2), branches=(0, 0, 0))
    assert c.dmem.stall_bus_conflict == 8
    assert c.bus_busy_cycles == 16


def test_writebacks_occupy_bus_but_do_not_stall():
    wb = ("writeback", 0, 32)
    c = account([wb, dmiss(0)], VEX_TIMING, insn_count=1, op_count=1,
                imem=(0, 0, 0), dmem=(1, 0, 1), branches=(0, 0, 0))
    # writeback holds the bus 8 transfer cycles + 33 penalty; the refill waits
    assert c.bus_busy_cycles == 8 + 33 + 8
    assert c.dmem.stall_bus_conflict == 41
    assert c.dmem.stall_miss == 36
    # the writeback itself adds no stall beyond the conflict it causes
    assert c.stall_cycles == 36 + 41


def test_branch_stall():
    c = account([], VEX_TIMING, insn_count=1488, op_count=1689,
                imem=(0, 0, 0), dmem=(0, 0, 0), branches=(334, 243, 91))
    assert c.branch.branch_stall_cycles == 243
    assert c.stall_cycles == 243


def test_branch_is_not_a_bus_event():
    # Taken branches reach the cycle model only through ``branches``.
    for size in (0, 4):
        with pytest.raises(ValueError):
            account([("branch", 0, size)], VEX_TIMING, 10, 10,
                    imem=(0, 0, 0), dmem=(0, 0, 0), branches=(1, 1, 0))


def test_report_identities_random_events():
    rng = random.Random(77)
    for trial in range(50):
        events = []
        n_i = n_d = n_wb = 0
        at = 0
        for _ in range(rng.randrange(0, 120)):
            at += rng.randrange(0, 6)
            kind = rng.randrange(3)
            if kind == 0:
                events.append(imiss(at, rng.choice([16, 32, 64])))
                n_i += 1
            elif kind == 1:
                events.append(dmiss(at, rng.choice([16, 32, 64])))
                n_d += 1
            else:
                events.append(("writeback", at, 32))
                n_wb += 1
        n_br = rng.randrange(0, 40)
        insn = at + rng.randrange(1, 50)
        c = account(events, VEX_TIMING, insn, insn + 10,
                    imem=(n_i + 5, 5, n_i), dmem=(n_d + 3, 3, n_d),
                    branches=(n_br + 2, n_br, 2))
        assert c.total_cycles == c.execution_cycles + c.stall_cycles
        assert c.stall_cycles == (c.imem.stall_total + c.dmem.stall_total
                                  + c.branch.branch_stall_cycles)
        assert c.imem.stall_total == c.imem.stall_miss + c.imem.stall_bus_conflict
        assert c.dmem.stall_total == c.dmem.stall_miss + c.dmem.stall_bus_conflict
        assert c.bandwidth_pct == pytest.approx(
            100.0 * c.bus_busy_cycles / c.total_cycles if c.total_cycles else 0.0)


def test_penalty_linearity():
    events = [imiss(0), imiss(3), dmiss(9)]
    args = dict(insn_count=100, op_count=100,
                imem=(10, 8, 2), dmem=(5, 4, 1), branches=(3, 1, 2))
    base = account(events, VEX_TIMING, **args)
    doubled_spec = TimingSpec(
        core_clk_mhz=1000, bus_clk_mhz=500,
        miss_penalty=72, wb_penalty=66, icache_penalty=90, branch_stall=2,
    )
    doubled = account(events, doubled_spec, **args)
    assert doubled.imem.stall_miss == 2 * base.imem.stall_miss
    assert doubled.dmem.stall_miss == 2 * base.dmem.stall_miss
    assert doubled.branch.branch_stall_cycles == 2 * base.branch.branch_stall_cycles


def test_adding_a_miss_never_decreases_total():
    events = [dmiss(5)]
    args = dict(insn_count=50, op_count=50, imem=(0, 0, 0), branches=(0, 0, 0))
    one = account(events, VEX_TIMING, dmem=(2, 1, 1), **args)
    two = account(events + [dmiss(6)], VEX_TIMING, dmem=(2, 0, 2), **args)
    assert two.total_cycles >= one.total_cycles


def test_inconsistent_counts_rejected():
    with pytest.raises(InconsistentCounts):
        account([dmiss(0)], VEX_TIMING, 10, 10,
                imem=(0, 0, 0), dmem=(1, 1, 0), branches=(0, 0, 0))
    with pytest.raises(InconsistentCounts):
        account([], VEX_TIMING, 10, 10,
                imem=(5, 3, 1), dmem=(0, 0, 0), branches=(0, 0, 0))
    with pytest.raises(InconsistentCounts):
        account([], VEX_TIMING, 10, 10,
                imem=(0, 0, 0), dmem=(0, 0, 0), branches=(3, 2, 0))


def test_main_memory_latency():
    t = TimingSpec(mem_lat_first=18, mem_lat_next=2, mem_width=8)
    def brute(nbytes):
        beats, moved = 0, 0
        while moved < nbytes:
            moved += t.mem_width
            beats += 1
        return t.mem_lat_first + (beats - 1) * t.mem_lat_next

    assert main_memory_latency(t, 64) == 18 + 7 * 2 == 32
    assert main_memory_latency(t, 8) == 18  # one beat
    assert main_memory_latency(t, 4) == 18  # partial beat still one beat
    for nbytes in range(1, 200):
        assert main_memory_latency(t, nbytes) == brute(nbytes)
    with pytest.raises(ValueError):
        main_memory_latency(t, 0)


def test_fractional_clock_ratio_rounds_up_whole_cycles():
    t = TimingSpec(core_clk_mhz=1000, bus_clk_mhz=300, miss_penalty=1)
    c = account([dmiss(0, 32)], t, 1, 1,
                imem=(0, 0, 0), dmem=(1, 0, 1), branches=(0, 0, 0))
    # 4 beats * 1000/300 = 13.33 -> 14 whole core cycles
    assert c.bus_busy_cycles == 14


def _random_events(rng, n):
    events, at = [], 0
    for _ in range(n):
        at += rng.randrange(0, 6)
        events.append((rng.choice(["imiss", "dmiss", "writeback"]), at,
                       rng.choice([1, 16, 32, 64, 100])))
    return events


def _summaries(events):
    n_i = sum(kind == "imiss" for kind, _, _ in events)
    n_d = sum(kind == "dmiss" for kind, _, _ in events)
    return dict(imem=(n_i + 5, 5, n_i), dmem=(n_d + 3, 3, n_d), branches=(4, 3, 1))


def test_a_fold_gives_the_report_of_its_transactions_as_a_list():
    rng = random.Random(3)
    for trial in range(50):
        t = TimingSpec(core_clk_mhz=rng.randrange(1, 7) * 100, bus_clk_mhz=100,
                       wb_penalty=rng.randrange(0, 40), miss_penalty=7, icache_penalty=9,
                       mem_width=rng.choice([1, 8, 32]))
        events = _random_events(rng, rng.randrange(0, 120))
        fold = BusFold(t)
        for i, event in enumerate(events):
            if i % 7 == 0:  # reading the totals changes nothing
                fold.totals()
            fold.append(event)
        args = dict(insn_count=700, op_count=900, **_summaries(events))
        assert account(fold, t, **args) == account(events, t, **args)
        assert account(fold, t, **args) == account(iter(events), t, **args)


@pytest.mark.parametrize("bad, message", [
    (("flush", 3, 32), "unknown event kind 'flush'"),
    (("dmiss", 3, 0), r"bus event needs a transfer size: \('dmiss', 3, 0\)"),
    (("writeback", 3, -32), r"bus event needs a transfer size: \('writeback', 3, -32\)"),
])
def test_a_bad_transaction_raises_value_error_from_a_list_and_a_fold(bad, message):
    events = [dmiss(0, 32), ("writeback", 1, 32), bad]
    with pytest.raises(ValueError, match=message):
        account(events, VEX_TIMING, 10, 10, imem=(0, 0, 0), dmem=(2, 0, 2),
                branches=(0, 0, 0))
    fold = BusFold(VEX_TIMING)
    fold.append(events[0])
    fold.append(events[1])
    before = fold.totals()
    with pytest.raises(ValueError, match=message):
        fold.append(bad)
    assert fold.totals() == before  # a refused transaction changes no total
    fold.append(dmiss(2, 32))
    fresh = BusFold(VEX_TIMING)
    for event in (events[0], events[1], dmiss(2, 32)):
        fresh.append(event)
    assert fold.totals() == fresh.totals()


def test_account_reads_a_fold_only_under_its_own_timing_spec():
    fold = BusFold(VEX_TIMING)
    fold.append(dmiss(0))
    args = dict(imem=(0, 0, 0), dmem=(1, 0, 1), branches=(0, 0, 0))
    same = TimingSpec(**{f: getattr(VEX_TIMING, f) for f in VEX_TIMING.__dataclass_fields__})
    assert account(fold, same, 10, 10, **args) == account([dmiss(0)], VEX_TIMING, 10, 10, **args)
    with pytest.raises(ValueError, match="another TimingSpec"):
        account(fold, TimingSpec(wb_penalty=1), 10, 10, **args)
    with pytest.raises(InconsistentCounts):
        account(fold, VEX_TIMING, 10, 10, imem=(0, 0, 0), dmem=(2, 0, 2), branches=(0, 0, 0))
