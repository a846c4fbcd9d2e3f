import json
import random
import re
from decimal import InvalidOperation

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import reference

from cachesim import (
    AccessOutcome,
    BranchCounts,
    BranchReport,
    CacheStats,
    CycleReport,
    Hierarchy,
    HierarchySpec,
    MemSideReport,
    RegionCounters,
    SimReport,
    SweepRow,
    TimingSpec,
    account,
    export,
    inst,
    load,
    parse_cache_spec,
    region,
    render_region_profile,
    render_simcache,
    render_sweep_table,
    render_vex_summary,
    store,
)
from cachesim.report import fixed

FIG_CYCLES = CycleReport(
    total_cycles=8751,
    execution_cycles=1488,
    stall_cycles=7263,
    imem=MemSideReport(1250, 1130, 120, 5580, 5400, 180),
    dmem=MemSideReport(687, 647, 40, 1440, 1440, 0),
    branch=BranchReport(334, 243, 91, 243),
    bus_busy_cycles=6840,
    bandwidth_pct=78.16,
    executed_operations=1689,
)


def norm(text):
    return re.sub(r"[ \t]+", " ", text)


def sample_sim_report():
    return SimReport(
        sim_num_insn=7064,
        sim_num_refs=4008,
        caches={
            "il1": CacheStats(7064, 6629, 435, 221, 0, 0),
            "dl1": CacheStats(4082, 3627, 455, 199, 193, 0),
        },
        sim_elapsed_time=1,
        sim_inst_rate=7064.0,
    )


def test_simcache_counter_lines():
    text = render_simcache(sample_sim_report())
    n = norm(text)
    assert "sim: ** simulation statistics **" in text
    assert "sim_num_insn 7064 # total number of instructions executed" in n
    assert "sim_num_refs 4008 # total number of loads and stores executed" in n
    assert "sim_elapsed_time 1 # total simulation time in seconds" in n
    assert "sim_inst_rate 7064.0000 # simulation speed (in insts/sec)" in n
    assert "il1.accesses 7064 # total number of accesses" in n
    assert "il1.hits 6629 # total number of hits" in n
    assert "il1.misses 435 # total number of misses" in n
    assert "il1.replacements 221 # total number of replacements" in n
    assert "il1.miss_rate 0.0616 # miss rate (i.e., misses/ref)" in n
    assert "il1.repl_rate 0.0313 # replacement rate (i.e., repls/ref)" in n
    assert "il1.wb_rate 0.0000 # writeback rate (i.e., wrbks/ref)" in n
    assert "il1.inv_rate 0.0000 # invalidation rate (i.e., invs/ref)" in n
    assert "dl1.writebacks 193 # total number of writebacks" in n


def test_simcache_counter_order_is_fixed():
    text = render_simcache(sample_sim_report())
    il1_keys = [line.split()[0] for line in text.splitlines()
                if line.startswith("il1.")]
    assert il1_keys == [
        "il1.accesses", "il1.hits", "il1.misses", "il1.replacements",
        "il1.writebacks", "il1.invalidations",
        "il1.miss_rate", "il1.repl_rate", "il1.wb_rate", "il1.inv_rate",
    ]


def test_simcache_zeroed_report():
    text = render_simcache(SimReport(caches={"dl1": CacheStats()}))
    n = norm(text)
    assert "sim_num_insn 0 " in n
    assert "dl1.accesses 0 " in n
    assert "dl1.miss_rate 0.0000 " in n
    assert "sim_num_branches" not in n  # omitted when no branches ran


def test_simcache_branch_lines_when_present():
    rep = sample_sim_report()
    rep = rep._replace(branches=BranchCounts(10, 7, 3))
    n = norm(render_simcache(rep))
    assert "sim_num_branches 10 " in n
    assert "sim_num_taken 7 " in n
    assert "sim_num_not_taken 3 " in n


def test_simcache_byte_stable():
    assert render_simcache(sample_sim_report()) == render_simcache(sample_sim_report())


def test_rendered_rates_reparse_at_precision():
    rep = sample_sim_report()
    text = render_simcache(rep)
    got = float(re.search(r"il1\.miss_rate\s+([0-9.]+)", text).group(1))
    assert got == 0.0616
    rate_line = re.search(r"sim_inst_rate\s+([0-9.]+)", text).group(1)
    assert float(rate_line) == 7064.0 and rate_line == "7064.0000"


# Floats the reports render: rates, percentages and milliseconds, ties at
# every rendered precision (x.xx5, x.xxxxx5) and anything finite.
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
    st.builds(lambda n, k: n / 10**k, st.integers(-10**9, 10**9), st.integers(0, 9)),
    st.builds(lambda n, k: (2 * n + 1) / (2 * 10**k), st.integers(-10**7, 10**7),
              st.integers(0, 7)),
)


@given(value=_FLOATS, places=st.sampled_from([0, 2, 4, 6]))
def test_fixed_matches_the_decimal_formula(value, places):
    try:
        want = reference.decimal_fixed(value, places)
    except InvalidOperation:  # more than 28 digits, past every rendered figure
        assume(False)
    assert fixed(value, places) == want


def test_fixed_rounds_half_up_and_never_renders_negative_zero():
    assert [fixed(v, 2) for v in (0.005, 0.015, 2.675, -2.675, 99.995, -0.001, -0.0)] == \
        ["0.01", "0.02", "2.68", "-2.68", "100.00", "0.00", "0.00"]
    assert fixed(7064, 4) == "7064.0000" and fixed(2.5, 0) == "3" and fixed(1e-7, 6) == "0.000000"
    # The decimal formula raised InvalidOperation past 28 digits; these are exact.
    assert fixed(1e30, 2) == "1" + "0" * 30 + ".00" and fixed(-1.5e-300, 6) == "0.000000"
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="cannot render"):
            fixed(bad, 2)


def test_vex_summary_golden_anchors():
    text = render_vex_summary(FIG_CYCLES)
    n = norm(text)
    assert "Total Cycles: 8751" in n
    assert "Execution Cycles: 1488 ( 17.00%)" in n
    assert "Stall Cycles: 7263 ( 83.00%)" in n
    assert "( 17.00%)" in text and "( 83.00%)" in text
    assert "Executed operations: 1689" in n
    assert "Hits (Hit Rate): 1130 ( 90.40%)" in n
    assert "Misses (Miss Rate): 120 (  9.60%)" in norm(text) or "(  9.60%)" in text
    assert "( 90.40%)" in text and "(  9.60%)" in text
    assert "( 94.18%)" in text and "(  5.82%)" in text
    assert "( 96.77%)" in text and "(  3.23%)" in text
    assert "(100.00%)" in text
    assert "( 19.78% ops)(22.45% insts)" in text
    assert "(  5.39% ops)( 6.12% insts)(27.25% br)" in text
    assert "( 14.39% ops)(16.33% insts)(72.75% br)" in text
    assert "Due to Misses: 5400 ( 96.77%)" in n
    assert "Due to Bus Conflicts: 180 (  3.23%)" in norm(text) or "180" in text
    assert "Percentage Bus Bandwidth Consumed: 78.16%" in text


def test_vex_summary_includes_msec_when_clocked():
    text = render_vex_summary(FIG_CYCLES, core_clk_mhz=1000)
    assert "(0.008751 msec)" in text


def test_vex_summary_zero_stall_omits_percentages():
    c = CycleReport(
        total_cycles=100, execution_cycles=100, stall_cycles=0,
        imem=MemSideReport(10, 10, 0, 0, 0, 0),
        dmem=MemSideReport(0, 0, 0, 0, 0, 0),
        branch=BranchReport(0, 0, 0, 0),
        bus_busy_cycles=0, bandwidth_pct=0.0, executed_operations=100,
    )
    text = render_vex_summary(c)
    stall_block = text.split("Instruction Memory Stall Cycles")[1]
    assert "%" not in stall_block.split("Data Memory")[0]
    # zero-access dmem side drops its rate parentheses too
    dmem_ops = text.split("Data Memory Operations:")[1].split("Data Memory Stall")[0]
    assert "%" not in dmem_ops


def _profiled_run():
    h = Hierarchy(HierarchySpec(il1=parse_cache_spec("icache:64:64:1:l"),
                                dl1=parse_cache_spec("dcache:64:32:4:l")), seed=1)
    rng = random.Random(55)
    records = []
    for name in ("alpha", "beta", "gamma"):
        records.append(region(name))
        for _ in range(300):
            r = rng.random()
            if r < 0.4:
                records.append(inst(rng.randrange(1 << 13)))
            elif r < 0.8:
                records.append(load(rng.randrange(1 << 13), 4))
            else:
                records.append(store(rng.randrange(1 << 13), 4))
    rep = h.run(records, collect_events=True, clock=lambda: 0.0)
    t = TimingSpec(core_clk_mhz=1000, bus_clk_mhz=500, miss_penalty=36,
                   wb_penalty=33, icache_penalty=45, branch_stall=1)
    b = rep.branches
    cycles = account(h.events, t, rep.sim_num_insn, h.ops_executed,
                     h.mem_counts["I"], h.mem_counts["D"],
                     (b.executed, b.taken, b.not_taken))
    return rep, cycles, t


def test_region_profile_single_region_is_all_100():
    h = Hierarchy(HierarchySpec(il1=parse_cache_spec("icache:16:32:1:l"),
                                dl1=parse_cache_spec("dcache:16:32:1:l")), seed=1)
    records = [inst(i * 64) for i in range(32)] + [load(i * 8, 4) for i in range(64)]
    rep = h.run(records, clock=lambda: 0.0)
    t = TimingSpec(miss_penalty=10, icache_penalty=20)
    text = render_region_profile(rep, t)
    row = text.splitlines()[2].split()
    assert row[-1] == "TOTAL"
    assert row[1] == row[3] == row[5] == row[7] == "100.00"


def test_region_profile_sorted_and_consistent_with_timing():
    rep, cycles, t = _profiled_run()
    text = render_region_profile(rep, t)
    lines = text.splitlines()
    assert lines[0] == "Flat profile (cycles)"
    header = lines[1].split()
    assert header == ["Total", "Total%", "Insts", "Insts%", "Dcache", "Dcache%",
                      "Icache", "Icache%", "Region"]
    totals = [int(line.split()[0]) for line in lines[2:]]
    assert totals == sorted(totals, reverse=True)
    names = {line.split()[-1] for line in lines[2:]}
    assert names == {"alpha", "beta", "gamma"}

    # attributed stall cycles reconcile with the cycle model exactly
    named = [r for n, r in rep.regions.items() if n != "TOTAL"]
    assert sum(r.i_misses for r in named) * t.icache_penalty == cycles.imem.stall_miss
    assert sum(r.d_misses for r in named) * t.miss_penalty == cycles.dmem.stall_miss

    # percentage columns sum to 100 up to per-row rounding slack
    for col in (1, 3, 5, 7):
        total_pct = sum(float(line.split()[col]) for line in lines[2:])
        assert total_pct <= 100.0 + 0.005 * len(named)
        assert total_pct >= 100.0 - 0.005 * len(named)


def test_region_profile_never_renders_negative_zero():
    rep, _, t = _profiled_run()
    assert "-0" not in render_region_profile(rep, t)


def test_export_sweep_csv_header_and_rows():
    rows = [SweepRow(64, 32, 1, 100, 0.25), SweepRow(64, 32, 2, 80, 0.2),
            SweepRow(64, 32, 4, 70, 0.175)]
    text = export(rows, "csv")
    lines = text.splitlines()
    assert lines[0] == "nsets,bsize,assoc,misses,miss_rate"
    assert lines[1] == "64,32,1,100,0.25"
    assert len(lines) == 4


def test_export_sweep_csv_with_policy_column():
    rows = [SweepRow(64, 32, 1, 100, 0.25, "lru"), SweepRow(64, 32, 1, 90, 0.225, "opt")]
    lines = export(rows, "csv").splitlines()
    assert lines[0] == "policy,nsets,bsize,assoc,misses,miss_rate"
    assert lines[2].startswith("opt,")


def test_export_empty_sweep_is_header_only():
    assert export([], "csv") == "nsets,bsize,assoc,misses,miss_rate\n"


def test_export_sim_report_json_round_trip():
    rep = sample_sim_report()
    data = json.loads(export(rep, "json"))
    assert data["sim_num_insn"] == 7064
    assert data["caches"]["il1"]["misses"] == 435
    assert data["caches"]["dl1"]["writebacks"] == 193
    assert data["branches"] == {"executed": 0, "taken": 0, "not_taken": 0}


def test_export_cycle_report_json_round_trip():
    data = json.loads(export(FIG_CYCLES, "json"))
    assert data["total_cycles"] == 8751
    assert data["imem"]["stall_miss"] == 5400
    assert data["dmem"]["misses"] == 40
    assert data["branch"]["taken"] == 243


def test_export_csv_flat_keys():
    text = export(sample_sim_report(), "csv")
    assert "caches.il1.misses,435" in text
    assert text.startswith("key,value\n")


def test_export_unsupported_format():
    with pytest.raises(ValueError, match=r"^unsupported format 'xml': use 'csv' or 'json'$"):
        export(sample_sim_report(), "xml")


@pytest.mark.parametrize("obj, type_name", [
    (42, "int"), ("report", "str"), ([SweepRow(16, 32, 1, 0, 0.0), 1], "list"),
    ({"sim": 1}, "dict"), (BranchCounts(), "BranchCounts")])
def test_export_unsupported_object(obj, type_name):
    for fmt in ("csv", "json"):
        with pytest.raises(TypeError, match=f"^cannot export object of type {type_name}$"):
            export(obj, fmt)


def test_render_sweep_table_text():
    rows = [SweepRow(64, 32, 1, 100, 0.25)]
    text = render_sweep_table(rows)
    assert "nsets" in text and "0.250000" in text


# The reprs of the dataclasses these result types were before they became
# named tuples.
EMPTY_BRANCHES_REPR = "BranchCounts(executed=0, taken=0, not_taken=0)"
RESULT_REPRS = [
    (CacheStats(), "CacheStats(accesses=0, hits=0, misses=0, replacements=0, writebacks=0, "
                   "invalidations=0)"),
    (AccessOutcome(True), "AccessOutcome(hit=True, evicted_tag=None, evicted_dirty=False)"),
    (AccessOutcome(False, 5, True), "AccessOutcome(hit=False, evicted_tag=5, evicted_dirty=True)"),
    (BranchCounts(), EMPTY_BRANCHES_REPR),
    (RegionCounters(), f"RegionCounters(insts=0, ops=0, refs=0, branches={EMPTY_BRANCHES_REPR}, "
                       "i_misses=0, d_misses=0, caches={})"),
    (SimReport(), f"SimReport(sim_num_insn=0, sim_num_refs=0, caches={{}}, "
                  f"branches={EMPTY_BRANCHES_REPR}, regions={{}}, sim_elapsed_time=1, "
                  "sim_inst_rate=0.0)"),
    (MemSideReport(4, 3, 1, 20, 18, 2),
     "MemSideReport(accesses=4, hits=3, misses=1, stall_total=20, stall_miss=18, "
     "stall_bus_conflict=2)"),
    (BranchReport(2, 1, 1, 3),
     "BranchReport(executed=2, taken=1, not_taken=1, branch_stall_cycles=3)"),
    (CycleReport(30, 5, 25, MemSideReport(4, 3, 1, 20, 18, 2), MemSideReport(0, 0, 0, 0, 0, 0),
                 BranchReport(2, 1, 1, 3), 40, 50.0, 9),
     "CycleReport(total_cycles=30, execution_cycles=5, stall_cycles=25, "
     "imem=MemSideReport(accesses=4, hits=3, misses=1, stall_total=20, stall_miss=18, "
     "stall_bus_conflict=2), dmem=MemSideReport(accesses=0, hits=0, misses=0, stall_total=0, "
     "stall_miss=0, stall_bus_conflict=0), branch=BranchReport(executed=2, taken=1, "
     "not_taken=1, branch_stall_cycles=3), bus_busy_cycles=40, bandwidth_pct=50.0, "
     "executed_operations=9)"),
]


@pytest.mark.parametrize("result, want", RESULT_REPRS,
                         ids=[type(result).__name__ for result, _ in RESULT_REPRS])
def test_results_keep_their_repr_and_have_read_only_fields(result, want):
    assert repr(result) == want
    field = result._fields[0]
    with pytest.raises(AttributeError):
        setattr(result, field, 1)
    with pytest.raises(AttributeError):
        result.extra = 1
    changed = result._replace(**{field: 7})
    assert getattr(changed, field) == 7 and changed[1:] == result[1:]
    assert changed == (7, *result[1:])  # equal to the plain tuple of its fields


def test_results_construct_with_their_defaults_and_hash_as_before():
    stats = CacheStats(10, 7, 3, 2, 1)
    assert stats == CacheStats(accesses=10, hits=7, misses=3, replacements=2, writebacks=1) \
        == (10, 7, 3, 2, 1, 0)
    assert (stats.miss_rate, stats.repl_rate, stats.wb_rate, stats.inv_rate) == (0.3, 0.2, 0.1, 0)
    assert CacheStats().miss_rate == 0.0
    accesses, hits, *_ = stats
    assert (accesses, hits) == (10, 7)
    assert AccessOutcome(False) == AccessOutcome(hit=False, evicted_tag=None, evicted_dirty=False)
    with pytest.raises(TypeError):
        AccessOutcome()  # hit has no default
    with pytest.raises(TypeError):
        MemSideReport(1, 1, 0)  # nor has any field of the cycle model's results
    assert RegionCounters(insts=3).branches == BranchCounts() == (0, 0, 0)
    # A dict default is a new dict for each result.
    assert SimReport().caches is not SimReport().caches
    assert SimReport().regions is not SimReport().regions
    assert RegionCounters().caches is not RegionCounters().caches
    caches = {"dl1": stats}
    assert SimReport(caches=caches).caches is caches
    # Results of plain counters hash as the tuple of their fields; those that
    # hold dicts stay unhashable, as the dataclasses were.
    assert hash(stats) == hash((10, 7, 3, 2, 1, 0))
    assert len({BranchCounts(1, 1, 0), BranchCounts(1, 1, 0), BranchCounts()}) == 2
    assert hash(FIG_CYCLES) == hash(tuple(FIG_CYCLES))
    for unhashable in (SimReport(), RegionCounters()):
        with pytest.raises(TypeError):
            hash(unhashable)
