"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.
"""

import itertools
import random
import re
import time

import pytest

from cachesim import (
    BranchReport,
    CycleReport,
    MemSideReport,
    SimReport,
    CacheStats,
    TimingSpec,
    account,
    belady_misses,
    gen_loop,
    gen_random,
    inst,
    load,
    misses_for_assoc,
    parse_cache_spec,
    parse_hierarchy_args,
    region,
    render_simcache,
    render_vex_summary,
    stack_distances,
    store,
    syscall,
    branch,
    Hierarchy,
    ConfigError,
)
from cachesim.cli import main
from reference import brute_min_misses, direct_misses


def announce(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# --- criterion 1 -----------------------------------------------------------

PUBLISHED_CONFIG_STRINGS = [
    "dl1:256:32:1:l",
    "ul2:1024:64:4:l",
    "il1:256:32:1:l",
    "itlb:16:4096:4:l",
    "dtlb:32:4096:4:l",
    "dl1:4096:32:1:l",
    "dtlb:128:4096:32:r",
    "il1:128:64:1:l",
]


def test_criterion_1_config_fidelity():
    start = time.perf_counter()
    for text in PUBLISHED_CONFIG_STRINGS:
        assert parse_cache_spec(text).render() == text
    with pytest.raises(ConfigError, match=r"^nsets must be a power of two >= 1, got 100$"):
        parse_cache_spec("dl1:100:32:1:l")
    with pytest.raises(ConfigError,
                       match=r"^expected 5 colon-separated fields in 'dl1:256:32:1', got 4$"):
        parse_cache_spec("dl1:256:32:1")
    with pytest.raises(ConfigError,
                       match=r"^unknown replacement policy 'x': expected 'l', 'f' or 'r'$"):
        parse_cache_spec("dl1:256:32:1:x")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"config fidelity took {elapsed:.3f}s"
    announce(1, f"all {len(PUBLISHED_CONFIG_STRINGS)} published config strings "
                f"round-trip in {elapsed * 1000:.1f} ms")


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_timing_arithmetic():
    t = TimingSpec(core_clk_mhz=1000, bus_clk_mhz=500, miss_penalty=36,
                   wb_penalty=33, icache_penalty=45, branch_stall=1)
    events = [("imiss", i * 1000, 64) for i in range(120)]
    events += [("dmiss", 200000 + i * 1000, 32) for i in range(40)]
    c = account(events, t, insn_count=1488, op_count=1689,
                imem=(1250, 1130, 120), dmem=(687, 647, 40), branches=(0, 0, 0))
    assert c.imem.stall_miss == 120 * 45 == 5400
    assert c.dmem.stall_miss == 40 * 36 == 1440

    published = CycleReport(
        total_cycles=8751, execution_cycles=1488, stall_cycles=7263,
        imem=MemSideReport(1250, 1130, 120, 5580, 5400, 180),
        dmem=MemSideReport(687, 647, 40, 1440, 1440, 0),
        branch=BranchReport(334, 243, 91, 243),
        bus_busy_cycles=6840, bandwidth_pct=78.16, executed_operations=1689,
    )
    assert published.total_cycles == published.execution_cycles + published.stall_cycles
    assert published.stall_cycles == (published.imem.stall_total +
                                      published.dmem.stall_total +
                                      published.branch.branch_stall_cycles)
    text = render_vex_summary(published)
    squeezed = re.sub(r"[ \t]+", " ", text)
    assert "Total Cycles: 8751" in squeezed
    assert "( 17.00%)" in text
    assert "( 83.00%)" in text
    assert "( 90.40%)" in text
    assert "( 94.18%)" in text
    announce(2, "stall products 5400/1440 exact; 8751-cycle summary renders "
                "17.00/83.00/90.40/94.18 at 2 decimals")


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_rate_formatting():
    rep = SimReport(
        sim_num_insn=7064, sim_num_refs=4008,
        caches={"il1": CacheStats(7064, 6629, 435, 221, 0, 0)},
        sim_elapsed_time=1, sim_inst_rate=7064.0,
    )
    text = render_simcache(rep)
    assert re.search(r"il1\.miss_rate\s+0\.0616 ", text)
    assert re.search(r"il1\.repl_rate\s+0\.0313 ", text)
    assert re.search(r"sim_inst_rate\s+7064\.0000 ", text)
    announce(3, "435/7064 -> 0.0616, 221/7064 -> 0.0313, rate 7064.0000")


# --- criteria 4 + 5: shared generated corpus --------------------------------

SETS_AXIS = [16, 32, 64, 128, 256, 512, 1024]
BSIZE_AXIS = [16, 32, 64, 128]
ASSOC_AXIS = [1, 2, 4, 8]


def _sweep_cases(count=1008):
    """Deterministic corpus of (records, nsets, bsize) covering the grid."""
    lengths = [80, 300, 900, 2500]
    for i in range(count):
        nsets = SETS_AXIS[i % len(SETS_AXIS)]
        bsize = BSIZE_AXIS[(i // len(SETS_AXIS)) % len(BSIZE_AXIS)]
        n = 100_000 if i < 2 else lengths[i % len(lengths)]
        spread = nsets * bsize * (1 + (i % 12))
        yield gen_random(9000 + i, 0, spread, n), nsets, bsize


def test_criterion_4_sweep_oracle_equivalence():
    start = time.perf_counter()
    cases = 0
    for records, nsets, bsize in _sweep_cases():
        hist = stack_distances(records, nsets, bsize)
        for assoc in ASSOC_AXIS:
            got = misses_for_assoc(hist, assoc)
            want = direct_misses(records, nsets, bsize, assoc)
            assert got == want, (cases, nsets, bsize, assoc, got, want)
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 1000
    assert elapsed < 60.0, f"sweep oracle run took {elapsed:.1f}s"
    announce(4, f"{cases} traces x 4 associativities match direct LRU "
                f"simulation exactly in {elapsed:.1f}s")


def test_criterion_5_lru_stack_property():
    cases = 0
    for records, nsets, bsize in _sweep_cases():
        hist = stack_distances(records, nsets, bsize)
        misses = [misses_for_assoc(hist, a) for a in ASSOC_AXIS]
        assert misses == sorted(misses, reverse=True), (cases, misses)
        cases += 1
    assert cases >= 1000
    announce(5, f"miss counts non-increasing in associativity on all {cases} traces")


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_belady_dominance_and_exactness():
    rng = random.Random(606)
    dominance_cases = 0
    for trial in range(250):
        nsets = rng.choice([1, 2, 4, 8])
        assoc = rng.choice([1, 2, 4])
        bsize = rng.choice([16, 32])
        records = gen_random(7000 + trial, 0, nsets * bsize * assoc * 4,
                             rng.randrange(50, 700))
        opt = belady_misses(records, nsets, bsize, assoc)
        assert opt <= direct_misses(records, nsets, bsize, assoc, "l")
        assert opt <= direct_misses(records, nsets, bsize, assoc, "f")
        for seed in (1, 2):
            assert opt <= direct_misses(records, nsets, bsize, assoc, "r", seed)
        dominance_cases += 1

    exhaustive_cases = 0
    for n in range(1, 7):
        for stream in itertools.product(range(3), repeat=n):
            records = [load(b * 32, 1) for b in stream]
            assert belady_misses(records, 1, 32, 2) == brute_min_misses(list(stream), 1, 2)
            exhaustive_cases += 1
    for _ in range(200):
        stream = [rng.randrange(5) for _ in range(10)]
        records = [load(b * 32, 1) for b in stream]
        assert belady_misses(records, 1, 32, 3) == brute_min_misses(stream, 1, 3)
        exhaustive_cases += 1
    announce(6, f"OPT dominated every policy on {dominance_cases} cases and "
                f"matched brute-force minima on {exhaustive_cases} tiny instances")


# --- criterion 7 -----------------------------------------------------------

LEDGER_CONFIGS = [
    [],
    ["-flush", "true"],
    ["-cache:il1", "il1:32:16:2:l", "-cache:dl1", "dl1:16:16:2:f",
     "-cache:dl2", "ul2:64:32:4:l", "-cache:il2", "dl2"],
    ["-cache:dl1", "ul1:64:32:2:r", "-cache:il1", "dl1"],
    ["-cache:il2", "il2:128:64:2:l"],
    ["-cache:dl2", "none", "-cache:il2", "none"],
]


def _ledger_trace(rng, n):
    records = [region("r0")]
    for _ in range(n):
        k = rng.randrange(20)
        if k == 19:
            records.append(region(f"r{rng.randrange(4)}"))
        elif k == 18:
            records.append(syscall())
        elif k < 6:
            records.append(inst(rng.randrange(1 << 16)))
        elif k < 8:
            records.append(branch(rng.random() < 0.5))
        elif k < 14:
            records.append(load(rng.randrange(1 << 16), rng.choice([1, 4, 8, 64])))
        else:
            records.append(store(rng.randrange(1 << 16), rng.choice([1, 4, 8, 64])))
    return records


def test_criterion_7_ledger_identities():
    rng = random.Random(707)
    runs = 0
    for args in LEDGER_CONFIGS:
        for trial in range(6):
            h = Hierarchy(parse_hierarchy_args(args), seed=trial)
            rep = h.run(_ledger_trace(rng, 2000), clock=lambda: 0.0)
            for name, stats in rep.caches.items():
                assert stats.accesses == stats.hits + stats.misses, name
                refills, wbs = h.routed.get(name, (0, 0))
                assert stats.accesses == h.entry_accesses[name] + refills + wbs
            total = rep.regions["TOTAL"]
            named = [r for n, r in rep.regions.items() if n != "TOTAL"]
            assert sum(r.insts for r in named) == total.insts
            assert sum(r.refs for r in named) == total.refs
            for cname in rep.caches:
                for counter in ("accesses", "hits", "misses", "replacements",
                                "writebacks", "invalidations"):
                    assert sum(getattr(r.caches[cname], counter) for r in named) \
                        == getattr(total.caches[cname], counter)
            runs += 1
    announce(7, f"counter, routing and region ledgers exact over {runs} runs "
                f"across {len(LEDGER_CONFIGS)} hierarchy shapes")


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_determinism(capsys, tmp_path):
    trace_path = tmp_path / "d.ct"
    rng = random.Random(808)
    records = _ledger_trace(rng, 1500)
    from cachesim import write_trace_path

    write_trace_path(trace_path, records)
    args = ["sim", "-cache:dl1", "dl1:16:32:4:r", "-cache:il1", "il1:32:32:2:r",
            "-cache:dl2", "ul2:64:64:4:r", "-cache:il2", "dl2",
            "-flush", "true", "-seed", "99", "-mem:lat", "18", "2",
            "--clock", "0", str(trace_path)]
    assert main(list(args)) == 0
    first = capsys.readouterr().out
    assert main(list(args)) == 0
    second = capsys.readouterr().out
    assert first == second and first
    announce(8, "byte-identical reports across repeated runs with RANDOM "
                "replacement and an injected clock")


# --- criterion 9 -----------------------------------------------------------

def test_criterion_9_throughput():
    # locality mix: an L1-resident phase, an L1-thrashing but L2-resident
    # phase, and a random phase that misses both levels
    records = gen_loop(0, 4 * 1024, 4688, 32)  # 600,064 refs in 4 KiB
    records += gen_loop(0, 64 * 1024, 146, 32)  # 299,008 refs in 64 KiB
    records += gen_random(1, 0, 1 << 20, 1_000_000 - len(records))
    assert len(records) == 1_000_000
    h = Hierarchy(parse_hierarchy_args([]), seed=1)
    start = time.perf_counter()
    rep = h.run(records, clock=lambda: 0.0)
    elapsed = time.perf_counter() - start
    assert rep.sim_num_refs == 1_000_000
    assert elapsed < 5.0, f"one-million-record run took {elapsed:.2f}s"
    announce(9, f"one million records through the default two-level hierarchy "
                f"in {elapsed:.2f}s")
