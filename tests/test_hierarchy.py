import io
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachesim import (
    Hierarchy,
    HierarchySpec,
    TimingSpec,
    TraceSyntaxError,
    account,
    branch,
    gen_random,
    inst,
    load,
    parse_cache_spec,
    parse_hierarchy_args,
    region,
    store,
    syscall,
    write_trace_binary,
)
from cachesim.config import DEFAULT_HIERARCHY_ARGS
from cachesim.trace import decode_binary
from reference import RefCache, RefHierarchy, cache_seed, data_blocks, ref_cycles


def build(args=(), seed=1):
    return Hierarchy(parse_hierarchy_args(list(args)), seed)


def mini(il1=None, dl1=None, dl2=None, flush=False, seed=1, **kw):
    spec = HierarchySpec(
        il1=parse_cache_spec(il1) if il1 else None,
        dl1=parse_cache_spec(dl1) if dl1 else None,
        dl2=parse_cache_spec(dl2) if dl2 else None,
        flush_on_syscall=flush,
        **kw,
    )
    return Hierarchy(spec, seed)


def test_default_build_has_five_distinct_caches():
    h = build()
    assert list(h.caches) == ["il1", "dl1", "ul2", "itlb", "dtlb"]
    # il2 aliases the ul2 object at the end of both paths
    assert h.i_path[-1] is h.d_path[-1] is h.caches["ul2"]


@pytest.mark.parametrize("args, i_path, d_path, caches", [
    ([], ["il1", "ul2"], ["dl1", "ul2"], ["il1", "dl1", "ul2", "itlb", "dtlb"]),
    (["-cache:il1", "none"], [], ["dl1", "ul2"], ["dl1", "ul2", "itlb", "dtlb"]),
    (["-cache:il1", "dl1"], ["dl1", "ul2"], ["dl1", "ul2"], ["dl1", "ul2", "itlb", "dtlb"]),
    (["-cache:il1", "dl2"], ["ul2"], ["dl1", "ul2"], ["ul2", "dl1", "itlb", "dtlb"]),
    (["-cache:il2", "il2:512:64:2:l"], ["il1", "il2"], ["dl1", "ul2"],
     ["il1", "dl1", "il2", "ul2", "itlb", "dtlb"]),
    (["-cache:dl2", "none"], ["il1"], ["dl1"], ["il1", "dl1", "itlb", "dtlb"]),
    (["-cache:il1", "dl2", "-cache:dl2", "none"], [], ["dl1"], ["dl1", "itlb", "dtlb"]),
    (["-cache:dl1", "none", "-cache:dl2", "none"], ["il1"], [], ["il1", "itlb", "dtlb"]),
    (["-tlb:itlb", "none", "-tlb:dtlb", "none"], ["il1", "ul2"], ["dl1", "ul2"],
     ["il1", "dl1", "ul2"]),
])
def test_bindings_resolve_to_paths_and_caches(args, i_path, d_path, caches):
    h = build(args)
    assert [c.name for c in h.i_path] == i_path
    assert [c.name for c in h.d_path] == d_path
    assert list(h.caches) == caches
    assert all(h.caches[c.name] is c for c in h.i_path + h.d_path)
    assert (h.itlb is None, h.dtlb is None) == ("itlb" not in caches, "dtlb" not in caches)
    # A routed entry for each cache a level forwards into, and for no other.
    forwarded = dict.fromkeys(c.name for p in (h.i_path, h.d_path) for c in p[1:])
    assert list(h.routed) == list(forwarded)
    assert all(counts == [0, 0] for counts in h.routed.values())


def test_fully_unified_l1_shares_one_object():
    h = build(["-cache:dl1", "ul1:256:32:1:l", "-cache:il1", "dl1",
               "-cache:dl2", "none", "-cache:il2", "none"])
    assert list(h.caches) == ["ul1", "itlb", "dtlb"]
    assert h.i_path == h.d_path


def test_single_cache_hierarchy():
    h = build(["-cache:il1", "none", "-cache:il2", "none",
               "-cache:dl2", "none", "-tlb:itlb", "none", "-tlb:dtlb", "none"])
    assert list(h.caches) == ["dl1"]


@pytest.mark.parametrize("code", [6, 7, -1, "I", None])
def test_unknown_kind_code_is_refused(code):
    # run counts the rows before the bad one; step refuses it alone.
    message = f"^unknown trace record kind code {re.escape(repr(code))}$"
    h = build()
    with pytest.raises(ValueError, match=message):
        h.run([inst(0x400000), (code, 0, 0), inst(0x400004)], clock=lambda: 0.0)
    assert (h.sim_num_insn, h.caches["il1"].accesses) == (1, 1)
    with pytest.raises(ValueError, match=message):
        build().step((code, 0, 0))


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        build(["-cache:il1", "dl1:128:32:1:l"])


def test_cold_load_walks_tlb_l1_l2():
    h = build()
    out = h.step(load(0x0, 4))
    assert [name for name, _ in out] == ["dtlb", "dl1", "ul2"]
    assert all(not o.hit for _, o in out)


def test_block_spanning_access_touches_both_blocks():
    h = mini(dl1="dl1:256:32:1:l")
    out = h.step(load(0x1E, 4))  # 0x1E..0x21 crosses the 0x20 boundary
    assert [name for name, _ in out] == ["dl1", "dl1"]
    assert h.caches["dl1"].accesses == 2
    assert h.step(load(0x1E, 2)) and h.caches["dl1"].accesses == 3  # no span


def test_tlb_uses_page_granularity():
    h = build()
    h.step(load(0x0, 4))
    out = h.step(load(0xF00, 4))  # same 4 KiB page, different block
    assert out[0][0] == "dtlb" and out[0][1].hit


def test_instruction_path_hits_il1_then_il2():
    h = build()
    h.step(inst(0x400000))
    out = h.step(inst(0x400000))
    assert [name for name, _ in out] == ["itlb", "il1"]
    assert all(o.hit for _, o in out)


def test_sequential_fetch_example():
    h = mini(il1="il1:256:32:1:l")
    for r in [inst(a) for a in range(0, 1024 * 4, 4)]:
        h.step(r)
    il1 = h.caches["il1"]
    assert il1.accesses == 1024
    assert il1.misses == 128  # 4 KiB at 32 B/block = 128 cold block misses
    assert il1.hits == 896


def test_dirty_eviction_forwards_write_to_l2():
    h = mini(dl1="dl1:1:32:1:l", dl2="dl2:64:32:4:l")
    h.step(store(0x00, 4))  # dl1 dirty
    out = h.step(load(0x40, 4))  # evicts dirty block 0
    names = [name for name, _ in out]
    assert names == ["dl1", "dl2", "dl2"]  # refill read, then writeback write
    assert h.caches["dl2"].accesses == 3  # cold store refill + these two
    assert h.routed["dl2"] == [2, 1]


def test_syscall_without_flush_changes_nothing():
    h = build()
    h.step(load(0x0, 4))
    before = {n: c.stats for n, c in h.caches.items()}
    h.step(syscall())
    assert {n: c.stats for n, c in h.caches.items()} == before


def test_syscall_flush_invalidates_everything():
    h = build(["-flush", "true"])
    h.step(store(0x0, 4))
    h.step(inst(0x400000))
    h.step(syscall())
    for c in h.caches.values():
        assert not c._sets
        assert c._dirty == set()
    assert h.caches["dl1"].invalidations == 1
    assert h.caches["dl1"].writebacks == 1


def test_a_cache_of_2_to_the_40_sets_holds_only_the_sets_it_touches():
    rows = gen_random(5, 0, 1 << 22, 20_000)
    tracemalloc.start()
    try:
        h = mini(dl1="dl1:1099511627776:32:1:l")
        h.run(rows, clock=lambda: 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2**40 sets never conflict over 4 MiB: only first touches miss.
    assert h.caches["dl1"].misses == len(set(data_blocks(rows, 32)))
    assert peak < 8 << 20, peak


def test_flush_between_all_records_kills_reuse():
    rng = random.Random(3)
    h = build(["-flush", "true"])
    for _ in range(300):
        h.step(load(rng.randrange(1 << 16), 1))
        h.step(syscall())
    for c in h.caches.values():
        assert c.hits == 0


def test_branches_touch_no_cache():
    h = build()
    assert h.step(branch(True)) == []
    assert h.step(branch(False)) == []
    b = h.run([], clock=lambda: 0.0).branches
    assert (b.executed, b.taken, b.not_taken) == (2, 1, 1)


def test_events_are_bus_transactions_only():
    # Direct-mapped 4 x 32 B dl1 and il1: taken branches between misses and
    # a dirty eviction add counts, never events.
    h = mini(il1="il1:4:32:1:l", dl1="dl1:4:32:1:l")
    rep = h.run([inst(0, 1), branch(True), store(0x40, 4), branch(True),
                 load(0x40 + 128, 4), branch(False), branch(True)],
                collect_events=True, clock=lambda: 0.0)
    assert [kind for kind, _, _ in h.events] == ["imiss", "dmiss", "dmiss", "writeback"]
    assert (rep.branches.taken, rep.branches.not_taken) == (3, 1)


def test_collecting_runs_add_up_to_one_run_over_their_rows():
    # Events, like the counters, accumulate over the runs of one hierarchy,
    # so account() sees as many miss events as mem_counts has misses.
    rng = random.Random(5)
    parts = [_random_trace(rng, 400), [inst(0), load(0x1000, 4)],
             [inst(0x8000), load(0x9000, 4)], _random_trace(rng, 400)]
    t = TimingSpec(core_clk_mhz=1000, bus_clk_mhz=500, miss_penalty=36,
                   wb_penalty=33, icache_penalty=45, branch_stall=1)

    def cycles(h, rep):
        b = rep.branches
        return account(h.events, t, rep.sim_num_insn, h.ops_executed, h.mem_counts["I"],
                       h.mem_counts["D"], (b.executed, b.taken, b.not_taken))

    split = mini(il1="il1:4:32:1:l", dl1="dl1:4:32:1:l")
    whole = mini(il1="il1:4:32:1:l", dl1="dl1:4:32:1:l")
    for rows in parts:
        rep = split.run(rows, collect_events=True, clock=lambda: 0.0)
    whole_rep = whole.run([r for rows in parts for r in rows], collect_events=True,
                          clock=lambda: 0.0)
    assert split.events == whole.events and len(split.events) > 4
    assert split.mem_counts == whole.mem_counts
    assert cycles(split, rep) == cycles(whole, whole_rep)


def test_run_empty_trace():
    rep = build().run([], clock=lambda: 0.0)
    assert rep.sim_num_insn == 0
    assert rep.sim_num_refs == 0
    assert all(s.accesses == 0 for s in rep.caches.values())
    assert rep.sim_elapsed_time == 1  # floored at one second
    assert rep.sim_inst_rate == 0.0


def test_run_counts_records_by_shape():
    records = [inst(0x400000 + 4 * i) for i in range(7064)]
    records += [load(8 * i, 4) for i in range(2004)] + [store(8 * i, 4) for i in range(2004)]
    rep = build().run(records, clock=lambda: 0.0)
    assert rep.sim_num_insn == 7064
    assert rep.sim_num_refs == 4008
    assert rep.sim_inst_rate == 7064.0


def test_unified_caches_reported_once_under_own_name():
    h = build()
    rep = h.run([inst(0x400000), load(0x0, 4)], clock=lambda: 0.0)
    assert "il2" not in rep.caches and "dl2" not in rep.caches
    assert rep.caches["ul2"].accesses == 2  # one refill from each L1 miss


def _random_trace(rng, n, with_flush=False, with_regions=False, addr_bits=16):
    out = []
    if with_regions:
        out.append(region("r0"))
    for i in range(n):
        k = rng.randrange(20)
        if with_regions and k == 19:
            out.append(region(f"r{rng.randrange(4)}"))
        elif with_flush and k == 18:
            out.append(syscall())
        elif k < 6:
            out.append(inst(rng.randrange(1 << addr_bits)))
        elif k < 8:
            out.append(branch(rng.random() < 0.6))
        elif k < 14:
            out.append(load(rng.randrange(1 << addr_bits), rng.choice([1, 4, 8, 64])))
        else:
            out.append(store(rng.randrange(1 << addr_bits), rng.choice([1, 4, 8, 64])))
    return out


CONFIG_SAMPLES = [
    [],
    ["-flush", "true"],
    ["-cache:il1", "il1:32:16:2:l", "-cache:dl1", "dl1:16:16:2:f",
     "-cache:dl2", "ul2:64:32:4:l", "-cache:il2", "dl2"],
    ["-cache:dl1", "ul1:64:32:2:r", "-cache:il1", "dl1"],
    ["-cache:il1", "dl2"],
    ["-cache:il2", "il2:128:64:2:l"],
    ["-cache:dl2", "none", "-cache:il2", "none"],
]


def test_ledger_identities_over_random_traces():
    rng = random.Random(101)
    for args in CONFIG_SAMPLES:
        for trial in range(4):
            h = build(args, seed=trial)
            trace = _random_trace(rng, 1500, with_flush=True, with_regions=True)
            h.run(trace, clock=lambda: 0.0)
            for name, c in h.caches.items():
                assert c.accesses == c.hits + c.misses
                refills, wbs = h.routed.get(name, (0, 0))
                assert c.accesses == h.entry_accesses[name] + refills + wbs


@pytest.mark.parametrize("row", [(1, 64, 0), (1, 64, -5), (2, 65, 0)])
def test_ledger_holds_for_rows_of_no_bytes(row):
    # run takes rows unchecked; a row of size <= 0 still touches its first
    # block once, and the ledger counts that access.
    h = build()
    h.run([row], clock=lambda: 0.0)
    assert h.caches["dl1"].accesses == 1
    for name, c in h.caches.items():
        refills, wbs = h.routed.get(name, (0, 0))
        assert c.accesses == h.entry_accesses[name] + refills + wbs, name


def test_l2_traffic_equals_l1_misses_plus_writebacks_without_flush():
    rng = random.Random(202)
    h = build()
    h.run(_random_trace(rng, 3000), clock=lambda: 0.0)
    il1, dl1, ul2 = h.caches["il1"], h.caches["dl1"], h.caches["ul2"]
    refills, wbs = h.routed["ul2"]
    assert refills == il1.misses + dl1.misses
    assert wbs == il1.writebacks + dl1.writebacks
    assert ul2.accesses == refills + wbs


def test_region_counters_sum_to_total():
    rng = random.Random(303)
    h = build(["-flush", "true"])
    trace = _random_trace(rng, 4000, with_flush=True, with_regions=True)
    rep = h.run(trace, clock=lambda: 0.0)
    total = rep.regions["TOTAL"]
    named = [r for n, r in rep.regions.items() if n != "TOTAL"]
    assert len(named) >= 2
    assert sum(r.insts for r in named) == total.insts
    assert sum(r.refs for r in named) == total.refs
    assert sum(r.branches.taken for r in named) == total.branches.taken
    assert sum(r.i_misses for r in named) == total.i_misses
    assert sum(r.d_misses for r in named) == total.d_misses
    for cname in rep.caches:
        for counter in ("accesses", "hits", "misses", "replacements",
                        "writebacks", "invalidations"):
            assert sum(getattr(r.caches[cname], counter) for r in named) == \
                getattr(total.caches[cname], counter), (cname, counter)
            assert getattr(total.caches[cname], counter) == \
                getattr(rep.caches[cname], counter)


def test_regions_match_step_outcomes_summed_per_region():
    # Regions are entered, re-entered and left for TOTAL; no syscalls,
    # because flush outcomes are not in the step() log.
    rng = random.Random(606)
    counters = ("accesses", "hits", "misses", "replacements", "writebacks")
    for args in CONFIG_SAMPLES:
        trace = []
        for _ in range(3000):
            if rng.randrange(12) == 0:
                trace.append(region(rng.choice(["r0", "r1", "r2", "TOTAL"])))
            else:
                trace += _random_trace(rng, 1)
        rep = build(args, seed=5).run(trace, clock=lambda: 0.0)

        twin = build(args, seed=5)
        want = {}
        for rec in trace:
            outcomes = twin.step(rec)
            if twin.current_region == "TOTAL":
                continue
            r = want.setdefault(twin.current_region, {
                "insts": 0, "refs": 0, "branches": 0,
                "caches": {n: dict.fromkeys(counters, 0) for n in twin.caches}})
            r["insts"] += rec.kind == "I"
            r["refs"] += rec.kind in ("L", "S")
            r["branches"] += rec.kind == "B"
            for name, o in outcomes:
                c = r["caches"][name]
                c["accesses"] += 1
                c["hits"] += o.hit
                c["misses"] += not o.hit
                c["replacements"] += o.evicted_tag is not None
                c["writebacks"] += o.evicted_dirty

        named = {n: r for n, r in rep.regions.items() if n != "TOTAL"}
        assert list(named) == list(want), args
        for name, r in named.items():
            w = want[name]
            assert (r.insts, r.refs, r.branches.executed) == \
                (w["insts"], w["refs"], w["branches"]), (args, name)
            for cname, stats in r.caches.items():
                got = {k: getattr(stats, k) for k in counters}
                assert got == w["caches"][cname], (args, name, cname)


@pytest.mark.parametrize("args", [
    ["-flush", "true"],
    ["-cache:dl1", "ul1:8:16:2:l", "-cache:il1", "dl1", "-cache:dl2", "ul2:32:32:2:l",
     "-flush", "true"],
    ["-cache:dl1", "ul1:16:32:2:r", "-cache:il1", "dl1", "-cache:dl2", "none",
     "-cache:il2", "none", "-flush", "true"],
])
def test_run_over_rows_records_and_steps_agree(args):
    # Regions are entered, re-entered and left for TOTAL, with syscalls
    # flushing every cache.
    rng = random.Random(808)
    for trial in range(3):
        trace = _random_trace(rng, 1500, with_flush=True, with_regions=True, addr_bits=12)
        for i in sorted(rng.sample(range(len(trace)), 6), reverse=True):
            trace.insert(i, region("TOTAL"))
        rows = list(decode_binary(io.BytesIO(write_trace_binary(trace))))
        assert rows == trace and all(type(r) is tuple for r in rows if r[0] <= 2)  # I, L, S

        by_rows, by_records, by_steps = (build(args, seed=trial) for _ in range(3))
        reports = [by_rows.run(rows, collect_events=True, clock=lambda: 0.0),
                   by_records.run(trace, collect_events=True, clock=lambda: 0.0)]
        by_steps.events = []
        logged = Counter(name for rec in trace for name, _ in by_steps.step(rec))
        reports.append(by_steps.run([], clock=lambda: 0.0))
        assert reports[0] == reports[1] == reports[2], (args, trial)
        assert by_rows.events == by_records.events == by_steps.events, (args, trial)
        assert logged == {n: c.accesses for n, c in reports[2].caches.items() if c.accesses}


# Small geometries, so that bursts to one block alternate with evictions.
DENSE_CONFIGS = [
    ["-cache:il1", "il1:4:16:1:l", "-cache:dl1", "dl1:4:16:2:l", "-cache:dl2", "ul2:8:32:2:l",
     "-tlb:itlb", "itlb:2:256:1:l", "-tlb:dtlb", "dtlb:2:128:2:l"],
    # A multi-way LRU itlb, whose hits on the older way reorder its set.
    ["-cache:il1", "il1:4:16:2:l", "-cache:dl1", "dl1:4:16:2:l", "-cache:dl2", "ul2:8:32:2:l",
     "-tlb:itlb", "itlb:1:256:2:l", "-tlb:dtlb", "dtlb:2:128:2:l"],
    ["-cache:il1", "il1:4:16:2:f", "-cache:dl1", "dl1:2:16:2:f", "-cache:dl2", "ul2:8:32:2:f",
     "-tlb:itlb", "itlb:1:256:2:f", "-tlb:dtlb", "dtlb:2:128:1:f"],
    ["-cache:il1", "il1:4:16:2:r", "-cache:dl1", "dl1:4:16:2:r", "-cache:dl2", "ul2:8:32:2:r",
     "-tlb:itlb", "itlb:2:256:2:r", "-tlb:dtlb", "dtlb:1:128:2:r"],
    ["-cache:dl1", "ul1:4:16:2:l", "-cache:il1", "dl1", "-cache:dl2", "ul2:8:32:2:r",
     "-tlb:dtlb", "dtlb:2:128:2:l"],
    ["-cache:il1", "il1:4:16:1:f", "-cache:dl1", "dl1:4:16:1:l", "-cache:dl2", "none",
     "-cache:il2", "none", "-tlb:itlb", "none", "-tlb:dtlb", "none"],
    # Fetches enter at ul2, which is also the L2 of the data side.
    ["-cache:il1", "dl2", "-cache:dl1", "dl1:2:16:1:l", "-cache:dl2", "ul2:4:32:2:l",
     "-tlb:itlb", "none"],
]


@st.composite
def _dense_trace(draw):
    """Rows dense in repeated blocks: fetch bursts at a 4-byte stride, loads
    then stores to one block, revisits of the older blocks of one set, spans
    over a block edge, zero-size rows, and syscalls, branches and regions
    between bursts."""
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["fetch", "block", "revisit", "span", "zero",
                                     "syscall", "branch", "region"]))
        base = draw(st.integers(0, 1 << 10))
        if kind == "fetch":
            rows += [inst(base + 4 * i) for i in range(draw(st.integers(1, 24)))]
        elif kind == "revisit":
            # A, B, A, C, 512 bytes apart: one set of every entry cache of
            # DENSE_CONFIGS, so the second A hits a way that is not the newest.
            a = base & ~15
            b, c = a + 512 * draw(st.integers(1, 3)), a + 512 * draw(st.integers(4, 6))
            for addr in (a, b, a, c):
                code = draw(st.sampled_from([0, 1, 2]))
                rows.append((code, addr, 1 if code == 0 else draw(st.integers(1, 16))))
        elif kind == "block":  # loads, then stores, inside one 16-byte block
            block = base & ~15
            for code in (1, 2):
                for _ in range(draw(st.integers(0, 5))):
                    off = draw(st.integers(0, 15))
                    rows.append((code, block + off, draw(st.integers(1, 16 - off))))
        elif kind == "span":  # ends past the edge of base's 16-byte block
            edge = (base | 15) + 1
            addr = edge - draw(st.integers(1, 8))
            rows.append((draw(st.sampled_from([1, 2])), addr,
                         edge - addr + draw(st.integers(1, 40))))
        elif kind == "zero":
            rows.append((draw(st.sampled_from([1, 2])), base, draw(st.integers(-2, 0))))
        elif kind == "syscall":
            rows.append(syscall())
        elif kind == "branch":
            rows.append(branch(draw(st.booleans())))
        else:
            rows.append(region(draw(st.sampled_from(["r0", "r1", "TOTAL"]))))
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=_dense_trace(), args=st.sampled_from(DENSE_CONFIGS), flush=st.booleans(),
       seed=st.integers(0, 3))
# The second fetch of 0 hits the older way of the one-set itlb and of il1's
# set 0, so both sets reorder; then rows of size 0 or less, whose last byte
# is in their own block (settled in place) or the block before it.
@example(rows=[inst(0), inst(512), inst(0), (1, 16, 4), (1, 17, 0), (2, 18, -1), (2, 16, 0)],
         args=DENSE_CONFIGS[1], flush=False, seed=0)
def test_run_settles_repeat_blocks_as_steps_do(rows, args, flush, seed):
    # run settles a single-block hit at an entry cache in place; step()
    # always takes the general path.  Both must count the same.
    args = args + ["-flush", "true"] if flush else args
    by_run, by_steps = build(args, seed), build(args, seed)
    rep = by_run.run(rows, collect_events=True, clock=lambda: 0.0)
    by_steps.events = []
    for row in rows:
        by_steps.step(row)
    assert rep == by_steps.run([], clock=lambda: 0.0)
    assert by_run.events == by_steps.events
    assert by_run.mem_counts == by_steps.mem_counts
    assert by_run.entry_accesses == by_steps.entry_accesses
    assert by_run.routed == by_steps.routed
    for name, c in by_run.caches.items():
        # The lines, their order and their dirty bits match.
        twin = by_steps.caches[name]
        assert (c._sets, c._dirty) == (twin._sets, twin._dirty), name
        refills, wbs = by_run.routed.get(name, (0, 0))
        assert c.accesses == by_run.entry_accesses[name] + refills + wbs, name


def _counters(h):
    """Every counter a walk adds to, per cache and for the hierarchy."""
    return ({n: (c.hits, c.misses, c.replacements, c.writebacks, c.invalidations)
             for n, c in h.caches.items()},
            h.entry_accesses, h.routed, h.mem_counts, h.events,
            (h.sim_num_insn, h.sim_num_refs, h.ops_executed),
            (h.taken_branches, h.not_taken_branches))


@settings(max_examples=100, deadline=None)
@given(rows=_dense_trace(), args=st.sampled_from(DENSE_CONFIGS), flush=st.booleans())
def test_a_walk_stopped_by_an_error_counts_the_rows_before_it(rows, args, flush):
    # The walk batches counters in locals; an error raised by the trace
    # still leaves every counter as a run over the rows before it would.
    args = args + ["-flush", "true"] if flush else args

    def failing():
        yield from rows
        raise TraceSyntaxError(len(rows) + 1, "bad record")

    stopped, prefix = build(args), build(args)
    with pytest.raises(TraceSyntaxError):
        stopped.run(failing(), collect_events=True, clock=lambda: 0.0)
    prefix.run(rows, collect_events=True, clock=lambda: 0.0)
    assert _counters(stopped) == _counters(prefix)


def test_store_settled_in_place_marks_the_line_dirty():
    # Direct-mapped dl1 of 4 sets x 32 B: b = a + 128 maps to a's set.
    # S a hits a's block in place; L b must still evict a dirty line.
    a, b = 0x40, 0x40 + 128
    h = mini(dl1="dl1:4:32:1:l")
    h.run([load(a, 4), store(a, 4), load(b, 4)], collect_events=True, clock=lambda: 0.0)
    dl1 = h.caches["dl1"]
    assert (dl1.hits, dl1.misses, dl1.writebacks) == (1, 2, 1)
    assert [kind for kind, _, _ in h.events] == ["dmiss", "dmiss", "writeback"]
    assert h.mem_counts["D"] == [3, 1, 2]


def test_store_settled_in_place_marks_the_way_it_hit():
    # One set of 2 ways: a fills way 0, b way 1, then a hits way 0 and the
    # store to a, settled in place, must mark a's block dirty, not b's.
    a, b, c = 0x00, 0x10, 0x20
    h = mini(dl1="dl1:1:16:2:l")
    h.run([load(a, 4), load(b, 4), load(a, 4), store(a, 4)], clock=lambda: 0.0)
    assert h.caches["dl1"]._dirty == {a >> 4}
    h.run([load(c, 4)], clock=lambda: 0.0)  # evicts b, the LRU line: clean
    assert h.caches["dl1"].writebacks == 0


@pytest.mark.parametrize("policy, victim", [("l", 0x10), ("f", 0x00)])
def test_run_hit_on_the_older_way_keeps_the_policy_order(policy, victim):
    # One set of 2 ways: L a, L b, L a, L c.  The second L a hits the way
    # that is not the newest, settled in place by run.  LRU makes a the
    # newest, so c evicts b; FIFO leaves the order alone, so c evicts a.
    a, b, c = 0x00, 0x10, 0x20
    h = mini(dl1=f"dl1:1:16:2:{policy}")
    h.run([load(a, 4), load(b, 4), load(a, 4), load(c, 4)], clock=lambda: 0.0)
    dl1 = h.caches["dl1"]
    assert (dl1.hits, dl1.misses, dl1.replacements) == (1, 3, 1)
    assert dl1.victim == victim >> 4
    assert sorted(dl1._sets[0]) == sorted({a >> 4, b >> 4, c >> 4} - {victim >> 4})


@pytest.mark.parametrize("by_run", [False, True])
def test_negative_address_misses_on_cold_caches(by_run):
    # The tag of a negative address is negative (-1 for -64 at dtlb, dl1 and
    # ul2); a cold cache holds no tag, so each level misses.
    h = build()
    if by_run:
        h.run([(1, -64, 4)], clock=lambda: 0.0)
    else:
        out = h.step((1, -64, 4))
        assert [(name, o.hit) for name, o in out] == [
            ("dtlb", False), ("dl1", False), ("ul2", False)]
    assert [(c.hits, c.misses) for c in (h.dtlb, *h.d_path)] == [(0, 1)] * 3


def test_a_flushed_set_misses_on_the_block_it_held():
    # A flush empties every set in place, so the walk's set test sees the
    # emptied set: the repeat of the block is a miss, not an in-place hit.
    h = build(["-flush", "true"])
    h.run([load(0x40, 4), syscall(), load(0x40, 4)], clock=lambda: 0.0)
    assert h.caches["dl1"].misses == 2
    assert h.caches["dl1"].hits == 0


def test_unified_l1_sees_both_streams():
    h = build(["-cache:dl1", "ul1:256:32:1:l", "-cache:il1", "dl1",
               "-cache:dl2", "none", "-cache:il2", "none"])
    rng = random.Random(404)
    insts = 0
    data_blocks = 0
    for _ in range(2000):
        if rng.random() < 0.5:
            h.step(inst(rng.randrange(1 << 14)))
            insts += 1
        else:
            size = rng.choice([1, 4, 64])
            addr = rng.randrange(1 << 14)
            h.step(load(addr, size))
            data_blocks += (addr + size - 1) // 32 - addr // 32 + 1
    assert h.caches["ul1"].accesses == insts + data_blocks


def test_determinism_same_seed_same_stats():
    rng = random.Random(505)
    trace = _random_trace(rng, 2000)
    args = ["-cache:dl1", "dl1:16:32:4:r", "-cache:dl2", "none", "-cache:il2", "none"]
    rep1 = build(args, seed=9).run(list(trace), clock=lambda: 0.0)
    rep2 = build(args, seed=9).run(list(trace), clock=lambda: 0.0)
    assert rep1 == rep2


def test_elapsed_time_uses_injected_clock():
    ticks = iter([10.0, 13.5])
    rep = build().run([inst(0)] * 12, clock=lambda: next(ticks))
    assert rep.sim_elapsed_time == 3
    assert rep.sim_inst_rate == 4.0


def _small_spec(name, bsizes):
    return st.builds(lambda *geom: ":".join(map(str, (name, *geom))),
                     st.sampled_from([1, 2, 4]), st.sampled_from(bsizes),
                     st.sampled_from([1, 2, 4]), st.sampled_from("lfr"))


@st.composite
def _ref_flags(draw):
    """Hierarchy flags over small LRU, FIFO and random caches: split, il1
    unified with dl1 or dl2, il2 unified or none, dl2 none, TLBs or none."""
    dl2 = draw(st.just("none") | _small_spec("ul2", [16, 32, 64]))
    il1 = draw(st.sampled_from(["dl1", "dl2", "none"]) | _small_spec("il1", [16, 32]))
    il2 = draw(st.sampled_from(["dl2", "none"]) |
               (_small_spec("il2", [16, 32, 64]) if ":" in il1 else st.nothing()))
    return {
        "-cache:dl1": draw(_small_spec("dl1", [16, 32])),
        "-cache:dl2": dl2,
        "-cache:il1": il1,
        "-cache:il2": il2,
        "-tlb:itlb": draw(st.just("none") | _small_spec("itlb", [64, 256])),
        "-tlb:dtlb": draw(st.just("none") | _small_spec("dtlb", [64, 256])),
    }


@st.composite
def _ref_rows(draw):
    """Bursts of fetches, loads and stores at a 4-byte stride (sizes up to
    40 span blocks; sizes of 0 or less touch one), branches, syscalls and
    region markers."""
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        code = draw(st.integers(0, 5))
        addr = draw(st.integers(0, 1023))
        for i in range(draw(st.integers(1, 4))):
            if code == 0:
                rows.append((0, addr + 4 * i, draw(st.integers(1, 3))))
            elif code in (1, 2):
                rows.append((code, addr + 4 * i, draw(st.integers(-1, 40))))
            elif code == 5:
                rows.append((5, 0, draw(st.sampled_from(["r0", "r1", "TOTAL"]))))
            else:
                rows.append((code, 0, int(code == 3 and draw(st.booleans()))))
    return rows


def _reference(flags, seed, flush):
    """RefCaches by name, and the RefHierarchy wiring them as ``flags`` do."""
    refs = {}

    def ref(flag):
        value = flags[flag]
        if ":" not in value:  # none, or the data level it is unified with
            return None if value == "none" else value
        name, nsets, bsize, assoc, policy = value.split(":")
        refs[name] = RefCache(int(nsets), int(bsize), int(assoc), policy,
                              cache_seed(seed, name))
        return refs[name]

    model = RefHierarchy(*map(ref, ["-cache:dl1", "-cache:dl2", "-cache:il1",
                                    "-cache:il2", "-tlb:itlb", "-tlb:dtlb"]),
                         flush_on_syscall=flush)
    return refs, model


def _build_from(flags, seed, flush):
    args = [x for flag_value in flags.items() for x in flag_value]
    return build(args + ["-flush", "true" if flush else "false"], seed)


def _ref_counts(c):
    return c.hits, c.misses, c.replacements, c.writebacks, c.invalidations


@settings(max_examples=300, deadline=None)
@given(flags=_ref_flags(), rows=_ref_rows(), flush=st.booleans(),
       seed=st.integers(-2, 2**64))
def test_run_matches_a_hierarchy_of_reference_caches(flags, rows, flush, seed):
    h = _build_from(flags, seed, flush)
    rep = h.run(rows, collect_events=True, clock=lambda: 0.0)
    refs, model = _reference(flags, seed, flush)
    model.feed(rows)

    assert {n: _ref_counts(c) for n, c in h.caches.items()} == \
        {n: _ref_counts(c) for n, c in refs.items()}
    assert h.mem_counts == model.mem
    assert (h.sim_num_insn, h.sim_num_refs, h.ops_executed) == \
        (model.insts, model.refs, model.ops)
    b = rep.branches
    assert [b.executed, b.taken, b.not_taken] == model.branches
    assert h.events == model.events


@settings(max_examples=200, deadline=None)
@given(flags=_ref_flags(), rows=_ref_rows(), flush=st.booleans(),
       seed=st.integers(0, 3), data=st.data())
def test_run_and_step_interleaved_match_one_reference_run(flags, rows, flush, seed, data):
    # The rows, cut at drawn points, go alternately through run and step on
    # one hierarchy: a step after a run logs every access of its record,
    # and a run after a step settles only true repeats in place.
    h = _build_from(flags, seed, flush)
    h.events = []
    refs, model = _reference(flags, seed, flush)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        if data.draw(st.booleans(), label="step"):
            for row in rows[lo:hi]:
                before = {n: c.hits + c.misses for n, c in refs.items()}
                logged = Counter(name for name, _ in h.step(row))
                model.feed([row])
                assert logged == {n: c.hits + c.misses - before[n]
                                  for n, c in refs.items() if c.hits + c.misses > before[n]}
        else:
            h.run(rows[lo:hi], clock=lambda: 0.0)
            model.feed(rows[lo:hi])
        assert {n: _ref_counts(c) for n, c in h.caches.items()} == \
            {n: _ref_counts(c) for n, c in refs.items()}

    ledger = {n: model.ledger[c] for n, c in refs.items()}
    assert h.entry_accesses == {n: counts["entry"] for n, counts in ledger.items()}
    assert {n: v for n, v in h.routed.items() if v != [0, 0]} == \
        {n: [counts["refill"], counts["writeback"]] for n, counts in ledger.items()
         if counts["refill"] or counts["writeback"]}
    assert h.mem_counts == model.mem
    assert h.events == model.events
    assert (h.sim_num_insn, h.sim_num_refs, h.ops_executed) == \
        (model.insts, model.refs, model.ops)


def _dense_flags(args):
    """DENSE_CONFIGS arguments as the six level flags, defaults filled in."""
    flags = {**DEFAULT_HIERARCHY_ARGS, **dict(zip(args[::2], args[1::2]))}
    del flags["-flush"]
    return flags


@settings(max_examples=150, deadline=None)
@given(rows=_dense_trace(), args=st.sampled_from(DENSE_CONFIGS), flush=st.booleans(),
       seed=st.integers(0, 3))
def test_dense_rows_match_a_hierarchy_of_reference_caches(rows, args, flush, seed):
    # Rows dense in hits on every way of a set, against caches that make
    # every access by a call.
    flags = _dense_flags(args)
    h = _build_from(flags, seed, flush)
    h.run(rows, collect_events=True, clock=lambda: 0.0)
    refs, model = _reference(flags, seed, flush)
    model.feed(rows)
    assert {n: _ref_counts(c) for n, c in h.caches.items()} == \
        {n: _ref_counts(c) for n, c in refs.items()}
    assert h.entry_accesses == {n: model.ledger[c]["entry"] for n, c in refs.items()}
    assert h.mem_counts == model.mem
    assert h.events == model.events


def _timing_specs():
    """TimingSpecs with fractional core/bus clock ratios."""
    return st.builds(
        lambda bus, extra, **kw: TimingSpec(core_clk_mhz=bus + extra, bus_clk_mhz=bus, **kw),
        st.integers(1, 400), st.integers(0, 1000),
        miss_penalty=st.integers(0, 50), wb_penalty=st.integers(0, 40),
        icache_penalty=st.integers(0, 50), branch_stall=st.integers(0, 3),
        mem_width=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]))


@settings(max_examples=300, deadline=None)
@given(flags=_ref_flags(), rows=_ref_rows(), flush=st.booleans(),
       seed=st.integers(0, 3), t=_timing_specs())
def test_account_matches_a_cycle_stepped_bus(flags, rows, flush, seed, t):
    # The cycle model over the walk's bus transactions, against a bus that
    # is stepped a core cycle at a time over the reference hierarchy's.
    h = _build_from(flags, seed, flush)
    rep = h.run(rows, collect_events=True, clock=lambda: 0.0)
    b = rep.branches
    got = account(h.events, t, rep.sim_num_insn, h.ops_executed, h.mem_counts["I"],
                  h.mem_counts["D"], (b.executed, b.taken, b.not_taken))
    _, model = _reference(flags, seed, flush)
    model.feed(rows)
    assert {**got._asdict(), "imem": got.imem._asdict(), "dmem": got.dmem._asdict(),
            "branch": got.branch._asdict()} == ref_cycles(model, t)


@st.composite
def _marker_dense_rows(draw):
    """Fetches, loads, stores, branches and syscalls with a region marker,
    often naming the region already active, before nearly every one."""
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.booleans()):
            rows.append(region(draw(st.sampled_from(["a", "b", "TOTAL"]))))
        code = draw(st.integers(0, 4))
        addr = draw(st.integers(0, 1023))
        if code == 0:
            rows.append((0, addr, draw(st.integers(1, 3))))
        elif code in (1, 2):
            rows.append((code, addr, draw(st.integers(1, 40))))
        else:
            rows.append((code, 0, int(code == 3 and draw(st.booleans()))))
    return rows


def _region_vector(r):
    """A RegionCounters as one flat tuple: record and miss counts, then the
    six counters of each cache."""
    return (r.insts, r.ops, r.refs, r.branches.executed, r.branches.taken,
            r.branches.not_taken, r.i_misses, r.d_misses,
            *(getattr(c, k) for c in r.caches.values()
              for k in ("accesses", "hits", "misses", "replacements", "writebacks",
                        "invalidations")))


def _counter_vector(h):
    """The hierarchy's counters in _region_vector order."""
    return (h.sim_num_insn, h.ops_executed, h.sim_num_refs,
            h.taken_branches + h.not_taken_branches, h.taken_branches,
            h.not_taken_branches, h.mem_counts["I"][2], h.mem_counts["D"][2],
            *(v for c in h.caches.values()
              for v in (c.accesses, c.hits, c.misses, c.replacements, c.writebacks,
                        c.invalidations)))


@settings(max_examples=150, deadline=None)
@given(rows=_marker_dense_rows(), args=st.sampled_from(DENSE_CONFIGS), flush=st.booleans())
def test_a_marker_naming_the_active_region_changes_nothing(rows, args, flush):
    args = args + ["-flush", "true"] if flush else args
    active, kept = "TOTAL", []
    for row in rows:
        if row[0] == 5:
            if row[2] == active:
                continue
            active = row[2]
        kept.append(row)
    rep = build(args).run(rows, clock=lambda: 0.0)
    assert rep == build(args).run(kept, clock=lambda: 0.0)

    # Per-record counter changes, summed by the region each record ran in
    # as the markers name it: the named regions are the report's, and with
    # the stretches in no named region they sum to TOTAL.
    twin = build(args)
    active, by_region = "TOTAL", {"TOTAL": [0] * len(_counter_vector(twin))}
    for row in rows:
        if row[0] == 5:
            active = row[2]
            by_region.setdefault(active, [0] * len(by_region["TOTAL"]))
        before = _counter_vector(twin)
        twin.step(row)
        acc = by_region[active]
        acc[:] = [x + after - b for x, after, b in zip(acc, _counter_vector(twin), before)]
    unnamed = by_region.pop("TOTAL")
    named = {n: _region_vector(r) for n, r in rep.regions.items() if n != "TOTAL"}
    assert named == {n: tuple(v) for n, v in by_region.items()}
    assert [sum(col) for col in zip(unnamed, *named.values())] == \
        list(_region_vector(rep.regions["TOTAL"]))
