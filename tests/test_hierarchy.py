import random

import pytest

from cachesim import (
    Hierarchy,
    HierarchySpec,
    branch,
    inst,
    load,
    parse_cache_spec,
    parse_hierarchy_args,
    region,
    store,
    syscall,
)


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


def test_fully_unified_l1_shares_one_object():
    h = build(["-cache:dl1", "ul1:256:32:1:l", "-cache:il1", "dl1",
               "-cache:dl2", "none", "-cache:il2", "none"])
    assert list(h.caches) == ["ul1", "itlb", "dtlb"]
    assert h.i_path == h.d_path


def test_single_cache_hierarchy():
    h = build(["-cache:il1", "none", "-cache:il2", "none",
               "-cache:dl2", "none", "-tlb:itlb", "none", "-tlb:dtlb", "none"])
    assert list(h.caches) == ["dl1"]


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
        assert all(t == -1 for tags in c._tags for t in tags)
    assert h.caches["dl1"].invalidations == 1
    assert h.caches["dl1"].writebacks == 1


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
    assert (h.branches.executed, h.branches.taken, h.branches.not_taken) == (2, 1, 1)


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
