"""Traced runs: the benchmark's per-layer measurements.

    python3 bench/traced.py repro  <workdir> <workload> <run_id> <result.json>
    python3 bench/traced.py layers <workdir> <workload> <run_id> <result.json> <budget_s>

``repro`` does what one ``cachesim`` CLI run of the workload does, with
the package's public functions, and records a span around each layer
call.  It decodes the whole trace before simulating, where the CLI
streams, so that decoding and simulation time apart.  It writes the same
report bytes as the CLI, which the caller compares, plus the spans and
the simulated counts.

``layers`` times what a CLI run does not show on its own: the region
attribution overhead, the public ``Hierarchy.step`` path, one public
``Cache.access`` call, the size of a materialized record list and of the
bus event list.  It repeats its timings until ``budget_s`` is spent and
reports medians.

Each mode runs in its own process, so run.py never holds
a trace and the spawn-to-exit time of ``repro`` compares with a CLI run.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

from cachesim import (  # noqa: E402
    Cache,
    Hierarchy,
    HierarchySpec,
    TOTAL_REGION,
    SweepRow,
    TimingSpec,
    account,
    belady_misses,
    block_refs,
    main_memory_latency,
    misses_for_assoc,
    parse_hierarchy_args,
    parse_vex_cfg,
    read_trace_path,
    render_region_profile,
    render_simcache,
    render_sweep_table,
    render_vex_summary,
    stack_distances,
)


def _fixed_clock():
    """The clock ``--clock 1`` injects: 0.0, then 1.0 for ever after."""
    ticks = iter((0.0, 1.0))
    return lambda: next(ticks, 1.0)


def _sim_config(workdir):
    first, nxt = wl.SIM_MEM_LAT
    base = TimingSpec(mem_lat_first=first, mem_lat_next=nxt,
                      mem_width=wl.SIM_MEM_WIDTH).validate()
    return parse_hierarchy_args([]), base


def _vex_config(workdir):
    dcache, icache, t = parse_vex_cfg((workdir / "vex.cfg").read_text(encoding="utf-8"))
    return HierarchySpec(il1=icache, dl1=dcache), t


def _simulate(tr, w, workdir, records_of):
    """sim and vexsim: build, decode, run, account, render."""
    with tr.span("hierarchy.build"):
        with tr.span("config.parse"):
            hspec, t = (_sim_config if w.command == "sim" else _vex_config)(workdir)
        h = Hierarchy(hspec, 1)
    records = records_of()
    with tr.span("hierarchy.run"):
        report = h.run(records, collect_events=True, clock=_fixed_clock())
    with tr.span("timing.account"):
        if w.command == "sim":
            ib, db = h.boundary("I"), h.boundary("D")
            t = replace(t, icache_penalty=main_memory_latency(t, ib.bsize) if ib else 0,
                        miss_penalty=main_memory_latency(t, db.bsize) if db else 0,
                        num_caches=len(h.caches))
        b = report.branches
        cycles = account(h.events, t, report.sim_num_insn, h.ops_executed,
                         h.mem_counts["I"], h.mem_counts["D"],
                         (b.executed, b.taken, b.not_taken))
    with tr.span("report.render"):
        parts = [render_simcache(report)] if w.command == "sim" else []
        parts.append(render_vex_summary(cycles, t.core_clk_mhz))
        if any(name != TOTAL_REGION for name in report.regions):
            parts.append(render_region_profile(report, t))
        text = "\n".join(parts)
    counts = {"trace.records": len(records), "hierarchy.events": len(h.events),
              "timing.total_cycles": cycles.total_cycles,
              "timing.stall_cycles": cycles.stall_cycles,
              "timing.bus_conflict_cycles":
                  cycles.imem.stall_bus_conflict + cycles.dmem.stall_bus_conflict,
              "timing.bus_busy_cycles": cycles.bus_busy_cycles}
    for name, st in report.caches.items():
        for k in ("accesses", "misses", "writebacks"):
            counts[f"cache.{name}.{k}"] = getattr(st, k)
    return text, counts


def _sweep(tr, w, workdir, records_of):
    """sweep --opt: one stack-distance pass per geometry, then OPT rows."""
    records = records_of()
    geometries = [(n, b) for n in wl.SWEEP_SETS for b in wl.SWEEP_BSIZES]
    passes = refs = 0
    rows = []
    for nsets, bsize in geometries:
        with tr.span("sweep.stack_distances", nsets=nsets, bsize=bsize):
            hist = stack_distances(records, nsets, bsize)
        total = hist.total
        passes, refs = passes + 1, refs + total
        for assoc in wl.SWEEP_ASSOCS:
            misses = misses_for_assoc(hist, assoc)
            rows.append(SweepRow(nsets, bsize, assoc, misses,
                                 misses / total if total else 0.0, "lru"))
    for nsets, bsize in geometries:
        with tr.span("sweep.opt", nsets=nsets, bsize=bsize):
            total = sum(1 for _ in block_refs(records, bsize))
            for assoc in wl.SWEEP_ASSOCS:
                misses = belady_misses(records, nsets, bsize, assoc)
                rows.append(SweepRow(nsets, bsize, assoc, misses,
                                     misses / total if total else 0.0, "opt"))
        passes, refs = passes + 1 + len(wl.SWEEP_ASSOCS), refs + total * (1 + len(wl.SWEEP_ASSOCS))
    with tr.span("report.render"):
        text = render_sweep_table(rows)
    counts = {"trace.records": len(records), "sweep.passes": passes,
              "sweep.block_refs": refs,
              "sweep.lru_misses_sum": sum(r.misses for r in rows if r.policy == "lru"),
              "sweep.opt_misses_sum": sum(r.misses for r in rows if r.policy == "opt")}
    return text, counts


def repro(workdir, name, run_id, result):
    w = wl.WORKLOADS[name]
    tr = Tracer(run_id)
    trace = workdir / f"trace{w.ext}"

    def records_of():
        with tr.span("trace.decode"):
            return list(read_trace_path(trace))

    with tr.span("cli"):
        text, counts = (_sweep if w.command == "sweep" else _simulate)(
            tr, w, workdir, records_of)
        (workdir / f"{result.stem}.out").write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    result.write_text(json.dumps({"digest": digest, "counts": counts, "spans": tr.spans}))


def _entry_stream(records, d_spec):
    """Addresses entering the level-1 caches, block by block, as the
    hierarchy issues them: (is_data, address, write)."""
    out = []
    dshift = d_spec.bsize.bit_length() - 1
    for r in records:
        if r.kind == "I":
            out.append((False, r.addr, False))
        elif r.kind in ("L", "S"):
            for b in range(r.addr >> dshift, ((r.addr + r.size - 1) >> dshift) + 1):
                out.append((True, b << dshift, r.kind == "S"))
    return out


def _time(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def layers(workdir, name, run_id, result, budget):
    w = wl.WORKLOADS[name]
    tr = Tracer(run_id)
    trace = workdir / f"trace{w.ext}"
    deadline = time.perf_counter() + budget
    out = {}
    with tr.span("trace.materialize"):
        tracemalloc.start()
        records = list(read_trace_path(trace))
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
    out["trace.bytes_per_record"] = size / len(records)
    if w.command == "sweep":
        result.write_text(json.dumps({"metrics": out, "spans": tr.spans}))
        return

    hspec, _ = (_sim_config if w.command == "sim" else _vex_config)(workdir)
    h = Hierarchy(hspec, 1)
    h.run(records, collect_events=True, clock=_fixed_clock())
    events = h.events
    out["timing.events_mb"] = (sys.getsizeof(events)
                               + sum(sys.getsizeof(e) for e in events)) / 2**20
    del h, events

    spec_i, spec_d = hspec.il1, hspec.dl1
    stream = _entry_stream(records, spec_d)
    stripped = [r for r in records if r.kind != "R"]
    has_regions = len(stripped) != len(records)

    def replay():
        caches = (Cache(spec_i), Cache(spec_d))
        for is_data, addr, write in stream:
            caches[is_data].access(addr, write)

    def run(recs):
        return lambda: Hierarchy(hspec, 1).run(recs, collect_events=True,
                                              clock=_fixed_clock())

    def step():
        h = Hierarchy(hspec, 1)
        for r in records:
            h.step(r)

    samples = {"access": [], "run": [], "run_noregions": [], "step": []}
    while not samples["access"] or time.perf_counter() < deadline:
        with tr.span("cache.access_replay"):
            samples["access"].append(_time(replay))
        if has_regions:
            with tr.span("hierarchy.run_regions"):
                samples["run"].append(_time(run(records)))
            with tr.span("hierarchy.run_noregions"):
                samples["run_noregions"].append(_time(run(stripped)))
        if w.command == "sim":
            with tr.span("hierarchy.step"):
                samples["step"].append(_time(step))
    med = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    out["cache.access_ns"] = med["access"] / len(stream) * 1e9
    out["hierarchy.region_overhead_s"] = med["run"] - med["run_noregions"]
    out["hierarchy.step_s"] = med["step"]
    result.write_text(json.dumps({"metrics": out, "spans": tr.spans}))


def main(argv):
    mode, workdir, name, run_id, result = argv[:5]
    if mode == "repro":
        repro(Path(workdir), name, run_id, Path(result))
    else:
        layers(Path(workdir), name, run_id, Path(result), float(argv[5]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
