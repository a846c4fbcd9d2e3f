"""The layer table on the one-million-record mix of acceptance criterion 9.

    python3 bench/run.py --baseline

The mix is an L1-resident loop (600,064 loads in 4 KiB), an L1-thrashing
but L2-resident loop (299,008 loads in 64 KiB) and random loads over
1 MiB, exactly as criterion 9 builds it.  Each layer is called in this
process on the materialized records and timed with ``time.perf_counter``;
the reported figure is the median of ``REPEAT`` calls, one call for the
slow public ``Hierarchy.step`` path.  Fully-associative
``stack_distances`` is timed on the first ``FA_PREFIX`` records only,
because the whole mix takes about a minute; the prefix is stated in the
output.  Host seconds throughout, unscaled.  The output goes to
``.bench_work/results/baseline.json``; ``bench/results/baseline.json`` is
the copy taken when the benchmark was introduced.
"""

import json
import statistics
import sys
import time
import tracemalloc

REPEAT = 3
FA_PREFIX = 700_000  # records; the whole 4 KiB loop and part of the 64 KiB loop


def _mix():
    from cachesim import gen_loop, gen_random

    records = gen_loop(0, 4 * 1024, 4688, 32)
    records += gen_loop(0, 64 * 1024, 146, 32)
    records += gen_random(1, 0, 1 << 20, 1_000_000 - len(records))
    return records


def _timed(fn, repeat):
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main(root, work, conditions):
    sys.path.insert(0, str(root / "src"))
    from cachesim import (Hierarchy, belady_misses, parse_hierarchy_args, parse_trace,
                          parse_trace_binary, stack_distances, write_trace,
                          write_trace_binary)

    records = _mix()
    text_lines = write_trace(records).splitlines(keepends=True)
    data = write_trace_binary(records)
    spec = parse_hierarchy_args([])

    def run():
        Hierarchy(spec, 1).run(records, clock=lambda: 0.0)

    def step():
        h = Hierarchy(spec, 1)
        for r in records:
            h.step(r)

    tracemalloc.start()
    materialized = list(parse_trace_binary(data))
    list_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del materialized

    rows = [
        ("Hierarchy.run, default hierarchy, 1M records", _timed(run, REPEAT), "s"),
        ("Hierarchy.step (public API), same records", _timed(step, 1), "s"),
        ("parse_trace (text)", _timed(lambda: list(parse_trace(text_lines)), REPEAT), "s"),
        ("parse_trace_binary", _timed(lambda: list(parse_trace_binary(data)), REPEAT), "s"),
        ("stack_distances(nsets=64, bsize=32)",
         _timed(lambda: stack_distances(records, 64, 32), REPEAT), "s"),
        (f"stack_distances(nsets=1, bsize=32), first {FA_PREFIX} records",
         _timed(lambda: stack_distances(records[:FA_PREFIX], 1, 32), 1), "s"),
        ("belady_misses(64, 32, 4)",
         _timed(lambda: belady_misses(records, 64, 32, 4), REPEAT), "s"),
        ("Materialized TraceRecord list (tracemalloc), 1M records", list_bytes / 1e6, "MB"),
    ]
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:10.3f} {unit}")
    out = {"conditions": conditions, "records": len(records), "repeat": REPEAT,
           "fa_prefix": FA_PREFIX,
           "rows": [{"layer": n, "value": v, "unit": u} for n, v, u in rows]}
    (work / "results").mkdir(parents=True, exist_ok=True)
    path = work / "results" / "baseline.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"written to {path.relative_to(root)}")
    return 0
