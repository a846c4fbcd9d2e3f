"""Seeded end-to-end and per-layer benchmark of the cachesim command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--workload NAME]   tiny traces, both modes
    python3 bench/run.py --baseline          the one-million-record layer table

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/``.  For each workload the benchmark writes a seeded
trace with the package's public constructors (not timed), then runs the
``cachesim`` CLI as a child process, one at a time, for ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (the
median spawn-to-exit seconds of one CLI run), ``wall_s_tail`` (the 75th
percentile of the same runs; a run takes 40 or more, so that ten lie beyond
it, unless the host is too slow to fit 40 into ``--seconds`` + 10 s),
``records_per_s`` (trace records
/ ``wall_s``), ``peak_rss_mb`` (the child's peak resident memory) and
``setup_s`` (the median of the same command on a zero-record trace of
the same format); it also prints ``failed_share``.  With ``--trace 1`` it
instead reproduces each CLI run in a traced child (``traced.py``) and
reports the per-layer metrics, in unscaled host seconds.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end times are host seconds scaled to a reference speed.  The
shared 2-core host this benchmark was tuned on switches every few seconds
between its full speed and states up to about two times slower, so raw medians
of 30-second windows spread by 0.22 to 0.32 of their value over ten
seeds.  Each iteration therefore runs a fixed reference load
(``refload.py``) between the workload run and the zero-record run, and
both are scaled by ``REF_NOMINAL_S`` over the load's measured time (for
a workload run, the mean of the loads just before and just after it).  Raw
host medians are printed beside the scaled figures.

Every CLI output is checked: byte-identical across repetitions at one
seed, model identities, and agreement with independent reference models
(``checks.py``, ``prepare.py``).  A run that exits non-zero or fails a
check counts as failed; the run still ends within its time limits and
reports ``correct: false``.  The modelled caches start empty in every run.
The model is unvalidated against hardware: it agrees with independent
models only, so no error figure is reported.

Scratch files go to ``.bench_work/`` in the checkout; the spans, digests
and samples of each run are kept in ``.bench_work/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"

from checks import CHECKS  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS, cli_args  # noqa: E402

CLI = "from cachesim.cli import run_main; run_main()"
CHILD_TIMEOUT_S = 20  # seconds before a hung child is killed; a CLI run takes < 1 s
OVERTIME_S = 10  # seconds past --seconds after which no new iteration starts
E2E_MIN_SAMPLES = 40  # so that ten samples lie beyond the 75th percentile
LAYER_MIN_SAMPLES = 11
SMOKE_MIN_SAMPLES = 3
REF_LOAD = [sys.executable, "-S", str(BENCH / "refload.py")]
REF_NOMINAL_S = 0.12  # refload.py's time on the tuning host at its full speed

END_TO_END = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

CACHE_NAMES = ("il1", "dl1", "ul2", "itlb", "dtlb", "icache", "dcache")
PER_LAYER = {
    "trace.decode_s": "s",
    "trace.records": "count",
    "trace.bytes_per_record": "B/record",
    "cache.access_ns": "ns",
    **{f"cache.{c}.{k}": "count" for c in CACHE_NAMES
       for k in ("accesses", "misses", "writebacks")},
    "hierarchy.build_s": "s",
    "hierarchy.run_s": "s",
    "hierarchy.ns_per_record": "ns",
    "hierarchy.region_overhead_s": "s",
    "hierarchy.step_s": "s",
    "hierarchy.events": "count",
    "timing.account_s": "s",
    "timing.events_mb": "MiB",
    "timing.total_cycles": "cycles",
    "timing.stall_cycles": "cycles",
    "timing.bus_conflict_cycles": "cycles",
    "timing.bus_busy_cycles": "cycles",
    "sweep.lru_set_s": "s",
    "sweep.lru_fa_s": "s",
    "sweep.opt_s": "s",
    "sweep.passes": "count",
    "sweep.block_refs": "count",
    "sweep.lru_misses_sum": "count",
    "sweep.opt_misses_sum": "count",
    "report.render_s": "s",
    "cli.self_s": "s",
    "bench.tracing_overhead_s": "s",
}

# Spans of the traced child that are calls into a layer, as opposed to the
# CLI's own work between them.
LAYER_SPANS = ("hierarchy.build", "trace.decode", "hierarchy.run", "timing.account",
               "sweep.stack_distances", "sweep.opt", "report.render")


class BenchError(Exception):
    pass


def conditions(seed):
    load1, load5, load15 = os.getloadavg()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [load1, load5, load15],
        "caches": "every modelled cache starts empty in every run",
        "validation": "unvalidated against hardware; agrees with independent "
                      "reference models only, so no error figure is reported",
        "times": "end-to-end: host seconds scaled by the reference load; per-layer: "
                 "unscaled host seconds; cycles are simulated",
    }


def spawn(argv, log, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion through ``launch.py``:
    (spawn-to-exit seconds, peak RSS MiB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = log.with_suffix(".rusage")
    result.unlink(missing_ok=True)
    with open(log, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-S", "-I", str(BENCH / "launch.py"),
                                 str(result), str(timeout), *argv],
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait()
        except BaseException:
            proc.terminate()  # the launcher kills its child, then exits
            proc.wait()
            raise
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"launcher exited {proc.returncode}: "
                         + log.read_text(errors="replace")[-300:])
    wall, rss_kib, code = result.read_text().split()
    return float(wall), int(rss_kib) / 1024, int(code)


def _p75(samples):
    return statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else samples[0]


def _loop_done(start, seconds, done, tried, min_samples):
    """Whether a measuring loop stops: once ``seconds`` are spent and it has
    ``min_samples`` good samples, or twice as many tries when runs fail;
    and in any case ``OVERTIME_S`` past ``seconds``."""
    spent = time.perf_counter() - start
    return (spent >= seconds + OVERTIME_S
            or spent >= seconds and (done >= min_samples or tried >= 2 * min_samples))


class WorkloadRun:
    """One workload at one seed: its inputs, its checked runs, its tallies."""

    def __init__(self, w, seed, smoke):
        self.w = w
        self.seed = seed
        self.run_id = f"{w.name}-seed{seed}-pid{os.getpid()}"
        self.dir = WORK / self.run_id
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}  # trace name -> sha256 of the first output
        self.verdict = None  # problems the full checks found in the first workload output
        self.records = w.smoke_records if smoke else w.records

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        _, _, code = spawn([sys.executable, str(BENCH / "prepare.py"), self.w.name,
                            str(self.seed), str(self.records), str(self.dir)],
                           self.dir / "prepare.log", timeout=60)
        if code != 0:
            raise BenchError(f"preparing {self.w.name} failed:\n"
                             + (self.dir / "prepare.log").read_text(errors="replace"))
        self.expected = json.loads((self.dir / "expected.json").read_text())
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def _check_output(self, key, text):
        """Compare an output with the first of its kind; the first workload
        output also gets the full checks, whose verdict identical bytes carry."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            return [f"{key} output differs from the first run at this seed"]
        if key != "trace":
            return []
        if self.verdict is None:
            self.verdict = CHECKS[self.w.command](text, self.expected)
        return self.verdict

    def cli(self, key):
        """One checked CLI run on trace ``key`` ("trace" or "empty").
        Returns (wall seconds, peak RSS MiB, whether it passed)."""
        self.attempted += 1
        trace = self.dir / f"{key}{self.w.ext}"
        out = self.dir / f"{key}.out"
        out.unlink(missing_ok=True)
        args = cli_args(self.w, trace, self.dir / "vex.cfg", out)
        wall, rss, code = spawn([sys.executable, "-c", CLI, *args], self.dir / "cli.log")
        if code != 0:
            log = (self.dir / "cli.log").read_text(errors="replace").strip()
            self.fail(f"cachesim exited {code} on {key}: {log[-300:]}")
            return wall, rss, False
        problems = (self._check_output(key, out.read_text(encoding="utf-8"))
                    if out.is_file() else ["no output file written"])
        if problems:
            self.fail(f"{key}: " + "; ".join(problems[:5]))
            return wall, rss, False
        return wall, rss, True

    def reference(self):
        """Seconds of one run of the reference load."""
        wall, _, code = spawn(REF_LOAD, self.dir / "refload.log")
        if code != 0:
            raise BenchError("the reference load failed: "
                             + (self.dir / "refload.log").read_text(errors="replace")[-300:])
        return wall

    def traced(self, mode, index, *extra, timeout=CHILD_TIMEOUT_S):
        """One traced child; returns (spawn-to-exit seconds, its result) or None."""
        self.attempted += 1
        result = self.dir / f"{mode}{index}.json"
        wall, _, code = spawn([sys.executable, str(BENCH / "traced.py"), mode,
                               str(self.dir), self.w.name, self.run_id, str(result),
                               *map(str, extra)], self.dir / "traced.log", timeout)
        if code != 0:
            log = (self.dir / "traced.log").read_text(errors="replace").strip()
            self.fail(f"traced {mode} exited {code}: {log[-300:]}")
            return None
        res = json.loads(result.read_text())
        if mode == "repro":
            text = (self.dir / f"{result.stem}.out").read_text(encoding="utf-8")
            problems = self._check_output("trace", text)
            problems = problems + self._check_counts(res["counts"])
            if problems:
                self.fail("traced reproduction: " + "; ".join(problems[:5]))
                return None
        return wall, res

    def _check_counts(self, counts):
        """The traced cache counters against the reference models; the CLI
        prints no writeback count for vexsim, so this is where it is checked."""
        problems = []
        for name, want in self.expected.get("caches", {}).items():
            for k in ("accesses", "misses", "writebacks"):
                got = counts.get(f"cache.{name}.{k}")
                if got != want[k]:
                    problems.append(f"cache.{name}.{k}: got {got}, expected {want[k]}")
        return problems

    def results_record(self, trace_mode, metrics, extra):
        return {"run": self.run_id, "workload": self.w.name, "seed": self.seed,
                "trace": trace_mode, "records": self.records,
                "attempted": self.attempted, "failed": self.failed,
                "problems": self.problems,
                "digests": self.digests, "metrics": metrics, **extra}


def measure_end_to_end(run, seconds, min_samples):
    """Iterations of a workload run, the reference load and a zero-record
    run.  A workload run is scaled by the mean of the two reference loads
    that bracket it, a zero-record run by the one just before it.
    The figures come from the iterations whose two CLI runs passed, or from
    all iterations when none did (the result is then marked incorrect)."""
    start = time.perf_counter()
    run.cli("trace")  # warm-up: bytecode caches, page cache; checked, not sampled
    run.cli("empty")
    before = run.reference()
    rows = []  # (workload wall, peak RSS, reference before, reference after,
    #            zero-record wall, passed)
    while True:
        wall, rss, ok = run.cli("trace")
        after = run.reference()
        empty, _, empty_ok = run.cli("empty")
        rows.append((wall, rss, before, after, empty, ok and empty_ok))
        before = after
        good = [r for r in rows if r[5]]
        if _loop_done(start, seconds, len(good), len(rows), min_samples):
            break
    used = good or rows
    walls = [w * REF_NOMINAL_S / ((b + a) / 2) for w, _, b, a, _, _ in used]
    setup = [e * REF_NOMINAL_S / a for _, _, _, a, e, _ in used]
    wall = statistics.median(walls)
    tail = _p75(walls)
    metrics = {
        "wall_s": wall,
        "wall_s_tail": tail,
        "records_per_s": run.expected["records"] / wall,
        "peak_rss_mb": statistics.median(r[1] for r in used),
        "setup_s": statistics.median(setup),
    }

    def host(i):
        return statistics.median(row[i] for row in used)

    kind = "passing" if good else "failed"
    notes = {
        "wall_s": f"median of {len(used)} {kind} runs; host median {host(0):.4f} s, "
                  f"reference load median {host(3):.4f} s",
        "wall_s_tail": f"p75 of {len(used)} runs, {sum(w > tail for w in walls)} beyond it",
        "records_per_s": f"{run.expected['records']} records / wall_s",
        "setup_s": f"median of {len(used)} zero-record runs; host median {host(4):.4f} s",
    }
    return metrics, notes, {"samples": rows}


def _span_total(spans, name, pred=lambda s: True):
    """Seconds in spans called ``name``; 0.0 where the workload bypasses the layer."""
    return sum((s["end"] - s["start"] for s in spans if s["name"] == name and pred(s)), 0.0)


def measure_layers(run, seconds, min_samples):
    """Pairs of an untraced CLI run and a traced reproduction, then the
    layer-only timings with the time left.  When every reproduction or the
    layer timing failed, the metrics they feed are reported as 0."""
    start = time.perf_counter()
    run.cli("trace")  # warm-up
    walls, traced_walls, repros = [], [], []
    k = 0
    while k == 0 or not _loop_done(start, 0.6 * seconds, k, k, min_samples):
        wall, _, ok = run.cli("trace")
        if ok:
            walls.append(wall)
        t = run.traced("repro", k)
        if t:
            traced_walls.append(t[0])
            repros.append(t[1])
        k += 1
    budget = max(0.5, seconds - (time.perf_counter() - start))
    layer = run.traced("layers", 0, f"{budget:.3f}", timeout=budget + 60)
    counts = repros[0]["counts"] if repros else {}
    for r in repros[1:]:
        if r["counts"] != counts:
            run.fail("simulated counts differ between traced runs")

    def med(name, pred=lambda s: True):
        return statistics.median([_span_total(r["spans"], name, pred) for r in repros] or [0.0])

    def layer_total(spans):
        root = next(s["id"] for s in spans if s["name"] == "cli")
        return sum(s["end"] - s["start"] for s in spans
                   if s["parent"] == root and s["name"] in LAYER_SPANS)

    wall = statistics.median(walls) if walls else 0.0
    run_s = med("hierarchy.run")
    lm = layer[1]["metrics"] if layer else {}
    metrics = {name: counts.get(name, 0) for name, unit in PER_LAYER.items()
               if unit in ("count", "cycles")}
    records = counts.get("trace.records", 0)
    metrics.update({
        "trace.decode_s": med("trace.decode"),
        "trace.bytes_per_record": lm.get("trace.bytes_per_record", 0.0),
        "cache.access_ns": lm.get("cache.access_ns", 0.0),
        "hierarchy.build_s": med("hierarchy.build"),
        "hierarchy.run_s": run_s,
        "hierarchy.ns_per_record": run_s / records * 1e9 if records else 0.0,
        "hierarchy.region_overhead_s": lm.get("hierarchy.region_overhead_s", 0.0),
        "hierarchy.step_s": lm.get("hierarchy.step_s", 0.0),
        "timing.account_s": med("timing.account"),
        "timing.events_mb": lm.get("timing.events_mb", 0.0),
        "sweep.lru_set_s": med("sweep.stack_distances", lambda s: s["nsets"] > 1),
        "sweep.lru_fa_s": med("sweep.stack_distances", lambda s: s["nsets"] == 1),
        "sweep.opt_s": med("sweep.opt"),
        "report.render_s": med("report.render"),
        "cli.self_s": wall - statistics.median(
            [layer_total(r["spans"]) for r in repros] or [0.0]),
        "bench.tracing_overhead_s": statistics.median(traced_walls or [wall]) - wall,
    })
    names = {name for r in repros for name in self_times(r["spans"])}
    self_s = {name: statistics.median(self_times(r["spans"]).get(name, 0.0) for r in repros)
              for name in sorted(names)}
    notes = {"cli.self_s": f"untraced host median {wall:.6f} s of {len(walls)} runs "
                           f"minus layer spans",
             "bench.tracing_overhead_s": f"traced median of {len(traced_walls)} "
                                         f"minus untraced median"}
    spans = [s for r in repros for s in r["spans"]] + (layer[1]["spans"] if layer else [])
    return metrics, notes, {"spans": spans, "self_s": self_s,
                            "samples": {"wall_s": walls, "traced_wall_s": traced_walls}}


def bench_workload(w, seed, seconds, trace_mode, smoke):
    """Run one workload in one mode; returns (metrics, units, attempted, failed)."""
    min_samples = (SMOKE_MIN_SAMPLES if smoke
                   else LAYER_MIN_SAMPLES if trace_mode else E2E_MIN_SAMPLES)
    with WorkloadRun(w, seed, smoke) as run:
        measure = measure_layers if trace_mode else measure_end_to_end
        metrics, notes, extra = measure(run, seconds, min_samples)
        units = PER_LAYER if trace_mode else END_TO_END
        for name, value in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{w.name} {name} {value!r} {units[name]}{note}")
        share = run.failed / run.attempted
        print(f"{w.name} failed_share {share!r} share  ({run.failed} of {run.attempted} runs)")
        print(f"{w.name} digests {json.dumps(run.digests)}")
        if "self_s" in extra:
            print(f"{w.name} self_s {json.dumps(extra['self_s'])}")
        for p in run.problems:
            print(f"{w.name} FAILED {p}")
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{run.run_id}-trace{trace_mode}.json").write_text(
            json.dumps(run.results_record(trace_mode, metrics, extra)))
        return metrics, units, run.attempted, run.failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny traces, end-to-end and traced, for --workload (default all)")
    p.add_argument("--baseline", action="store_true",
                   help="time each layer on the one-million-record mix")
    args = p.parse_args(argv)

    missing = [f for f in ("src/cachesim/cli.py", "tests/reference.py")
               if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a complete checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    cond = conditions(args.seed)
    print("conditions " + json.dumps(cond))
    if args.baseline:
        import baseline

        return baseline.main(ROOT, WORK, cond)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.smoke else (args.trace,)
    seconds = 0.3 if args.smoke else args.seconds
    multi = len(names) * len(modes) > 1
    out = {}
    attempted = failed = 0
    try:
        for name in names:
            for mode in modes:
                metrics, units, a, f = bench_workload(WORKLOADS[name], args.seed,
                                                      seconds, mode, args.smoke)
                attempted += a
                failed += f
                for m, v in metrics.items():
                    out[f"{name}/{m}" if multi else m] = {"value": v, "unit": units[m]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
