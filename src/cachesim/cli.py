"""Command-line driver: simulate, vexsim, sweep and gen.

Exit codes: 0 success, 1 usage or command-line configuration error,
2 input-file error (trace or vex.cfg, with line numbers).

The ``sim`` subcommand keeps the classic single-dash flag vocabulary
(``-cache:dl1 dl1:256:32:1:l``); subcommand-specific options use ``--``
style.  When any of the memory-timing flags is given, ``sim`` appends a
cycle-accounting summary whose per-side miss penalties are the main-memory
latency of one block transfer at that side's memory-boundary cache.

Each command imports the layers it runs, so ``sweep`` loads no hierarchy,
cache or timing module, ``sim`` without a memory-timing flag no timing
module, and ``sim``/``vexsim`` no stack module.

The ``cachesim`` script (``run_main``) flushes stdout and stderr once a
command returns, then ends the process with ``os._exit``, so it runs no
``atexit`` handler and skips the interpreter's teardown, which cost about
10 ms of a 0.13 s ``vexsim`` run.  Code that embeds the CLI calls
``main(argv)``, which returns the exit code and leaves the process running.
"""

import math
import os
import sys
import warnings

from .config import (
    DEFAULT_HIERARCHY_ARGS,
    ConfigError,
    HierarchySpec,
    is_pow2,
    parse_hierarchy_args,
    parse_vex_cfg,
)
from .trace import TOTAL_REGION, TraceSyntaxError, gen_loop, gen_random, gen_sequential, \
    read_rows, write_trace, write_trace_path

USAGE = """\
usage: cachesim <command> [options]

commands:
  sim    [flags] <trace>               simulate a cache/TLB hierarchy over a trace
  vexsim [flags] <vex.cfg> <trace>     one-level simulation with cycle accounting
  sweep  [flags] <trace>               misses of every assoc, one pass per geometry
  gen    <kind> [flags]                generate a synthetic trace

sim flags (defaults shown):
# -cache:dl1     dl1:256:32:1:l # l1 data cache config, i.e., {<config>|none}
# -cache:dl2     ul2:1024:64:4:l # l2 data cache config, i.e., {<config>|none}
# -cache:il1     il1:256:32:1:l # l1 inst cache config, i.e., {<config>|dl1|dl2|none}
# -cache:il2     dl2 # l2 instruction cache config, i.e., {<config>|dl2|none}
# -tlb:itlb      itlb:16:4096:4:l # instruction TLB config, i.e., {<config>|none}
# -tlb:dtlb      dtlb:32:4096:4:l # data TLB config, i.e., {<config>|none}
# -flush         false # flush caches on system calls
# -mem:lat       18 2 # main memory access latency (first, rest)
# -mem:width     8 # width of memory bus in bytes
# -seed          1 # random number generator seed

sim and vexsim flags (defaults shown):
# --format       text # output format, one of {text|csv|json}
# --out          <null> # write the report to a file instead of stdout
# --clock        <null> # fixed elapsed seconds, for reproducible output

the cache config <config> has the format <name>:<nsets>:<bsize>:<assoc>:<repl>
  <name>  - name of the cache being defined
  <nsets> - number of sets in the cache
  <bsize> - block size of the cache
  <assoc> - associativity of the cache
  <repl>  - block replacement strategy, 'l'-LRU, 'f'-FIFO, 'r'-random
cache levels can be unified by pointing il1 at dl1 or dl2, or il2 at dl2

sweep flags:
  --sets N[,N...]   --bsize N[,N...]   --assoc N[,N...]   --opt
  --format {text|csv|json}   --out PATH
gen kinds and flags:
  sequential --start A --count N --stride S
  loop       --base A --ws BYTES --iters N --stride S
  random     --seed N --base A --range BYTES --count N
  common     --out PATH  (.ct text, .ctb binary; stdout when omitted)

trace records: 'I <hex> [ops]', 'L <hex> <size>', 'S <hex> <size>',
'B <T|N>', 'Y' (syscall), 'R <name>' (region marker), '#' comments
"""


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print(USAGE, file=sys.stderr)
        return 1
    cmd = args[0]
    if cmd in ("-h", "--help", "help"):
        print(USAGE)
        return 0
    handlers = {"sim": _cmd_sim, "vexsim": _cmd_vexsim,
                "sweep": _cmd_sweep, "gen": _cmd_gen}
    try:
        if cmd not in handlers:
            raise _UsageError(f"unknown command {cmd!r}")
        return handlers[cmd](args[1:])
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 1
    except (TraceSyntaxError, ConfigError, OSError) as exc:
        # Command-line config strings raise _UsageError at the parse site;
        # a ConfigError arriving here came from an input file.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main():
    """The ``cachesim`` console script: run ``main()`` on ``sys.argv``.

    Once stdout and stderr are flushed (a stream that is ``None``, its
    descriptor closed at start, is skipped), ``os._exit`` ends the process:
    no ``atexit`` handler runs, and the interpreter's teardown, 10.5-12.1 ms
    of a 0.12 s ``vexsim`` launch, is skipped.  If a flush raises, as on a
    pipe whose reader has gone, ``sys.exit`` ends the run, so the teardown
    reports it and exits 120 as before.  Code that embeds the CLI calls
    ``main(argv)``, which returns the exit code and leaves the process running.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


def _int(tok):
    return int(tok, 0)


def _ints(tok):
    return [int(t) for t in tok.split(",") if t]


def _seconds(tok):
    v = float(tok)
    if not math.isfinite(v) or v < 0:
        raise ValueError(tok)
    return v


def _format(tok):
    if tok not in ("text", "csv", "json"):
        raise ValueError(tok)
    return tok


_WANTED = {_int: "an integer", _ints: "a comma-separated integer list",
           _seconds: "a finite number >= 0", _format: "text, csv or json"}

_HIER_FLAGS = tuple(DEFAULT_HIERARCHY_ARGS)
# gen kind -> (generator, {flag: default, or None if required}), the flags
# in the generator's parameter order.
_GEN_KINDS = {
    "sequential": (gen_sequential, {"start": 0, "count": None, "stride": 32}),
    "loop": (gen_loop, {"base": 0, "ws": None, "iters": None, "stride": 32}),
    "random": (gen_random, {"seed": 1, "base": 0, "range": None, "count": None}),
}
_GEN_FLAGS = tuple(dict.fromkeys(f"--{f}" for _, params in _GEN_KINDS.values() for f in params))

# flag -> (options key, number of values, converter of each value)
_OPTIONS = {
    **{f: (f, 1, str) for f in _HIER_FLAGS},
    **{f: (f[2:], 1, _int) for f in _GEN_FLAGS},
    "-mem:lat": ("mem_lat", 2, _int),
    "-mem:width": ("mem_width", 1, _int),
    "-seed": ("seed", 1, _int),
    "--format": ("fmt", 1, _format),
    "--out": ("out", 1, str),
    "--clock": ("clock", 1, _seconds),
    "--sets": ("sets", 1, _ints),
    "--bsize": ("bsizes", 1, _ints),
    "--assoc": ("assocs", 1, _ints),
    "--opt": ("opt", 0, None),
}
_RUN_FLAGS = ("--format", "--out", "--clock")


def _parse(args, flags, names):
    """Parse ``args`` against the option table, accepting only ``flags``
    and exactly one positional argument per entry of ``names``.  Returns
    (options by key, positional arguments)."""
    opts = {}
    positional = []
    i = 0
    while i < len(args):
        a = args[i]
        if a in flags:
            key, arity, conv = _OPTIONS[a]
            toks = args[i + 1 : i + 1 + arity]
            if len(toks) < arity:
                raise _UsageError(f"{a} is missing its value")
            try:
                vals = [conv(t) for t in toks]
            except ValueError:
                raise _UsageError(f"{a} needs {_WANTED[conv]}, got {' '.join(toks)!r}") from None
            opts[key] = True if arity == 0 else vals[0] if arity == 1 else tuple(vals)
            i += 1 + arity
        elif a.startswith("-") and a != "-":
            raise _UsageError(f"unknown flag {a!r}")
        else:
            positional.append(a)
            i += 1
    if len(positional) != len(names):
        raise _UsageError(f"expected {' '.join(names)}, got {len(positional)} argument(s)")
    return opts, positional


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _make_clock(fixed_elapsed):
    if fixed_elapsed is None:
        import time

        return time.time
    ticks = iter((0.0, float(fixed_elapsed)))
    return lambda: next(ticks, float(fixed_elapsed))


def _simulate(h, t, opts, trace_path, simcache):
    """Run the trace through ``h``, account cycles under timing ``t`` when
    it is given, and emit the report.  Text output leads with the classic
    statistics when ``simcache`` is set, then the cycle summary and, for a
    trace with named regions, the region profile."""
    from .report import export, render_region_profile, render_simcache, render_vex_summary

    report = h.run(read_rows(trace_path), collect_events=t is not None,
                   clock=_make_clock(opts.get("clock")))
    cycles = None
    if t is not None:
        from .timing import account

        cycles = account(h.events, t, report.sim_num_insn, h.ops_executed,
                         h.mem_counts["I"], h.mem_counts["D"], report.branches)
    fmt = opts.get("fmt", "text")
    if fmt != "text":
        text = export(report if cycles is None else {"sim": report, "cycles": cycles}, fmt)
    else:
        parts = [render_simcache(report)] if simcache else []
        if cycles is not None:
            parts.append(render_vex_summary(cycles, t.core_clk_mhz))
            if any(name != TOTAL_REGION for name in report.regions):
                parts.append(render_region_profile(report, t))
        text = "\n".join(parts)
    _emit(text, opts.get("out"))
    return 0


def _cmd_sim(args) -> int:
    opts, (trace_path,) = _parse(
        args, _HIER_FLAGS + ("-mem:lat", "-mem:width", "-seed") + _RUN_FLAGS,
        ("<trace>",))
    from .hierarchy import Hierarchy

    given = {"mem_width": opts["mem_width"]} if "mem_width" in opts else {}
    if "mem_lat" in opts:
        given["mem_lat_first"], given["mem_lat_next"] = opts["mem_lat"]
    try:
        hspec = parse_hierarchy_args([x for f in _HIER_FLAGS if f in opts for x in (f, opts[f])])
        if given:  # only a timing flag loads the timing layer
            from .timing import TimingSpec, main_memory_latency

            base = TimingSpec(**given).validate()  # the flags not given keep their defaults
    except ConfigError as exc:
        raise _UsageError(str(exc)) from None

    h = Hierarchy(hspec, opts.get("seed", 1))
    t = None
    if given:
        def penalty(side):  # one block from main memory at the side's boundary cache
            c = h.boundary(side)
            return main_memory_latency(base, c.bsize) if c else 0

        t = TimingSpec(**given, icache_penalty=penalty("I"), miss_penalty=penalty("D"))
    return _simulate(h, t, opts, trace_path, simcache=True)


def _cmd_vexsim(args) -> int:
    opts, (cfg_path, trace_path) = _parse(args, _RUN_FLAGS, ("<vex.cfg>", "<trace>"))
    from .hierarchy import Hierarchy

    with open(cfg_path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{cfg_path} line {line_no}: not valid UTF-8") from None
    try:
        with warnings.catch_warnings():  # restores showwarning on exit
            warnings.simplefilter("always")
            warnings.showwarning = lambda msg, *_: print(f"warning: {cfg_path} {msg}",
                                                         file=sys.stderr)
            dcache, icache, t = parse_vex_cfg(text)
    except ConfigError as exc:
        # Name the file: "<path> line N: ..." like the warnings, else "<path>: ...".
        sep = " " if str(exc).startswith("line ") else ": "
        raise ConfigError(f"{cfg_path}{sep}{exc}") from None
    return _simulate(Hierarchy(HierarchySpec(il1=icache, dl1=dcache)), t, opts, trace_path,
                     simcache=False)


def _cmd_sweep(args) -> int:
    opts, (trace_path,) = _parse(
        args, ("--sets", "--bsize", "--assoc", "--opt", "--format", "--out"), ("<trace>",))
    from .report import export, render_sweep_table
    from .stack import sweep

    sets, bsizes, assocs = (opts.get(k) for k in ("sets", "bsizes", "assocs"))
    if not sets or not bsizes or not assocs:
        raise _UsageError("sweep needs --sets, --bsize and --assoc")
    for flag, values in (("--sets", sets), ("--bsize", bsizes), ("--assoc", assocs)):
        for v in values:
            if not is_pow2(v):
                raise _UsageError(f"{flag} values must be powers of two, got {v}")

    rows = sweep(read_rows(trace_path), [(n, b) for n in sets for b in bsizes],
                 assocs, opt=opts.get("opt", False))
    fmt = opts.get("fmt", "text")
    _emit(render_sweep_table(rows) if fmt == "text" else export(rows, fmt), opts.get("out"))
    return 0


def _cmd_gen(args) -> int:
    flags, (kind,) = _parse(args, _GEN_FLAGS + ("--out",), ("<kind>",))
    out = flags.pop("out", None)
    if kind not in _GEN_KINDS:
        raise _UsageError(f"unknown generator kind {kind!r}")
    generator, params = _GEN_KINDS[kind]
    missing = [f for f, default in params.items() if default is None and f not in flags]
    if missing:
        raise _UsageError(f"gen {kind} needs --" + ", --".join(missing))
    foreign = [f for f in flags if f not in params]
    if foreign:
        raise _UsageError(f"gen {kind} does not take --" + ", --".join(foreign))
    try:
        records = generator(*(flags.get(f, default) for f, default in params.items()))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    if out is None:
        sys.stdout.write(write_trace(records))
    else:
        write_trace_path(out, records)
    return 0
