"""Render simulation results in three text shapes plus CSV/JSON.

* ``render_simcache``: classic per-counter statistics lines,
  ``<cache>.<counter> <value> # <description>``.
* ``render_vex_summary``: cycle breakdown with stall decomposition,
  branch statistics and bus bandwidth.
* ``render_region_profile``: flat per-region profile table sorted by
  attributed cycles.

Rates render with 4 decimals, percentages with 2.  Every rendered figure
rounds half-up at its stated precision, because the reference outputs this
package reproduces are used as golden anchors in tests; negative zero is
never rendered.
"""

from .trace import TOTAL_REGION


def fixed(value, places):
    """Render a number with a fixed decimal count, rounding the shortest
    ``repr`` of its float half-up (away from zero) in integer arithmetic."""
    text = repr(float(value))
    if text[-1] in "fn":  # inf, nan
        raise ValueError(f"cannot render {text} with fixed decimals")
    mant, _, exp = text.lstrip("-").partition("e")
    whole, _, frac = mant.partition(".")
    q = int(whole + frac)  # |value| * 10**places is q / 10**shift
    shift = len(frac) - int(exp or 0) - places
    if shift > 0:
        q, rest = divmod(q, 10**shift)
        q += 2 * rest >= 10**shift
    else:
        q *= 10**-shift
    digits = str(q).rjust(places + 1, "0")
    sign = "-" if q and text[0] == "-" else ""  # never a negative zero
    return sign + (f"{digits[:-places]}.{digits[-places:]}" if places else digits)


def pct(numer, denom):
    """Two-decimal percentage string, 0 when the denominator is 0."""
    return fixed(0.0 if denom == 0 else 100.0 * numer / denom, 2)


_COUNTERS = (
    ("accesses", "total number of accesses"),
    ("hits", "total number of hits"),
    ("misses", "total number of misses"),
    ("replacements", "total number of replacements"),
    ("writebacks", "total number of writebacks"),
    ("invalidations", "total number of invalidations"),
)
_RATES = (
    ("miss_rate", "miss rate (i.e., misses/ref)"),
    ("repl_rate", "replacement rate (i.e., repls/ref)"),
    ("wb_rate", "writeback rate (i.e., wrbks/ref)"),
    ("inv_rate", "invalidation rate (i.e., invs/ref)"),
)


def _stat_line(key, value, desc):
    return f"{key:<17} {value} # {desc}"


def render_simcache(report) -> str:
    """Per-counter statistics text of a SimReport; byte-stable for
    identical reports."""
    lines = ["sim: ** simulation statistics **"]
    lines.append(_stat_line("sim_num_insn", report.sim_num_insn,
                            "total number of instructions executed"))
    lines.append(_stat_line("sim_num_refs", report.sim_num_refs,
                            "total number of loads and stores executed"))
    if report.branches.executed > 0:
        lines.append(_stat_line("sim_num_branches", report.branches.executed,
                                "total number of branches executed"))
        lines.append(_stat_line("sim_num_taken", report.branches.taken,
                                "total number of taken branches"))
        lines.append(_stat_line("sim_num_not_taken", report.branches.not_taken,
                                "total number of not-taken branches"))
    lines.append(_stat_line("sim_elapsed_time", report.sim_elapsed_time,
                            "total simulation time in seconds"))
    lines.append(_stat_line("sim_inst_rate", fixed(report.sim_inst_rate, 4),
                            "simulation speed (in insts/sec)"))
    for name, stats in report.caches.items():
        for counter, desc in _COUNTERS:
            lines.append(_stat_line(f"{name}.{counter}", getattr(stats, counter), desc))
        for rate, desc in _RATES:
            lines.append(_stat_line(f"{name}.{rate}", fixed(getattr(stats, rate), 4), desc))
    return "\n".join(lines) + "\n"


def _row(label, value, suffix=""):
    return f"{label:<28} {value}{suffix}"


def _paren_pct(numer, denom, width=6):
    return f" ({pct(numer, denom):>{width}}%)"


def _mem_block(title, rep, show_access_pct):
    def share(label, count, whole):
        """A row with count's share of whole, or with no share when whole is 0."""
        return _row(label, count, _paren_pct(count, whole) if whole > 0 else "")

    acc, st = rep.accesses, rep.stall_total
    return [f"{title} Operations:",
            share("  Accesses:", acc, acc if show_access_pct else 0),
            share("  Hits (Hit Rate):", rep.hits, acc),
            share("  Misses (Miss Rate):", rep.misses, acc),
            f"{title} Stall Cycles",
            share("  Total (in cycles):", st, st),
            share("  Due to Misses:", rep.stall_miss, st),
            share("  Due to Bus Conflicts:", rep.stall_bus_conflict, st)]


def render_vex_summary(report, core_clk_mhz=None) -> str:
    """Cycle accounting summary of a CycleReport in the single-level
    simulator's shape."""
    total = report.total_cycles
    ops = report.executed_operations
    insts = report.execution_cycles
    br = report.branch
    lines = []
    if core_clk_mhz:
        msec = fixed(total / (core_clk_mhz * 1000.0), 6)
        lines.append(_row("Total Cycles:", total, f" ({msec} msec)"))
    else:
        lines.append(_row("Total Cycles:", total))
    lines.append(_row("Execution Cycles:", insts, _paren_pct(insts, total)))
    lines.append(_row("Stall Cycles:", report.stall_cycles,
                      _paren_pct(report.stall_cycles, total)))
    lines.append(_row("Executed operations:", ops))
    lines.append("")
    lines.append(_row("Executed branches:", br.executed,
                      f" ({pct(br.executed, ops):>6}% ops)({pct(br.executed, insts):>5}% insts)"))
    for label, count in (("Not taken branches:", br.not_taken),
                         ("Taken branches:", br.taken)):
        lines.append(_row(label, count,
                          f" ({pct(count, ops):>6}% ops)({pct(count, insts):>5}% insts)"
                          f"({pct(count, br.executed):>5}% br)"))
    lines.append(_row("Branch Stall Cycles:", br.branch_stall_cycles))
    lines.append("")
    lines.extend(_mem_block("Instruction Memory", report.imem, False))
    lines.append("")
    lines.extend(_mem_block("Data Memory", report.dmem, True))
    lines.append("")
    lines.append(f"Percentage Bus Bandwidth Consumed: {fixed(report.bandwidth_pct, 2)}%")
    return "\n".join(lines) + "\n"


def render_region_profile(report, t) -> str:
    """Flat profile of a SimReport under TimingSpec ``t``: per-region
    cycles attributed to instructions, data-side misses, instruction-side
    misses and taken branches, with percentages against the TOTAL region.
    Rows sort by total cycles descending."""
    totals = report.regions[TOTAL_REGION]
    named = {n: r for n, r in report.regions.items() if n != TOTAL_REGION}
    rows_src = named if named else {TOTAL_REGION: totals}

    def cycles_of(r):
        d = r.d_misses * t.miss_penalty
        i = r.i_misses * t.icache_penalty
        total = r.insts + d + i + r.branches.taken * t.branch_stall
        return total, r.insts, d, i

    t_total, t_insts, t_d, t_i = cycles_of(totals)
    rows = []
    for name, r in rows_src.items():
        total, insts, d, i = cycles_of(r)
        rows.append((total, insts, d, i, name))
    rows.sort(key=lambda row: (-row[0], row[4]))

    lines = ["Flat profile (cycles)"]
    lines.append(f"{'Total':>8} {'Total%':>7} {'Insts':>8} {'Insts%':>7} "
                 f"{'Dcache':>8} {'Dcache%':>7} {'Icache':>8} {'Icache%':>7}  Region")
    for total, insts, d, i, name in rows:
        lines.append(f"{total:>8} {pct(total, t_total):>7} "
                     f"{insts:>8} {pct(insts, t_insts):>7} "
                     f"{d:>8} {pct(d, t_d):>7} "
                     f"{i:>8} {pct(i, t_i):>7}  {name}")
    return "\n".join(lines) + "\n"


def _is_report(obj):
    """Whether ``obj`` is a SimReport or a CycleReport; only an object that
    is not a SimReport loads the timing layer to tell."""
    from .hierarchy import SimReport

    if isinstance(obj, SimReport):
        return True
    from .timing import CycleReport

    return isinstance(obj, CycleReport)


def _plain(value):
    """A result, and the results and dicts it holds, as dicts in field order."""
    if isinstance(value, tuple):  # a named tuple
        value = value._asdict()
    return {k: _plain(v) for k, v in value.items()} if isinstance(value, dict) else value


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out.append((prefix, value))


def _csv(rows):
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _sweep_rows(rows, rate):
    """Header and cells of the sweep table, led by a policy column when any
    row has one; ``rate`` renders each miss rate."""
    policy = any(r.policy is not None for r in rows)
    yield (["policy"] if policy else []) + ["nsets", "bsize", "assoc", "misses", "miss_rate"]
    for r in rows:
        yield (([r.policy or "lru"] if policy else [])
               + [r.nsets, r.bsize, r.assoc, r.misses, rate(r.miss_rate)])


def render_sweep_table(rows) -> str:
    """The sweep rows, led by a policy column when any row has one."""
    table = list(_sweep_rows(rows, lambda rate: fixed(rate, 6)))
    widths = (6,) * (len(table[0]) - 2) + (10, 10)
    return "".join(" ".join(f"{cell:>{w}}" for cell, w in zip(row, widths)) + "\n"
                   for row in table)


def export(obj, fmt: str) -> str:
    """Serialize losslessly a SimReport, a CycleReport, a dict of such
    reports by name (one combined document), or a list of SweepRows.

    JSON is the report's or row's fields (a sweep row without a policy omits it);
    CSV is one ``key,value`` line per flattened field, or for sweep rows
    the table ``render_sweep_table`` prints, one row per line."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported format {fmt!r}: use 'csv' or 'json'")
    d = None
    if isinstance(obj, list):  # each branch loads only the classes it tests
        from .stack import SweepRow

        if all(isinstance(r, SweepRow) for r in obj):
            if fmt == "csv":
                return _csv(_sweep_rows(obj, repr))
            d = [{k: v for k, v in r._asdict().items() if v is not None} for r in obj]
    elif all(map(_is_report, obj.values() if isinstance(obj, dict) else (obj,))):
        d = _plain(obj)
    if d is None:
        raise TypeError(f"cannot export object of type {type(obj).__name__}")
    if fmt == "json":
        import json

        return json.dumps(d, indent=2) + "\n"
    rows = [("key", "value")]
    _flatten("", d, rows)
    return _csv(rows)
