"""Output checks: parse the CLI's text reports and test them.

Each ``check_*`` function returns a list of problems, empty when the
output is right.  Two kinds of test are made:

* model identities that hold for any trace: accesses = hits + misses per
  cache, named regions sum to the TOTAL region, total cycles = execution
  + stall cycles, OPT <= LRU per row, and LRU and OPT misses do not rise
  with associativity;
* agreement with the oracle answers ``prepare.py`` computed from the
  independent reference models in ``tests/reference.py``.

Byte-identical output across repetitions is checked by the caller, which
compares digests.
"""

import re

from workloads import SWEEP_ASSOCS, SWEEP_BSIZES, SWEEP_SETS

_STAT = re.compile(r"^(\S+)\s+(\S+) # ")
_ROW = re.compile(r"^\s*([A-Za-z][^:(]*?)(?: \([^)]*\))?:\s+(\d+)")


def parse_simcache(text):
    """``name value`` pairs of the classic statistics lines, as ints
    where the value is an integer."""
    out = {}
    for line in text.splitlines():
        m = _STAT.match(line)
        if m:
            v = m.group(2)
            out[m.group(1)] = int(v) if v.isdigit() else v
    return out


def parse_vex_summary(text):
    """Integer rows of the cycle summary, keyed by label; memory-side rows
    are prefixed ``I.`` or ``D.``."""
    out = {}
    side = ""
    for line in text.splitlines():
        if line.startswith("Flat profile"):
            break
        if line.startswith("Instruction Memory"):
            side = "I."
        elif line.startswith("Data Memory"):
            side = "D."
        m = _ROW.match(line)
        if m:
            label = m.group(1).strip()
            out[(side if line.startswith(" ") else "") + label] = int(m.group(2))
    return out


def parse_profile(text):
    """Rows of the flat region profile: name -> (total, insts, dcache, icache)."""
    lines = text.splitlines()
    try:
        start = lines.index("Flat profile (cycles)") + 2
    except ValueError:
        return {}
    rows = {}
    for line in lines[start:]:
        f = line.split()
        if len(f) != 9:
            break
        rows[f[8]] = (int(f[0]), int(f[2]), int(f[4]), int(f[6]))
    return rows


def parse_sweep(text):
    """Rows of the sweep table: (policy, nsets, bsize, assoc) -> misses."""
    rows = {}
    for line in text.splitlines()[1:]:
        f = line.split()
        if len(f) == 6:
            rows[(f[0], int(f[1]), int(f[2]), int(f[3]))] = int(f[4])
    return rows


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


def _check_cycles(s, exp, problems):
    """Identities and oracle values of a cycle summary."""
    if not s:
        problems.append("no cycle summary in the output")
        return
    _expect(problems, "total cycles", s["Total Cycles"],
            s["Execution Cycles"] + s["Stall Cycles"])
    _expect(problems, "execution cycles", s["Execution Cycles"], exp["sim_num_insn"])
    _expect(problems, "executed operations", s["Executed operations"], exp["ops"])
    _expect(problems, "taken branches", s["Taken branches"], exp["taken"])
    _expect(problems, "not taken branches", s["Not taken branches"], exp["not_taken"])
    _expect(problems, "branch stall", s["Branch Stall Cycles"],
            exp["taken"] * exp["branch_stall"])
    side_stall = 0
    for side, key, pen in (("I", "imem", "i_penalty"), ("D", "dmem", "d_penalty")):
        acc, hits, misses = exp[key]
        _expect(problems, f"{side} accesses", s[f"{side}.Accesses"], acc)
        _expect(problems, f"{side} hits", s[f"{side}.Hits"], hits)
        _expect(problems, f"{side} misses", s[f"{side}.Misses"], misses)
        _expect(problems, f"{side} accesses = hits + misses", s[f"{side}.Accesses"],
                s[f"{side}.Hits"] + s[f"{side}.Misses"])
        _expect(problems, f"{side} stall due to misses", s[f"{side}.Due to Misses"],
                misses * exp[pen])
        _expect(problems, f"{side} stall total", s[f"{side}.Total"],
                s[f"{side}.Due to Misses"] + s[f"{side}.Due to Bus Conflicts"])
        side_stall += s[f"{side}.Total"]
    _expect(problems, "stall cycles", s["Stall Cycles"],
            side_stall + s["Branch Stall Cycles"])


def _check_profile(text, s, exp, problems):
    """Named regions partition the trace, so their rows sum to TOTAL."""
    rows = parse_profile(text)
    want = exp["regions"]
    _expect(problems, "profiled regions", sorted(rows), sorted(want))
    if not rows or not s:
        return
    total = [sum(r[k] for r in rows.values()) for k in range(4)]
    _expect(problems, "region insts sum", total[1], s["Execution Cycles"])
    _expect(problems, "region dcache sum", total[2], s["D.Due to Misses"])
    _expect(problems, "region icache sum", total[3], s["I.Due to Misses"])
    _expect(problems, "region total sum", total[0],
            total[1] + total[2] + total[3] + s["Branch Stall Cycles"])
    for name, (insts, i_miss, d_miss) in want.items():
        if name in rows:
            _expect(problems, f"region {name}", rows[name][1:],
                    (insts, d_miss * exp["d_penalty"], i_miss * exp["i_penalty"]))


def check_sim(text, exp):
    problems = []
    st = parse_simcache(text)
    _expect(problems, "sim_num_insn", st.get("sim_num_insn"), exp["sim_num_insn"])
    _expect(problems, "sim_num_refs", st.get("sim_num_refs"), exp["sim_num_refs"])
    for name, want in exp["caches"].items():
        got = {k: st.get(f"{name}.{k}") for k in want}
        _expect(problems, f"{name} counters", got, want)
        _expect(problems, f"{name} accesses = hits + misses", got["accesses"],
                (got["hits"] or 0) + (got["misses"] or 0))
    s = parse_vex_summary(text[text.find("Total Cycles:"):]) if "Total Cycles:" in text else {}
    _check_cycles(s, exp, problems)
    _check_profile(text, s, exp, problems)
    return problems


def check_vexsim(text, exp):
    problems = []
    s = parse_vex_summary(text)
    _check_cycles(s, exp, problems)
    if "Flat profile" in text:
        problems.append("region profile printed for a trace without regions")
    return problems


def check_sweep(text, exp):
    problems = []
    rows = parse_sweep(text)
    want_rows = 2 * len(SWEEP_SETS) * len(SWEEP_BSIZES) * len(SWEEP_ASSOCS)
    _expect(problems, "sweep rows", len(rows), want_rows)
    for nsets in SWEEP_SETS:
        for bsize in SWEEP_BSIZES:
            cold = exp["distinct_blocks"][str(bsize)]
            prev = {"lru": None, "opt": None}
            for assoc in SWEEP_ASSOCS:
                lru = rows.get(("lru", nsets, bsize, assoc))
                opt = rows.get(("opt", nsets, bsize, assoc))
                if lru is None or opt is None:
                    problems.append(f"missing row {nsets}/{bsize}/{assoc}")
                    continue
                where = f"{nsets} sets, {bsize} B, {assoc} ways"
                if opt > lru:
                    problems.append(f"OPT {opt} > LRU {lru} at {where}")
                if opt < cold:
                    problems.append(f"OPT {opt} below {cold} compulsory misses at {where}")
                for policy, misses in (("lru", lru), ("opt", opt)):
                    if prev[policy] is not None and misses > prev[policy]:
                        problems.append(f"{policy} misses rise with associativity at {where}")
                    prev[policy] = misses
    for nsets, bsize, assoc, misses in exp["sample"]:
        _expect(problems, f"LRU misses at {nsets}/{bsize}/{assoc} vs RefCache",
                rows.get(("lru", nsets, bsize, assoc)), misses)
    return problems


CHECKS = {"sim": check_sim, "vexsim": check_vexsim, "sweep": check_sweep}
