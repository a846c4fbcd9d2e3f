import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cachesim import branch, inst, load, region, store, syscall, write_trace_path
from cachesim.cli import _OPTIONS, USAGE, main

GOLDEN = Path(__file__).parent / "golden"

VEX_CFG = """\
CoreCkFreq      1000
BusCkFreq       500
lg2CacheSize    16
lg2Sets         2
lg2LineSize     5
MissPenalty     36
WBPenalty       33
lg2ICacheSize   15
lg2ICacheSets   0
lg2ICacheLineSize 6
ICachePenalty   45
NumCaches       1
BranchStall     1
"""

TRACE = """\
R main
I 400000
I 400004
L 1000 4
S 1000 4
B T
B N
Y
L 2000 8
I 400008 2
"""


@pytest.fixture
def trace_file(tmp_path):
    p = tmp_path / "t.ct"
    p.write_text(TRACE)
    return str(p)


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "vex.cfg"
    p.write_text(VEX_CFG)
    return str(p)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "-cache:dl1" in out
    assert "dl1:256:32:1:l" in out


def test_no_args_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_command(capsys):
    code, _, err = run_cli(capsys, "simulate")
    assert code == 1
    assert "unknown command" in err


def test_sim_default_run(capsys, trace_file):
    code, out, _ = run_cli(capsys, "sim", "--clock", "0", trace_file)
    assert code == 0
    assert "sim: ** simulation statistics **" in out
    assert "sim_num_insn      3 " in out
    assert "sim_num_refs      3 " in out
    assert "il1.accesses" in out and "dl1.accesses" in out and "ul2.accesses" in out
    assert "Total Cycles" not in out  # no timing flags, no cycle block


def test_sim_flags_match_spelled_out_defaults(capsys, trace_file):
    _, short, _ = run_cli(capsys, "sim", "--clock", "0", trace_file)
    _, long, _ = run_cli(
        capsys, "sim",
        "-cache:dl1", "dl1:256:32:1:l", "-cache:dl2", "ul2:1024:64:4:l",
        "-cache:il1", "il1:256:32:1:l", "-cache:il2", "dl2",
        "-tlb:itlb", "itlb:16:4096:4:l", "-tlb:dtlb", "dtlb:32:4096:4:l",
        "-flush", "false", "--clock", "0", trace_file,
    )
    assert short == long


def test_sim_is_byte_deterministic(capsys, trace_file):
    args = ("sim", "-cache:dl1", "dl1:16:32:4:r", "-cache:dl2", "none",
            "-cache:il2", "none", "-seed", "7", "--clock", "0", trace_file)
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sim_timing_flags_add_cycle_block(capsys, trace_file):
    code, out, _ = run_cli(capsys, "sim", "-mem:lat", "18", "2",
                           "-mem:width", "8", "--clock", "0", trace_file)
    assert code == 0
    assert "Total Cycles:" in out
    assert "Flat profile (cycles)" in out  # trace has a named region
    assert "main" in out


def test_sim_example_config_from_docs(capsys, trace_file):
    code, out, _ = run_cli(capsys, "sim", "-cache:dl1", "dl1:4096:32:1:l",
                           "--clock", "0", trace_file)
    assert code == 0
    assert "dl1.accesses" in out


def test_sim_json_format(capsys, trace_file):
    code, out, _ = run_cli(capsys, "sim", "--format", "json", "--clock", "0", trace_file)
    assert code == 0
    data = json.loads(out)
    assert data["sim_num_insn"] == 3
    assert data["caches"]["dl1"]["accesses"] == 3


def test_sim_csv_format(capsys, trace_file):
    code, out, _ = run_cli(capsys, "sim", "--format", "csv", "--clock", "0", trace_file)
    assert code == 0
    assert out.startswith("key,value\n")
    assert "caches.dl1.accesses,3" in out


def test_sim_out_file(capsys, tmp_path, trace_file):
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "sim", "--clock", "0", "--out", str(out_path), trace_file)
    assert code == 0
    assert out == ""
    assert "sim_num_insn" in out_path.read_text()


def test_sim_usage_errors_exit_1(capsys, trace_file):
    assert run_cli(capsys, "sim", "--bogus", trace_file)[0] == 1
    assert run_cli(capsys, "sim")[0] == 1
    assert run_cli(capsys, "sim", "-cache:dl1", trace_file)[0] == 1  # missing value? value eats trace
    code, _, err = run_cli(capsys, "sim", "-cache:dl1", "dl1:100:32:1:l", trace_file)
    assert code == 1
    assert "power of two" in err


def test_sim_missing_trace_file_exits_2(capsys, tmp_path, trace_file):
    # A trace that is not there, and a report path whose directory is not
    # there, which fails only after the walk.
    for argv in ([str(tmp_path / "absent.ct")],
                 ["--out", str(tmp_path / "absent" / "out.txt"), trace_file]):
        code, out, err = run_cli(capsys, "sim", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and "Traceback" not in err


def test_sim_bad_trace_line_exits_2_with_line_number(capsys, tmp_path):
    p = tmp_path / "bad.ct"
    p.write_text("I 400000\nL zz 4\n")
    code, _, err = run_cli(capsys, "sim", str(p))
    assert code == 2
    assert "line 2" in err


def test_vexsim_text_output(capsys, cfg_file, trace_file):
    code, out, _ = run_cli(capsys, "vexsim", cfg_file, trace_file, "--clock", "0")
    assert code == 0
    assert "Total Cycles:" in out
    assert "Instruction Memory Operations:" in out
    assert "Data Memory Operations:" in out
    assert "Percentage Bus Bandwidth Consumed:" in out
    assert "Flat profile (cycles)" in out


def test_vexsim_stall_arithmetic(capsys, cfg_file, trace_file):
    _, out, _ = run_cli(capsys, "vexsim", cfg_file, trace_file, "--format", "json",
                        "--clock", "0")
    data = json.loads(out)
    cyc = data["cycles"]
    sim = data["sim"]
    assert cyc["execution_cycles"] == sim["sim_num_insn"] == 3
    assert cyc["imem"]["stall_miss"] == cyc["imem"]["misses"] * 45
    assert cyc["dmem"]["stall_miss"] == cyc["dmem"]["misses"] * 36
    assert cyc["total_cycles"] == cyc["execution_cycles"] + cyc["stall_cycles"]
    assert cyc["branch"]["branch_stall_cycles"] == 1  # one taken branch
    assert cyc["executed_operations"] == 4  # 1 + 1 + 2 ops


def test_vexsim_bad_cfg_exits_2(capsys, tmp_path, trace_file):
    p = tmp_path / "vex.cfg"
    p.write_text("CoreCkFreq 1000\n")
    code, _, err = run_cli(capsys, "vexsim", str(p), trace_file)
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("old, new, message", [
    ("MissPenalty     36\n", "", "{p}: required key 'MissPenalty' missing"),
    ("MissPenalty     36", "MissPenalty many",
     "{p} line 6: value for 'MissPenalty' must be an integer, got 'many'"),
    ("lg2CacheSize    16", "lg2CacheSize    5",
     "{p} line 3: lg2CacheSize: cache of 32 bytes cannot hold 4 ways of 32-byte lines"),
    ("CoreCkFreq      1000", "CoreCkFreq 0",
     "{p} line 1: need CoreCkFreq >= BusCkFreq (line 2), got 0 < 500"),
    ("BusCkFreq       500", "BusCkFreq 0", "{p} line 2: need BusCkFreq > 0, got 0"),
])
def test_vexsim_cfg_errors_name_the_file(capsys, tmp_path, trace_file, old, new, message):
    p = tmp_path / "vex.cfg"
    p.write_text(VEX_CFG.replace(old, new))
    assert run_cli(capsys, "vexsim", str(p), trace_file) == (2, "", f"error: {message.format(p=p)}\n")


def test_vexsim_simulates_a_cache_of_any_size(capsys, tmp_path, trace_file):
    p = tmp_path / "vex.cfg"
    p.write_text(VEX_CFG.replace("lg2CacheSize    16", "lg2CacheSize    40"))
    assert run_cli(capsys, "vexsim", str(p), trace_file)[0] == 0


def test_vexsim_usage(capsys, cfg_file):
    assert run_cli(capsys, "vexsim", cfg_file)[0] == 1


def test_vexsim_bad_clock_exits_1(capsys, cfg_file, trace_file):
    code, _, err = run_cli(capsys, "vexsim", "--clock", "abc", cfg_file, trace_file)
    assert code == 1
    assert "--clock" in err


@pytest.mark.parametrize("argv", [
    ("--clock", "nan"),
    ("--clock", "inf"),
    ("-cache:il1", "dl1:128:32:1:l"),  # a second cache named dl1
    ("-cache:il1", "dl1", "-cache:il2", "il2:512:64:2:l"),  # an il2 fetches never reach
    ("--clock", "-3"),
])
def test_sim_bad_command_line_exits_1(capsys, trace_file, argv):
    assert run_cli(capsys, "sim", *argv, trace_file)[0] == 1


def test_non_utf8_trace_exits_2_with_line_number(capsys, tmp_path):
    p = tmp_path / "bad.ct"
    p.write_bytes(b"I 400000\nR \xff\n")
    code, _, err = run_cli(capsys, "sim", str(p))
    assert code == 2
    assert "line 2" in err


def test_non_utf8_vex_cfg_exits_2(capsys, tmp_path, trace_file):
    p = tmp_path / "vex.cfg"
    p.write_bytes(VEX_CFG.encode() + b"# \xff\n")
    code, _, err = run_cli(capsys, "vexsim", str(p), trace_file)
    assert code == 2
    assert "line 14" in err and "UTF-8" in err


def test_vexsim_unknown_keys_warn_plainly(capsys, tmp_path, trace_file):
    p = tmp_path / "vex.cfg"
    p.write_text(VEX_CFG + "MysteryKnob 7\nOtherKnob 1\n")
    code, _, err = run_cli(capsys, "vexsim", "--clock", "0", str(p), trace_file)
    assert code == 0
    assert err.splitlines() == [f"warning: {p} line 14: ignoring unknown key 'MysteryKnob'",
                                f"warning: {p} line 15: ignoring unknown key 'OtherKnob'"]
    assert "config.py" not in err


def test_sweep_csv(capsys, trace_file):
    code, out, _ = run_cli(capsys, "sweep", "--sets", "64,256", "--bsize", "32",
                           "--assoc", "1,2,4,8", "--format", "csv", trace_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nsets,bsize,assoc,misses,miss_rate"
    assert len(lines) == 1 + 8


def test_sweep_with_opt_rows(capsys, trace_file):
    code, out, _ = run_cli(capsys, "sweep", "--sets", "64,256", "--bsize", "32",
                           "--assoc", "1,2,4,8", "--opt", "--format", "csv", trace_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "policy,nsets,bsize,assoc,misses,miss_rate"
    assert sum(1 for l in lines if l.startswith("lru,")) == 8
    assert sum(1 for l in lines if l.startswith("opt,")) == 8


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
def test_sweep_opt_matches_golden_bytes(capsys, tmp_path, fmt, ext):
    for trace_name in ("rand.ct", "rand.ctb"):
        trace = tmp_path / trace_name
        assert main(["gen", "random", "--seed", "7", "--range", "16384", "--count", "4000",
                     "--out", str(trace)]) == 0
        out = tmp_path / f"sweep.{ext}"
        assert main(["sweep", "--sets", "1,16,128", "--bsize", "32,64", "--assoc", "1,2,4,8,16",
                     "--opt", "--format", fmt, "--out", str(out), str(trace)]) == 0
        assert out.read_bytes() == (GOLDEN / f"sweep_opt.{ext}").read_bytes(), trace_name


def _mixed_trace(n=4000):
    """Fetches, block-spanning loads and stores, branches, a syscall and three
    re-entered regions, then ``R TOTAL``; from a fixed linear congruential
    sequence, so no library's randomness can change it."""
    records, x = [], 1
    for i in range(n):
        if i % 700 == 0:
            records.append(region(("setup", "kernel", "reduce")[i // 700 % 3]))
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        r = x >> 12
        records.append(inst(0x400000 + i * 4 % 0x6000, 1 + r % 4))
        span = 0x1000 if r & 0x40 else 0x40000  # a hot 4 KiB and a cold 256 KiB
        addr, size = 0x10000000 + (r * 7) % span, 1 << (r >> 3) % 4
        if r % 3 == 0:
            records.append(load(addr, size))
        elif r % 3 == 1:
            records.append(store(addr, size))
        if r % 5 == 0:
            records.append(branch(r >> 5 & 1))
    return records + [syscall(), region("TOTAL"), inst(0x400000), load(0x10000000, 4)]


# Random and FIFO caches and TLBs, flushed at the syscall; the other two
# cases run LRU only.
_POLICY_ARGS = ["-cache:dl1", "dl1:64:32:4:r", "-cache:il1", "il1:64:32:2:f",
                "-cache:dl2", "ul2:256:64:8:r", "-tlb:itlb", "itlb:4:4096:2:f",
                "-tlb:dtlb", "dtlb:4:4096:2:r", "-flush", "true", "-mem:lat", "18", "2"]


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv"), ("json", "json")])
@pytest.mark.parametrize("trace_name", ["t.ct", "t.ctb"])
@pytest.mark.parametrize("cmd", ["sim", "vexsim", "sim_policies"])
def test_sim_and_vexsim_match_golden_bytes(tmp_path, cmd, trace_name, fmt, ext):
    trace = tmp_path / trace_name
    write_trace_path(trace, _mixed_trace())
    cfg = tmp_path / "vex.cfg"
    cfg.write_text(VEX_CFG)
    argv, golden = {"sim": (["sim", "-mem:lat", "18", "2"], "sim_mixed"),
                    "vexsim": (["vexsim", str(cfg)], "vexsim_mixed"),
                    "sim_policies": (["sim", *_POLICY_ARGS], "sim_policies")}[cmd]
    out = tmp_path / f"out.{ext}"
    assert main([*argv, "--clock", "1", "--format", fmt, "--out", str(out), str(trace)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{golden}.{ext}").read_bytes()


def test_sweep_requires_power_of_two(capsys, trace_file):
    code, _, err = run_cli(capsys, "sweep", "--sets", "100", "--bsize", "32",
                           "--assoc", "1", trace_file)
    assert code == 1


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "sequential", "--start", "0",
                           "--count", "4", "--stride", "32")
    assert code == 0
    assert out == "L 0 1\nL 20 1\nL 40 1\nL 60 1\n"


def test_gen_then_sim_pipeline(capsys, tmp_path):
    trace_path = tmp_path / "gen.ctb"
    code, _, _ = run_cli(capsys, "gen", "random", "--seed", "5", "--range",
                         "65536", "--count", "500", "--out", str(trace_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "sim", "--clock", "0", str(trace_path))
    assert code == 0
    assert "sim_num_refs      500 " in out


def test_gen_loop_flags(capsys):
    code, out, _ = run_cli(capsys, "gen", "loop", "--ws", "64", "--iters", "2",
                           "--stride", "32")
    assert code == 0
    assert out.splitlines() == ["L 0 1", "L 20 1", "L 0 1", "L 20 1"]


def test_gen_usage_errors(capsys):
    assert run_cli(capsys, "gen")[0] == 1
    assert run_cli(capsys, "gen", "spiral", "--count", "4")[0] == 1
    assert run_cli(capsys, "gen", "sequential")[0] == 1
    assert run_cli(capsys, "gen", "sequential", "--count", "4", "--stride", "0")[0] == 1
    # gen loop over a stride below 1 would write an empty trace
    for stride in ("-8", "0"):
        code, out, err = run_cli(capsys, "gen", "loop", "--ws", "64", "--iters", "2",
                                 "--stride", stride)
        assert (code, out) == (1, "")
        assert err.startswith("error: stride must be >= 1\n")
    assert run_cli(capsys, "gen", "sequential", "--count", "4", "--bogus", "1")[0] == 1
    # the messages of a missing flag and an unknown kind
    assert run_cli(capsys, "gen", "random", "--count", "4")[2].startswith(
        "error: gen random needs --range\n")
    assert run_cli(capsys, "gen", "loop")[2].startswith("error: gen loop needs --ws, --iters\n")
    assert run_cli(capsys, "gen", "spiral")[2].startswith(
        "error: unknown generator kind 'spiral'\n")
    # a flag of another kind is rejected, not ignored
    code, out, err = run_cli(capsys, "gen", "sequential", "--count", "2", "--iters", "5",
                             "--seed", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: gen sequential does not take --iters, --seed\n")
    assert run_cli(capsys, "gen", "loop", "--ws", "64", "--iters", "1", "--start", "3")[0] == 1
    assert run_cli(capsys, "gen", "random", "--range", "64", "--count", "1",
                   "--stride", "8")[0] == 1


@pytest.mark.parametrize("argv, message", [
    # flags that could change no output: TLB misses add no cycles, and
    # vex.cfg caches are LRU, so no seed reaches them
    (["sim", "-tlb:lat", "30", "{trace}"], "unknown flag '-tlb:lat'"),
    (["vexsim", "-seed", "1", "{cfg}", "{trace}"], "unknown flag '-seed'"),
    # a flag given last with no value
    (["sim", "{trace}", "-mem:lat", "18"], "-mem:lat is missing its value"),
    (["sim", "{trace}", "--clock"], "--clock is missing its value"),
    # sweep without an axis, or with an empty one
    (["sweep", "{trace}"], "sweep needs --sets, --bsize and --assoc"),
    (["sweep", "--sets", "16", "--bsize", "32", "{trace}"],
     "sweep needs --sets, --bsize and --assoc"),
    (["sweep", "--sets", ",", "--bsize", "32", "--assoc", "1", "{trace}"],
     "sweep needs --sets, --bsize and --assoc"),
    # the generators' count and range errors
    (["gen", "sequential", "--count", "-1"], "count must be >= 0"),
    (["gen", "loop", "--ws", "-1", "--iters", "2"],
     "working_set_bytes and iterations must be >= 0"),
    (["gen", "loop", "--ws", "64", "--iters", "-2"],
     "working_set_bytes and iterations must be >= 0"),
    (["gen", "random", "--range", "0", "--count", "4"], "range_bytes must be >= 1"),
    (["gen", "random", "--range", "64", "--count", "-4"], "count must be >= 0"),
])
def test_command_line_errors_exit_1_with_their_message(capsys, trace_file, cfg_file,
                                                       argv, message):
    argv = [a.format(trace=trace_file, cfg=cfg_file) for a in argv]
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n{USAGE}\n")


# Every cache geometry in this vocabulary has at most 1024 sets, and the
# plain numbers, which also size generated traces, stay at 16 or below:
# cache specs have no upper bound, so a large one could exhaust memory.
_FUZZ_VALUES = [
    "0", "1", "2", "7", "16", "0x10", "-1", "-3", "1.5", "nan", "inf", "abc", "-", "",
    "text", "csv", "json", "xml", "true", "false", "none", "dl1", "dl2",
    "dl1:64:32:2:l", "il1:1024:64:1:f", "ul2:256:64:4:r", "itlb:16:4096:4:l",
    "dl1:3:32:1:l", "x:1:1:1:q", "1,2,4", "16,1024", "3,5", "1,,2",
    "sequential", "loop", "random", "t.ct", "t.ctb", "vex.cfg", "--bogus",
]


# One value each flag accepts, drawn as often as the whole vocabulary so
# that runs get past the parser; flags not named here take "1".
_GOOD_VALUES = {
    "-cache:il1": "dl1", "-cache:il2": "none", "-cache:dl1": "dl1:64:32:2:l",
    "-cache:dl2": "ul2:256:64:4:r", "-tlb:itlb": "itlb:16:4096:4:l", "-tlb:dtlb": "none",
    "-flush": "true", "--format": "json", "--out": "out.txt",
    "--sets": "1,2,4", "--bsize": "16,64", "--assoc": "1,2,4",
}
_WORD = st.sampled_from(sorted(_OPTIONS) + _FUZZ_VALUES).map(lambda w: [w])
_FLAG_WITH_VALUES = st.sampled_from(sorted(_OPTIONS)).flatmap(
    lambda f: st.lists(st.just(_GOOD_VALUES.get(f, "1")) | st.sampled_from(_FUZZ_VALUES),
                       min_size=_OPTIONS[f][1], max_size=_OPTIONS[f][1]).map(lambda v: [f, *v]))


# Valid command lines; the fuzzed words go in right after the command.
_BASES = [
    ["sim", "t.ct"],
    ["vexsim", "vex.cfg", "t.ct"],
    ["sweep", "--sets", "1,2", "--bsize", "16", "--assoc", "1,2", "t.ct"],
    ["gen", "loop", "--ws", "16", "--iters", "2"],
    ["gen", "random", "--range", "16", "--count", "7"],
    ["help"],
    ["bogus"],
]


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_BASES),
       words=st.lists(st.one_of(_FLAG_WITH_VALUES, _FLAG_WITH_VALUES, _WORD), max_size=3))
def test_fuzzed_command_lines_exit_0_1_or_2(capsys, tmp_path, monkeypatch, base, words):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.ct").write_text(TRACE)
    (tmp_path / "vex.cfg").write_text(VEX_CFG)
    argv = [base[0], *(w for group in words for w in group), *base[1:]]
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()
