"""The package namespace and what each command imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import cachesim
from cachesim.cli import main
from cachesim.trace import load, store, write_trace_path

# The public names of the package.
PUBLIC = """
AccessOutcome Cache CacheStats CacheSpec ConfigError HierarchySpec ReplacementPolicy
TimingSpec parse_cache_spec parse_hierarchy_args parse_vex_cfg BranchCounts Hierarchy
RegionCounters SimReport TOTAL_REGION export render_region_profile render_simcache
render_sweep_table render_vex_summary DistanceHistogram SweepRow belady_misses block_refs
misses_for_assoc stack_distances sweep BranchReport CycleReport InconsistentCounts
MemSideReport account main_memory_latency TraceRecord TraceSyntaxError branch
gen_loop gen_random gen_sequential inst load parse_trace parse_trace_binary read_trace_path
region store syscall write_trace write_trace_binary write_trace_path
""".split()


def _env():
    """The environment of a child interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(cachesim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_star_import_binds_every_public_name():
    assert sorted(cachesim.__all__) == sorted(PUBLIC)
    assert dir(cachesim) == sorted(PUBLIC)
    ns = {}
    exec("from cachesim import *", ns)
    assert set(PUBLIC) <= set(ns)
    for name in PUBLIC:
        assert ns[name] is getattr(cachesim, name)
        home = importlib.import_module(f"cachesim.{cachesim._HOME[name]}")
        assert getattr(home, name) is ns[name], name
    assert cachesim.__version__ == "0.1.0"


def test_sweep_stays_the_function_after_a_sweep_run(tmp_path, capsys):
    trace = tmp_path / "t.ctb"
    trace.write_bytes(b"")
    assert main(["sweep", "--sets", "1", "--bsize", "32", "--assoc", "1", "--opt",
                 str(trace)]) == 0
    capsys.readouterr()
    from cachesim import sweep, trace as trace_module

    assert sweep is cachesim.sweep and callable(sweep)
    assert sweep([], [(1, 32)], [1])[0].misses == 0
    assert isinstance(trace_module, ModuleType)
    assert trace_module is sys.modules["cachesim.trace"]


def test_submodules_resolve_as_attributes_of_a_fresh_import():
    code = ("import cachesim, sys; assert 'cachesim.trace' not in sys.modules; "
            "assert cachesim.trace is sys.modules['cachesim.trace']; "
            "assert cachesim.stack.sweep is cachesim.sweep")
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=60)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cachesim.no_such_name
    with pytest.raises(ImportError):
        exec("from cachesim import no_such_name", {})


# Runs one command in a fresh interpreter and prints its exit code and the
# modules that importing the CLI and running the command loaded.
CHILD = """\
import sys
before = set(sys.modules)
from cachesim.cli import main
from cachesim.trace import load, store, write_trace_path
code = main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""

VEX_CFG = """\
CoreCkFreq 1000
BusCkFreq 500
lg2CacheSize 13
lg2Sets 1
lg2LineSize 5
lg2ICacheSize 13
lg2ICacheSets 0
lg2ICacheLineSize 6
MissPenalty 36
WBPenalty 33
ICachePenalty 45
"""

SIM_LAYERS = {"cachesim.hierarchy", "cachesim.cache", "cachesim.timing"}
EXPORT_MODULES = {"json", "csv"}


def _loaded_by(tmp_path, *argv):
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    code, *modules = proc.stdout.split()
    assert code == "0"
    assert "cachesim.cli" in modules
    return set(modules)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("ext", [".ct", ".ctb"])
def test_sweep_loads_no_simulation_layer(tmp_path, ext, fmt):
    # Rows to export, so csv and json serialize sweep rows; neither loads
    # dataclasses (nor inspect, which it imports), and no rate loads decimal.
    write_trace_path(tmp_path / f"t{ext}", [load(0x1000, 4), load(0x2000, 64), store(0x1000, 1)])
    loaded = _loaded_by(tmp_path, "sweep", "--sets", "1,16", "--bsize", "32",
                        "--assoc", "1,2", "--opt", "--format", fmt, "--out", "out.txt", f"t{ext}")
    assert loaded.isdisjoint(SIM_LAYERS | {"dataclasses", "inspect", "decimal"})
    assert loaded.isdisjoint(EXPORT_MODULES) == (fmt == "text")
    assert "cachesim.stack" in loaded
    assert (tmp_path / "out.txt").read_text().count("\n") > 8


def test_timing_spec_is_served_by_timing_alone():
    import cachesim.config
    import cachesim.timing

    assert cachesim.TimingSpec is cachesim.timing.TimingSpec
    with pytest.raises(ImportError):
        exec("from cachesim.config import TimingSpec", {})
    # Importing the configuration layer loads neither timing nor dataclasses.
    code = ("import sys; import cachesim.config; "
            "assert not {'cachesim.timing', 'dataclasses'} & set(sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=60)


def test_results_load_no_dataclasses():
    # Every result type is a named tuple; only TimingSpec needs dataclasses.
    code = ("import sys; import cachesim.cache, cachesim.hierarchy, cachesim.report; "
            "assert not {'cachesim.timing', 'dataclasses'} & set(sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=60)


# The timing layer, and dataclasses and inspect with it, which only a
# memory-timing flag or vexsim's cycle model loads.
TIMING_LAYER = {"cachesim.timing", "dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    ("sim", "--clock", "1", "--out", "out.txt", "t.ct"),
    ("sim", "-mem:lat", "18", "2", "--clock", "1", "--out", "out.txt", "t.ct"),
    ("vexsim", "--clock", "1", "--out", "out.txt", "vex.cfg", "t.ct"),
])
def test_text_simulation_loads_no_stack_module_or_exporter(tmp_path, argv):
    (tmp_path / "t.ct").write_text("R main\nI 400000\nL 1000 4\n")
    (tmp_path / "vex.cfg").write_text(VEX_CFG)
    loaded = _loaded_by(tmp_path, *argv)
    assert {"cachesim.hierarchy", "cachesim.cache"} <= loaded
    if argv[0] == "vexsim" or "-mem:lat" in argv:
        assert TIMING_LAYER <= loaded
    else:
        assert loaded.isdisjoint(TIMING_LAYER)
    assert loaded.isdisjoint({"cachesim.stack", "cachesim.sweep", "decimal"} | EXPORT_MODULES)


def test_sim_on_a_text_trace_loads_no_re(tmp_path):
    # The .ctb reader compiles its pattern at its first read.  Run without
    # site, which may load re itself.
    (tmp_path / "t.ct").write_text("R main\nI 400000  # a comment\nL 1000 4\n")
    code = ("import sys; from cachesim.cli import main; "
            "assert main(['sim', '--clock', '1', '--out', 'out.txt', 't.ct']) == 0; "
            "assert 're' not in sys.modules, 're is loaded'")
    subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, env=_env(), check=True,
                   timeout=60)
    assert "sim_num_insn      1 " in (tmp_path / "out.txt").read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sim_exports_a_report_without_the_timing_layer(tmp_path, fmt):
    (tmp_path / "t.ct").write_text("R main\nI 400000\nL 1000 4\n")
    loaded = _loaded_by(tmp_path, "sim", "--format", fmt, "--clock", "1", "--out", "out", "t.ct")
    assert loaded.isdisjoint(TIMING_LAYER) and fmt in loaded
    assert "sim_num_insn" in (tmp_path / "out").read_text()
