"""Trace-driven memory-hierarchy simulator.

Set-associative caches and TLBs with LRU/FIFO/random replacement, a
two-level split or unified hierarchy, single-pass design-space sweeps via
LRU stack distances, exact offline optimal (Belady) replacement, and
VLIW-style stall-cycle accounting with a shared-bus model.

Importing the package loads no submodule: each public name is imported
from its submodule on first use (PEP 562), so a command loads only the
layers it runs.  ``cachesim.sweep`` is the function; the stack-distance
module that defines it is ``cachesim.stack``.
"""

import importlib

# submodule -> the public names it defines
_MODULES = {
    "cache": ("AccessOutcome", "Cache", "CacheStats"),
    "config": ("CacheSpec", "ConfigError", "HierarchySpec", "ReplacementPolicy",
               "parse_cache_spec", "parse_hierarchy_args", "parse_vex_cfg"),
    "hierarchy": ("BranchCounts", "Hierarchy", "RegionCounters", "SimReport"),
    "report": ("export", "render_region_profile", "render_simcache", "render_sweep_table",
               "render_vex_summary"),
    "stack": ("DistanceHistogram", "SweepRow", "belady_misses", "block_refs",
              "misses_for_assoc", "stack_distances", "sweep"),
    "timing": ("BranchReport", "CycleReport", "InconsistentCounts", "MemSideReport",
               "TimingSpec", "account", "main_memory_latency"),
    "trace": ("TOTAL_REGION", "TraceRecord", "TraceSyntaxError", "branch", "gen_loop",
              "gen_random", "gen_sequential", "inst", "load", "parse_trace",
              "parse_trace_binary", "read_trace_path", "region", "store", "syscall",
              "write_trace", "write_trace_binary", "write_trace_path"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:  # a submodule, as after ``import cachesim.<name>``
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
