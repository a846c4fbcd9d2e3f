"""Trace-driven memory-hierarchy simulator.

Set-associative caches and TLBs with LRU/FIFO/random replacement, a
two-level split or unified hierarchy, single-pass design-space sweeps via
LRU stack distances, exact offline optimal (Belady) replacement, and
VLIW-style stall-cycle accounting with a shared-bus model.
"""

from .cache import AccessOutcome, Cache, CacheStats
from .config import (
    CacheSpec,
    ConfigError,
    HierarchySpec,
    ReplacementPolicy,
    TimingSpec,
    parse_cache_spec,
    parse_hierarchy_args,
    parse_vex_cfg,
)
from .hierarchy import BranchCounts, Hierarchy, RegionCounters, SimReport, TOTAL_REGION
from .report import (
    export,
    render_region_profile,
    render_simcache,
    render_sweep_table,
    render_vex_summary,
)
from .sweep import (
    DistanceHistogram,
    SweepRow,
    belady_misses,
    block_refs,
    misses_for_assoc,
    stack_distances,
    sweep,
)
from .timing import (
    BranchReport,
    CycleReport,
    InconsistentCounts,
    MemSideReport,
    TimingEvent,
    account,
    main_memory_latency,
)
from .trace import (
    TraceRecord,
    TraceSyntaxError,
    branch,
    gen_loop,
    gen_random,
    gen_sequential,
    inst,
    load,
    parse_trace,
    parse_trace_binary,
    read_trace_path,
    region,
    store,
    syscall,
    write_trace,
    write_trace_binary,
    write_trace_path,
)

__version__ = "0.1.0"
