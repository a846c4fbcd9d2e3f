"""The benchmark's workloads: which trace, how large, and which CLI command.

Each workload makes one layer of the simulator do most of the work and
bypasses another, so a change to that layer has a workload that should
move and one that should not:

* ``sim_text_regions``: text decoding, the L1 -> L2 walk with region
  attribution and the region profile; ``sweep`` is bypassed.
* ``vexsim_binary_writeback``: dirty evictions, writeback bus events and
  ``timing.account``; binary decoding replaces text decoding and region
  attribution is bypassed.
* ``sweep_design_space``: ``stack_distances`` and ``belady_misses`` over a
  materialized trace; ``hierarchy`` and ``timing`` are bypassed.
"""

from dataclasses import dataclass

# Bus at the core clock and a short writeback hold keep the modelled bus
# well below saturation on the writeback trace, so bus-conflict waiting
# stays a minority of the stall cycles.
VEX_CFG = """\
CoreCkFreq        1000
BusCkFreq         1000
lg2CacheSize      14
lg2Sets           1
lg2LineSize       5
MissPenalty       36
WBPenalty         4
lg2ICacheSize     15
lg2ICacheSets     0
lg2ICacheLineSize 6
ICachePenalty     45
BranchStall       1
"""

# Penalties of VEX_CFG, for the output checks.
VEX_MISS_PENALTY = 36
VEX_ICACHE_PENALTY = 45
VEX_BRANCH_STALL = 1

SIM_MEM_LAT = (18, 2)  # -mem:lat first next; the bus width stays 8 bytes
SIM_MEM_WIDTH = 8

SWEEP_SETS = (1, 16, 128)
SWEEP_BSIZES = (32, 64)
SWEEP_ASSOCS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cachesim subcommand
    ext: str  # trace format, by file extension
    generator: str  # function name in gen.py
    records: int
    smoke_records: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_text_regions", "sim", ".ct", "program_trace", 60_000, 1_500,
                 "text decode, L1-to-L2 walk with region attribution and the "
                 "region profile; sweep bypassed"),
        Workload("vexsim_binary_writeback", "vexsim", ".ctb", "writeback_trace",
                 100_000, 2_000,
                 "binary decode, dirty evictions, writeback bus events and "
                 "timing.account; regions bypassed"),
        Workload("sweep_design_space", "sweep", ".ctb", "sweep_trace", 6_000, 600,
                 "stack distances and Belady OPT over a materialized trace; "
                 "hierarchy and timing bypassed"),
    )
}


def sweep_flags():
    return ["--sets", ",".join(map(str, SWEEP_SETS)),
            "--bsize", ",".join(map(str, SWEEP_BSIZES)),
            "--assoc", ",".join(map(str, SWEEP_ASSOCS)), "--opt"]


def cli_args(w, trace, cfg, out):
    """Arguments after ``cachesim`` for one run of workload ``w``.

    ``--clock`` makes the elapsed-time lines of sim and vexsim fixed, so
    repeated outputs compare byte for byte; sweep prints no elapsed time.
    """
    if w.command == "sim":
        first, nxt = SIM_MEM_LAT
        return ["sim", "-mem:lat", str(first), str(nxt), "--clock", "1",
                "--out", str(out), str(trace)]
    if w.command == "vexsim":
        return ["vexsim", "--clock", "1", "--out", str(out), str(cfg), str(trace)]
    return ["sweep", *sweep_flags(), "--out", str(out), str(trace)]
