"""Write one workload's inputs and the oracle answers its outputs must match.

    python3 bench/prepare.py <workload> <seed> <records> <workdir>

Writes ``trace<ext>``, an ``empty<ext>`` trace of the same format,
``vex.cfg`` and ``expected.json`` into ``workdir``.  The oracles are the
independent reference models of ``tests/reference.py`` (``RefCache``),
composed here by the routing rules the package documents; they are
computed once, before anything is timed.  Run as its own process so
``run.py`` stays small: a child's peak resident memory counts the memory
of the process that spawned it.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from cachesim import write_trace_path  # noqa: E402
from reference import RefCache, data_blocks  # noqa: E402


class _RefHierarchy:
    """RefCaches wired as the package's hierarchy routes references.

    A miss refills from the next level, then a dirty victim is written to
    it; the deepest cache on each side is the memory boundary.  Counts
    per side and per region are kept at the boundary.
    """

    def __init__(self, i_path, d_path, itlb=None, dtlb=None):
        self.i_path, self.d_path = i_path, d_path
        self.itlb, self.dtlb = itlb, dtlb
        self.mem = {"I": [0, 0, 0], "D": [0, 0, 0]}
        self.insts = self.refs = self.ops = 0
        self.branches = [0, 0]  # taken, not taken
        self.region = None
        self.regions = {}  # name -> [insts, i boundary misses, d boundary misses]

    def _walk(self, path, side, addr, size, write):
        c = path[0]
        for b in range(addr // c.bsize, (addr + size - 1) // c.bsize + 1):
            outcome, victim, dirty = c.access(b * c.bsize, write)
            miss = outcome == "miss"
            if len(path) == 1:
                m = self.mem[side]
                m[0] += 1
                m[2 if miss else 1] += 1
                if miss and self.region is not None:
                    self.regions[self.region][1 if side == "I" else 2] += 1
            elif miss:
                self._walk(path[1:], side, b * c.bsize, c.bsize, False)
                if dirty:
                    victim_block = victim * c.nsets + b % c.nsets
                    self._walk(path[1:], side, victim_block * c.bsize, c.bsize, True)

    def feed(self, records):
        for r in records:
            if r.kind == "I":
                self.insts += 1
                self.ops += r.ops
                if self.region is not None:
                    self.regions[self.region][0] += 1
                if self.itlb:
                    self.itlb.access(r.addr)
                self._walk(self.i_path, "I", r.addr, 1, False)
            elif r.kind in ("L", "S"):
                self.refs += 1
                if self.dtlb:
                    self.dtlb.access(r.addr)
                self._walk(self.d_path, "D", r.addr, r.size, r.kind == "S")
            elif r.kind == "B":
                self.branches[0 if r.taken else 1] += 1
            elif r.kind == "R":
                self.region = r.name
                self.regions.setdefault(r.name, [0, 0, 0])


def _counts(c):
    return {"accesses": c.hits + c.misses, "hits": c.hits, "misses": c.misses,
            "writebacks": c.writebacks}


def _hierarchy_oracle(records, caches, i_path, d_path, itlb=None, dtlb=None):
    h = _RefHierarchy(i_path, d_path, itlb, dtlb)
    h.feed(records)
    return {
        "caches": {name: _counts(c) for name, c in caches.items()},
        "sim_num_insn": h.insts,
        "sim_num_refs": h.refs,
        "ops": h.ops,
        "taken": h.branches[0],
        "not_taken": h.branches[1],
        "imem": h.mem["I"],
        "dmem": h.mem["D"],
        "regions": h.regions,
    }


def sim_oracle(records):
    """The default sim hierarchy: il1 and dl1 over a unified ul2, two TLBs."""
    il1, dl1 = RefCache(256, 32, 1), RefCache(256, 32, 1)
    ul2 = RefCache(1024, 64, 4)
    itlb, dtlb = RefCache(16, 4096, 4), RefCache(32, 4096, 4)
    caches = {"il1": il1, "dl1": dl1, "ul2": ul2, "itlb": itlb, "dtlb": dtlb}
    out = _hierarchy_oracle(records, caches, [il1, ul2], [dl1, ul2], itlb, dtlb)
    first, nxt = wl.SIM_MEM_LAT
    beats = -(-64 // wl.SIM_MEM_WIDTH)  # ul2 blocks are 64 bytes on both sides
    out["i_penalty"] = out["d_penalty"] = first + (beats - 1) * nxt
    out["branch_stall"] = 0
    return out


def vexsim_oracle(records):
    """VEX_CFG: a 32 KiB direct-mapped icache and a 16 KiB 2-way dcache."""
    icache, dcache = RefCache(512, 64, 1), RefCache(256, 32, 2)
    out = _hierarchy_oracle(records, {"icache": icache, "dcache": dcache},
                            [icache], [dcache])
    out["i_penalty"] = wl.VEX_ICACHE_PENALTY
    out["d_penalty"] = wl.VEX_MISS_PENALTY
    out["branch_stall"] = wl.VEX_BRANCH_STALL
    return out


# Sweep rows checked against RefCache: one set-indexed, one fully
# associative, one wide.
SWEEP_SAMPLE = ((16, 32, 4), (1, 64, 16), (128, 64, 2))


def sweep_oracle(records):
    blocks = {b: data_blocks(records, b) for b in wl.SWEEP_BSIZES}
    sample = []
    for nsets, bsize, assoc in SWEEP_SAMPLE:
        c = RefCache(nsets, bsize, assoc)
        for block in blocks[bsize]:
            c.access(block * bsize)
        sample.append([nsets, bsize, assoc, c.misses])
    return {
        "distinct_blocks": {str(b): len(set(v)) for b, v in blocks.items()},
        "sample": sample,
    }


ORACLES = {"sim": sim_oracle, "vexsim": vexsim_oracle, "sweep": sweep_oracle}


def main(argv):
    name, seed, n, workdir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    w = wl.WORKLOADS[name]
    records = getattr(gen, w.generator)(seed, n)
    write_trace_path(workdir / f"trace{w.ext}", records)
    write_trace_path(workdir / f"empty{w.ext}", [])
    (workdir / "vex.cfg").write_text(wl.VEX_CFG)
    expected = {"records": len(records), **ORACLES[w.command](records)}
    (workdir / "expected.json").write_text(json.dumps(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
