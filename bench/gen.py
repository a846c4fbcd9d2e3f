"""Seeded trace generators for the benchmark workloads.

Every trace is built with the package's public record constructors
(``inst``, ``load``, ``store``, ``branch``, ``region``), so the benchmark
feeds the simulator nothing a user could not write.  The same seed and
record count always give the same trace; the statistical shape (mix of
kinds, footprint against the modelled caches) is fixed per workload, so
different seeds give different traces of the same cost.
"""

import random

from cachesim import branch, inst, load, region, store


def program_trace(seed, n_records):
    """A program-like trace for ``sim`` on the default hierarchy.

    Seven functions, each a loop over its own code and its own 16 KiB
    array, are entered behind ``R`` markers.  Code takes 14 KiB (il1 holds
    8 KiB) and data 112 KiB: between the 8 KiB dl1 and the 256 KiB ul2, so
    most dl1 misses walk to ul2 and hit there.  Loads outnumber stores
    three to one; eight-byte accesses on a four-byte stride span two
    blocks once per block.

    The functions' code is the same for every seed, so every seed costs
    the same work; the seed orders the calls and draws the random data
    offsets and the conditional branches' outcomes.
    """
    shape = random.Random(0x5EED)
    funcs = []
    for f in range(7):
        body = []
        for _ in range(shape.randrange(96, 384)):
            r = shape.random()
            mem = None if r < 0.55 else ("L" if r < 0.85 else "S")
            size = shape.choice((4, 8)) if mem else 0
            cond = shape.random() < 0.12
            body.append((shape.randrange(1, 5), mem, size, cond))
        funcs.append({
            "name": f"fn{f}",
            "code": 0x400000 + f * 0x800,
            "data": 0x10000000 + f * 0x4000,
            "cursor": 0,
            "iters": 2 + f % 5,
            "body": body,
        })

    rng = random.Random(seed)
    calls = []
    out = [region("main")]
    while len(out) < n_records:
        if not calls:  # every function once per round, in a seeded order
            calls = rng.sample(funcs, len(funcs))
        fn = calls.pop()
        out.append(region(fn["name"]))
        code, data, body, iters = fn["code"], fn["data"], fn["body"], fn["iters"]
        for it in range(iters):
            for j, (ops, mem, size, cond) in enumerate(body):
                out.append(inst(code + 4 * j, ops))
                if mem is not None:
                    if rng.random() < 0.2:
                        off = rng.randrange(0, 0x4000 - 8, 4)
                    else:
                        off = fn["cursor"]
                        fn["cursor"] = (off + 4) % (0x4000 - 8)
                    make = load if mem == "L" else store
                    out.append(make(data + off, size))
                if cond:
                    out.append(branch(rng.random() < 0.3))
            out.append(inst(code + 4 * len(body), 1))
            out.append(branch(it + 1 < iters))  # loop back edge
        out.append(region("main"))
    return out[:n_records]


def writeback_trace(seed, n_records):
    """A store-heavy trace for ``vexsim``, without region markers.

    One 1 KiB code loop (fits the icache).  Data references go 85% to a
    hot 8 KiB buffer and 15% to a 1 MiB array streamed at a 16-byte step;
    60% of them are stores, so evicted lines are mostly dirty.
    """
    rng = random.Random(seed)
    code = 0x800000
    hot = 0x20000000
    cold = 0x30000000
    cursor = 0
    out = []
    pc = 0
    while len(out) < n_records:
        out.append(inst(code + 4 * pc, rng.randrange(1, 5)))
        pc = (pc + 1) % 256
        if rng.random() < 0.45:
            if rng.random() < 0.85:
                addr = hot + rng.randrange(0, 0x2000, 8)
            else:
                addr = cold + cursor
                cursor = (cursor + 16) % 0x100000
            out.append(store(addr, 8) if rng.random() < 0.6 else load(addr, 8))
        if pc % 8 == 0:
            out.append(branch(pc == 0 or rng.random() < 0.5))
    return out[:n_records]


def sweep_trace(seed, n_records):
    """A load/store trace for ``sweep`` whose footprint spans the sweep.

    References go 60% to a hot 2 KiB block, 30% to a 16 KiB array and 10%
    to a 64 KiB array.  The swept capacities run from 512 B (16 sets of
    one 32-byte way) to 128 KiB (128 sets of sixteen 64-byte ways).  One
    access in eight is eight bytes wide and may span two blocks.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(n_records):
        r = rng.random()
        if r < 0.6:
            addr = 0x1000 + rng.randrange(0x800)
        elif r < 0.9:
            addr = 0x100000 + rng.randrange(0x4000)
        else:
            addr = 0x200000 + rng.randrange(0x10000)
        size = 8 if rng.random() < 0.125 else 1
        out.append(store(addr, size) if rng.random() < 0.3 else load(addr, size))
    return out
