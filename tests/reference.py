"""Independent reference models used as oracles by the test suite.

These are deliberately written apart from the package so agreement is
meaningful.  ``RefCache`` keeps an oldest-first list of tags per set, where
the package keeps block numbers, and keeps the dirty bits in a dict per set
(the package keeps one set of dirty blocks per cache); every access is a
call, so it never settles a reference in place.  Its random policy keeps
the list in way order and draws victims from its own xorshift64*
generator, written from the generator's definition.  ``RefBus`` steps the
memory bus one core cycle at a time where the package's cycle model adds
up ceilings.  ``decimal_fixed`` rounds with the decimal module where the
package's ``report.fixed`` uses integer arithmetic.  The other oracles search for victims way by way or
exhaustively, and the trace parsers here are written on their own.
"""

import struct
import zlib
from decimal import ROUND_HALF_UP, Decimal

from cachesim import (
    Cache,
    CacheSpec,
    ReplacementPolicy,
    TraceSyntaxError,
    branch,
    inst,
    load,
    region,
    store,
    syscall,
)
from cachesim.trace import MAX_ADDR


def cache_seed(master, name):
    """The documented seed of the cache called ``name`` in a hierarchy run
    with seed ``master``."""
    return (master * 2654435761 + zlib.crc32(bytes(name, "utf-8"))) % 2**64


class RefCache:
    """Dict-based set-associative model for LRU, FIFO and random.

    Each set is a dict tag -> dirty plus an age list.  LRU and FIFO keep the
    list oldest first: LRU moves a tag to the back on every touch, FIFO
    never reorders, and a full set evicts the front.  Random keeps the list
    in way order (a fill takes the lowest free way) and a full set evicts
    the way xorshift64* draws, its output's high 32 bits modulo assoc; the
    generator starts at ``seed`` mod 2**64, or at 0x9E3779B97F4A7C15 when
    that is zero.
    """

    def __init__(self, nsets, bsize, assoc, policy="l", seed=1):
        assert policy in ("l", "f", "r")
        self.state = seed % 2**64 or 0x9E3779B97F4A7C15
        self.nsets = nsets
        self.bsize = bsize
        self.assoc = assoc
        self.policy = policy
        self.sets = [{} for _ in range(nsets)]
        self.age = [[] for _ in range(nsets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.replacements = 0
        self.invalidations = 0

    def access(self, addr, write=False):
        block = addr // self.bsize
        si = block % self.nsets
        tag = block // self.nsets
        lines = self.sets[si]
        age = self.age[si]
        if tag in lines:
            self.hits += 1
            if write:
                lines[tag] = True
            if self.policy == "l":
                age.remove(tag)
                age.append(tag)
            return ("hit", None, False)
        self.misses += 1
        evicted = None
        evicted_dirty = False
        if len(lines) < self.assoc:
            age.append(tag)
        else:
            if self.policy == "r":
                way = self.xorshift64star() // 2**32 % self.assoc
                evicted, age[way] = age[way], tag
            else:
                evicted = age.pop(0)
                age.append(tag)
            evicted_dirty = lines.pop(evicted)
            self.replacements += 1
            if evicted_dirty:
                self.writebacks += 1
        lines[tag] = write
        return ("miss", evicted, evicted_dirty)

    def xorshift64star(self):
        """Marsaglia's xorshift (shifts 12, 25, 27) on a 64-bit state, output
        times 2685821657736338717 mod 2**64 (Vigna's xorshift64*)."""
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) % 2**64
        x ^= x >> 27
        self.state = x
        return x * 2685821657736338717 % 2**64

    def flush(self):
        """Write back every dirty line and invalidate every valid one."""
        for lines, age in zip(self.sets, self.age):
            self.writebacks += sum(lines.values())
            self.invalidations += len(lines)
            lines.clear()
            age.clear()


class RefHierarchy:
    """RefCaches wired by the routing rules the package documents.

    ``il1`` is a RefCache, ``"dl1"`` or ``"dl2"`` (unified with that data
    level) or None; ``il2`` is a RefCache, ``"dl2"`` or None, and matters
    only when il1 is a cache of its own.  A unification with an absent
    level is absent.  Each reference looks up its side's TLB, then walks
    its path: a miss refills from the next level, then a dirty victim is
    written to it, and the deepest cache of a side is its memory boundary.
    Fed plain rows ``(code, addr, arg)``; region rows are ignored.

    ``events`` lists one bus transaction ``(kind, at, size)`` per memory-
    boundary miss ("imiss" or "dmiss" by side) and per dirty eviction there
    ("writeback", after the miss that caused it), in walk order; ``at`` is
    the number of instructions fetched before the record began and ``size``
    the boundary cache's block size.  ``ops`` sums the fetches' op counts.
    ``ledger`` maps each RefCache to a dict counting its accesses by cause:
    "entry" (from the trace), "refill" and "writeback" (from the level
    above).
    """

    def __init__(self, dl1, dl2=None, il1=None, il2=None, itlb=None, dtlb=None,
                 flush_on_syscall=False):
        self.d_path = [c for c in (dl1, dl2) if c is not None]
        if il1 == "dl1":
            self.i_path = self.d_path
        elif il1 == "dl2":
            self.i_path = self.d_path[1:]
        elif il1 is None:
            self.i_path = []
        else:
            il2 = dl2 if il2 == "dl2" else il2
            self.i_path = [c for c in (il1, il2) if c is not None]
        self.itlb, self.dtlb = itlb, dtlb
        self.flush_on_syscall = flush_on_syscall
        # Each RefCache once: a unified level is one object on both paths.
        self.caches = list({id(c): c for c in (itlb, dtlb, *self.i_path, *self.d_path)
                            if c is not None}.values())
        self.mem = {"I": [0, 0, 0], "D": [0, 0, 0]}  # accesses, hits, misses
        self.insts = self.refs = self.ops = 0
        self.branches = [0, 0, 0]  # executed, taken, not taken
        self.events = []
        self.ledger = {c: {"entry": 0, "refill": 0, "writeback": 0} for c in self.caches}

    def _access(self, c, addr, write, cause):
        self.ledger[c][cause] += 1
        return c.access(addr, write)

    def _walk(self, path, side, addr, size, write, at, cause="entry"):
        c = path[0]
        first = addr // c.bsize
        last = max(first, (addr + size - 1) // c.bsize)  # size <= 0: one block
        for b in range(first, last + 1):
            outcome, victim, dirty = self._access(c, b * c.bsize, write, cause)
            if len(path) == 1:
                m = self.mem[side]
                m[0] += 1
                m[1 if outcome == "hit" else 2] += 1
                if outcome == "miss":
                    self.events.append((side.lower() + "miss", at, c.bsize))
                if dirty:
                    self.events.append(("writeback", at, c.bsize))
            elif outcome == "miss":
                self._walk(path[1:], side, b * c.bsize, c.bsize, False, at, "refill")
                if dirty:
                    victim_block = victim * c.nsets + b % c.nsets
                    self._walk(path[1:], side, victim_block * c.bsize, c.bsize, True, at,
                               "writeback")

    def feed(self, rows):
        for code, addr, arg in rows:
            at = self.insts
            if code == 0:
                self.insts += 1
                self.ops += arg
                if self.itlb is not None:
                    self._access(self.itlb, addr, False, "entry")
                if self.i_path:
                    self._walk(self.i_path, "I", addr, 1, False, at)
            elif code in (1, 2):
                self.refs += 1
                if self.dtlb is not None:
                    self._access(self.dtlb, addr, False, "entry")
                if self.d_path:
                    self._walk(self.d_path, "D", addr, arg, code == 2, at)
            elif code == 3:
                self.branches[0] += 1
                self.branches[1 if arg else 2] += 1
            elif code == 4 and self.flush_on_syscall:
                for c in self.caches:
                    c.flush()


class RefBus:
    """The memory bus of the cycle model, stepped one core cycle at a time.

    Transactions ``(kind, at, size)`` queue in the order given; the head is
    served from the first core cycle, not before ``at``, in which the bus is
    idle.  Each core cycle of a transfer moves the bus clock on by
    ``bus_clk`` ticks, and ``core_clk`` ticks make one beat of ``mem_width``
    bytes; ticks left over when the last beat completes are lost with the
    rest of that core cycle.  A writeback then holds the bus for
    ``wb_penalty`` more core cycles.  ``conflict`` maps "imiss" and "dmiss"
    to the core cycles their transactions waited in the queue, and ``busy``
    counts the core cycles the bus was held.
    """

    def __init__(self, core_clk, bus_clk, mem_width, wb_penalty):
        self.core_clk, self.bus_clk = core_clk, bus_clk
        self.mem_width, self.wb_penalty = mem_width, wb_penalty
        self.conflict = {"imiss": 0, "dmiss": 0}
        self.busy = 0

    def feed(self, events):
        cycle = 0  # the core cycles elapsed
        for kind, at, size in events:
            cycle = max(cycle, at)  # the bus idles until the request
            if kind != "writeback":
                self.conflict[kind] += cycle - at
            left, ticks = size, 0
            while left > 0:  # one core cycle of transfer
                cycle += 1
                self.busy += 1
                ticks += self.bus_clk
                while ticks >= self.core_clk and left > 0:
                    ticks -= self.core_clk
                    left -= self.mem_width
            if kind == "writeback":
                for _ in range(self.wb_penalty):
                    cycle += 1
                    self.busy += 1
        return self


def ref_cycles(model, t):
    """The CycleReport fields, as a dict, of a fed RefHierarchy under the
    TimingSpec ``t``: execution is one core cycle per instruction, and the
    stall adds each side's misses times its penalty and its bus waiting,
    then the taken branches times the branch stall."""
    bus = RefBus(t.core_clk_mhz, t.bus_clk_mhz, t.mem_width, t.wb_penalty).feed(model.events)
    sides = {}
    for side, kind, penalty in (("imem", "imiss", t.icache_penalty),
                                ("dmem", "dmiss", t.miss_penalty)):
        accesses, hits, misses = model.mem[side[0].upper()]
        stall_miss = misses * penalty
        sides[side] = {"accesses": accesses, "hits": hits, "misses": misses,
                       "stall_total": stall_miss + bus.conflict[kind],
                       "stall_miss": stall_miss, "stall_bus_conflict": bus.conflict[kind]}
    executed, taken, not_taken = model.branches
    branch_stall = taken * t.branch_stall
    stall = sides["imem"]["stall_total"] + sides["dmem"]["stall_total"] + branch_stall
    total = model.insts + stall
    return {
        "total_cycles": total,
        "execution_cycles": model.insts,
        "stall_cycles": stall,
        **sides,
        "branch": {"executed": executed, "taken": taken, "not_taken": not_taken,
                   "branch_stall_cycles": branch_stall},
        "bus_busy_cycles": bus.busy,
        "bandwidth_pct": 100.0 * bus.busy / total if total else 0.0,
        "executed_operations": model.ops,
    }


def data_blocks(records, bsize):
    """Block numbers touched by the data references of a trace (TraceRecords
    or rows)."""
    out = []
    for code, addr, size in records:
        if code == 1 or code == 2:  # L, S
            first = addr // bsize
            last = (addr + size - 1) // bsize
            out.extend(range(first, last + 1))
    return out


def direct_misses(records, nsets, bsize, assoc, policy="l", seed=1):
    """Miss count from driving one Cache directly over the data references.

    This is the array-based simulation route, independent of the stack
    distance algorithm.
    """
    spec = CacheSpec("c", nsets, bsize, assoc, ReplacementPolicy(policy))
    c = Cache(spec, seed)
    for code, addr, size in records:
        if code == 1 or code == 2:  # L, S
            first = addr // bsize
            last = (addr + size - 1) // bsize
            for b in range(first, last + 1):
                c.access(b * bsize, code == 2)
    return c.misses


def belady_victim_misses(stream, nsets, assoc):
    """Miss count under offline optimal replacement, by victim search.

    Two passes over a list of block numbers: the first indexes each
    reference's next use, the second simulates a demand-fetch cache that
    evicts the resident block whose next use lies farthest in the future
    (never-reused blocks first; ties break toward the lowest way index).
    """
    n = len(stream)
    never = n  # sorts after every real position
    next_use = [never] * n
    last_seen = {}
    for i in range(n - 1, -1, -1):
        b = stream[i]
        next_use[i] = last_seen.get(b, never)
        last_seen[b] = i

    way_block = {}  # set index -> list of resident blocks per way
    way_next = {}  # set index -> next-use position per way
    resident = {}  # set index -> {block: way}
    misses = 0
    for i in range(n):
        b = stream[i]
        si = b % nsets
        si_res = resident.get(si)
        if si_res is None:
            si_res = resident[si] = {}
            way_block[si] = []
            way_next[si] = []
        way = si_res.get(b)
        if way is not None:
            way_next[si][way] = next_use[i]
            continue
        misses += 1
        blocks = way_block[si]
        nexts = way_next[si]
        if len(blocks) < assoc:
            si_res[b] = len(blocks)
            blocks.append(b)
            nexts.append(next_use[i])
        else:
            victim = 0
            best = nexts[0]
            for w in range(1, assoc):
                if nexts[w] > best:
                    best = nexts[w]
                    victim = w
            del si_res[blocks[victim]]
            si_res[b] = victim
            blocks[victim] = b
            nexts[victim] = next_use[i]
    return misses


def brute_min_misses(blocks, nsets, assoc):
    """Exhaustive minimum miss count over every eviction-decision sequence.

    Feasible only for tiny instances; memoized per set on
    (position, resident frozenset).
    """
    total = 0
    for si in range(nsets):
        stream = [b for b in blocks if b % nsets == si]
        total += _brute_one_set(tuple(stream), assoc)
    return total


def _brute_one_set(stream, capacity):
    memo = {}

    def rec(i, resident):
        if i == len(stream):
            return 0
        key = (i, resident)
        cached = memo.get(key)
        if cached is not None:
            return cached
        b = stream[i]
        if b in resident:
            result = rec(i + 1, resident)
        elif len(resident) < capacity:
            result = 1 + rec(i + 1, resident | {b})
        else:
            result = 1 + min(rec(i + 1, (resident - {v}) | {b}) for v in resident)
        memo[key] = result
        return result

    return rec(0, frozenset())


# Trace decoders that build one TraceRecord per record through the public
# constructors (inst, load, ..., region), which hold the validation rules:
# oracles for the row decoders of cachesim.trace, which check inline.

_KIND_CODES = {"I": 0, "L": 1, "S": 2, "B": 3, "Y": 4, "R": 5}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_REC = struct.Struct("<BQH")


def parse_trace(lines):
    """Yield TraceRecords from an iterable of text lines.

    Raises TraceSyntaxError carrying the 1-based line number on any
    malformed record.
    """
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        try:
            if kind == "I":
                if len(toks) not in (2, 3):
                    raise TraceSyntaxError(line_no, "I takes an address and optional op count")
                addr = _hex_field(toks[1], line_no)
                ops = _int_field(toks[2], line_no, "op count") if len(toks) == 3 else 1
                yield inst(_in_range(addr), _count("ops", ops))
            elif kind == "L" or kind == "S":
                if len(toks) != 3:
                    raise TraceSyntaxError(line_no, f"{kind} takes an address and a size")
                addr = _hex_field(toks[1], line_no)
                size = _int_field(toks[2], line_no, "size")
                make = load if kind == "L" else store
                yield make(_in_range(addr), _count("size", size))
            elif kind == "B":
                if len(toks) != 2 or toks[1] not in ("T", "N"):
                    raise TraceSyntaxError(line_no, "B takes T or N")
                yield branch(toks[1] == "T")
            elif kind == "Y":
                if len(toks) != 1:
                    raise TraceSyntaxError(line_no, "Y takes no arguments")
                yield syscall()
            elif kind == "R":
                if len(toks) != 2:
                    raise TraceSyntaxError(line_no, "R takes a region name")
                yield region(toks[1])
            else:
                raise TraceSyntaxError(line_no, f"unknown record kind {kind!r}")
        except ValueError as exc:
            if isinstance(exc, TraceSyntaxError):
                raise
            raise TraceSyntaxError(line_no, str(exc)) from None


# Each token's syntax is checked before any value's range, and an op count
# or a size is bounded by what the 2-byte .ctb field holds.

def _hex_field(tok, line_no):
    try:
        return int(tok, 16)
    except ValueError:
        raise TraceSyntaxError(line_no, f"bad hex address {tok!r}") from None


def _int_field(tok, line_no, what):
    try:
        return int(tok)
    except ValueError:
        raise TraceSyntaxError(line_no, f"bad {what} {tok!r}") from None


def _in_range(addr):
    if not 0 <= addr <= MAX_ADDR:
        raise ValueError(f"address out of range: {addr:#x}")
    return addr


def _count(field, value):
    if not 1 <= value <= 65535:
        raise ValueError(f"{field} must be 1 to 65535, got {value}")
    return value


def parse_trace_binary(data):
    """Yield TraceRecords from .ctb bytes; errors carry the record ordinal."""
    off = 0
    n = 0
    size = len(data)
    while off < size:
        n += 1
        if off + _REC.size > size:
            raise TraceSyntaxError(n, "truncated record")
        code, addr, val = _REC.unpack_from(data, off)
        off += _REC.size
        kind = _CODE_KINDS.get(code)
        if kind is None:
            raise TraceSyntaxError(n, f"unknown record kind code {code}")
        try:
            if kind == "I":
                yield inst(addr, val)
            elif kind == "L":
                yield load(addr, val)
            elif kind == "S":
                yield store(addr, val)
            elif kind == "R":
                if off + val > size:
                    raise TraceSyntaxError(n, "truncated region name")
                name = data[off : off + val].decode("utf-8")
                off += val
                record = region(name)  # a bad name is named before a bad address
                if addr != 0:
                    raise ValueError(f"R row must be (5, 0, name), not {(code, addr, name)!r}")
                yield record
            else:  # B or Y: every field but the branch flag is 0
                allowed = [(3, 0, 0), (3, 0, 1)] if kind == "B" else [(4, 0, 0)]
                if (code, addr, val) not in allowed:
                    raise ValueError(f"{kind} row must be {' or '.join(map(str, allowed))}, "
                                     f"not {(code, addr, val)!r}")
                yield branch(val == 1) if kind == "B" else syscall()
        except ValueError as exc:
            if isinstance(exc, TraceSyntaxError):
                raise
            raise TraceSyntaxError(n, str(exc)) from None


def read_trace_path(path):
    """Open a .ct or .ctb trace file as a record iterator."""
    if str(path).endswith(".ctb"):
        with open(path, "rb") as fh:
            data = fh.read()
        return parse_trace_binary(data)

    def _lines():
        with open(path, "rb") as fh:
            yield from parse_trace(_utf8_lines(fh))

    return _lines()


# The most bytes a .ct line may hold before its "\n": 2**17, about twice the
# longest record line ("R", a space and a 65,535-byte name).
LINE_LIMIT = 2**17


def _utf8_lines(raw_lines):
    """Decode byte lines one at a time, so a bad byte is named by its line;
    a line over LINE_LIMIT bytes is refused whole, before it is decoded."""
    for line_no, raw in enumerate(raw_lines, 1):
        if len(raw) - raw.endswith(b"\n") > LINE_LIMIT:
            raise TraceSyntaxError(line_no, f"line is over the limit of {LINE_LIMIT} bytes")
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceSyntaxError(line_no, f"not valid UTF-8: {exc.reason}") from None


def decimal_fixed(value, places):
    """``value`` with ``places`` decimals: its shortest repr quantized half-up
    by the decimal module.  Raises decimal.InvalidOperation once the
    quantized value needs more than 28 digits."""
    q = Decimal(1).scaleb(-places)
    d = Decimal(repr(float(value))).quantize(q, rounding=ROUND_HALF_UP)
    if d == 0:
        d = abs(d)
    return f"{d:.{places}f}"
