"""Memory-reference traces: the simulator's sole input.

Text format (``.ct``), one record per line, ``#`` starts a comment:

    I <hexaddr> [<ops>]    instruction fetch, optional operation count
    L <hexaddr> <size>     load of <size> bytes
    S <hexaddr> <size>     store of <size> bytes
    B <T|N>                branch, taken or not taken
    Y                      system call
    R <name>               region marker (profile attribution)

Binary format (``.ctb``): fixed 11-byte records of 1-byte kind code,
8-byte little-endian address, 2-byte little-endian size/ops field.
Region records append the UTF-8 name bytes (length in the 2-byte field)
after the fixed part.  Kind codes are I=0 L=1 S=2 B=3 Y=4 R=5.
"""

import random
import struct
from dataclasses import dataclass

MAX_ADDR = 2**64 - 1


class TraceSyntaxError(ValueError):
    def __init__(self, line_no, reason):
        super().__init__(f"trace line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass(slots=True)
class TraceRecord:
    """One trace event; the meaning of the extra fields depends on kind."""

    kind: str  # "I", "L", "S", "B", "Y" or "R"
    addr: int = 0
    size: int = 0  # bytes touched, L/S only
    ops: int = 1  # operation count, I only
    taken: bool = False  # B only
    name: str = ""  # R only


def inst(addr, ops=1):
    _check_addr(addr)
    if ops < 1:
        raise ValueError(f"ops must be >= 1, got {ops}")
    return TraceRecord("I", addr=addr, ops=ops)


def load(addr, size):
    _check_span(addr, size)
    return TraceRecord("L", addr=addr, size=size)


def store(addr, size):
    _check_span(addr, size)
    return TraceRecord("S", addr=addr, size=size)


def branch(taken):
    return TraceRecord("B", taken=bool(taken))


def syscall():
    return TraceRecord("Y")


def region(name):
    if not name or any(c.isspace() for c in name) or "#" in name:
        raise ValueError(f"region name must be a single token without '#': {name!r}")
    return TraceRecord("R", name=name)


def _check_addr(addr):
    if not 0 <= addr <= MAX_ADDR:
        raise ValueError(f"address out of range: {addr:#x}")


def _check_span(addr, size):
    _check_addr(addr)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if addr + size - 1 > MAX_ADDR:
        raise ValueError(f"{size}-byte access at {addr:#x} runs past the address space")


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
                ops = _int_field(toks[2], line_no, "op count") if len(toks) == 3 else 1
                yield inst(_hex_field(toks[1], line_no), ops)
            elif kind == "L" or kind == "S":
                if len(toks) != 3:
                    raise TraceSyntaxError(line_no, f"{kind} takes an address and a size")
                addr = _hex_field(toks[1], line_no)
                size = _int_field(toks[2], line_no, "size")
                yield load(addr, size) if kind == "L" else store(addr, size)
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


def _hex_field(tok, line_no):
    try:
        addr = int(tok, 16)
    except ValueError:
        raise TraceSyntaxError(line_no, f"bad hex address {tok!r}") from None
    if not 0 <= addr <= MAX_ADDR:
        raise TraceSyntaxError(line_no, f"address out of range {tok!r}")
    return addr


def _int_field(tok, line_no, what):
    try:
        v = int(tok)
    except ValueError:
        raise TraceSyntaxError(line_no, f"bad {what} {tok!r}") from None
    if v < 1:
        raise TraceSyntaxError(line_no, f"bad {what} {tok!r}: must be >= 1")
    return v


def write_trace(records):
    """Render records back to text; parse_trace(write_trace(r)) == r."""
    out = []
    for r in records:
        k = r.kind
        if k == "I":
            out.append(f"I {r.addr:x}" if r.ops == 1 else f"I {r.addr:x} {r.ops}")
        elif k == "L" or k == "S":
            out.append(f"{k} {r.addr:x} {r.size}")
        elif k == "B":
            out.append(f"B {'T' if r.taken else 'N'}")
        elif k == "Y":
            out.append("Y")
        elif k == "R":
            region(r.name)  # re-validate: names must stay single tokens
            out.append(f"R {r.name}")
        else:
            raise ValueError(f"unknown record kind {k!r}")
    return "\n".join(out) + ("\n" if out else "")


_KIND_CODES = {"I": 0, "L": 1, "S": 2, "B": 3, "Y": 4, "R": 5}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_REC = struct.Struct("<BQH")


def write_trace_binary(records):
    chunks = []
    for r in records:
        k = r.kind
        if k == "I":
            chunks.append(_REC.pack(0, r.addr, r.ops))
        elif k == "L" or k == "S":
            chunks.append(_REC.pack(_KIND_CODES[k], r.addr, r.size))
        elif k == "B":
            chunks.append(_REC.pack(3, 0, 1 if r.taken else 0))
        elif k == "Y":
            chunks.append(_REC.pack(4, 0, 0))
        elif k == "R":
            name = r.name.encode("utf-8")
            chunks.append(_REC.pack(5, 0, len(name)) + name)
        else:
            raise ValueError(f"unknown record kind {k!r}")
    return b"".join(chunks)


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
            raise TraceSyntaxError(n, f"unknown kind code {code}")
        try:
            if kind == "I":
                yield inst(addr, val)
            elif kind == "L":
                yield load(addr, val)
            elif kind == "S":
                yield store(addr, val)
            elif kind == "B":
                yield branch(val == 1)
            elif kind == "Y":
                yield syscall()
            else:
                if off + val > size:
                    raise TraceSyntaxError(n, "truncated region name")
                yield region(data[off : off + val].decode("utf-8"))
                off += val
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


def _utf8_lines(raw_lines):
    """Decode byte lines one at a time, so a bad byte is named by its line."""
    for line_no, raw in enumerate(raw_lines, 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceSyntaxError(line_no, f"not valid UTF-8: {exc.reason}") from None


def write_trace_path(path, records):
    if str(path).endswith(".ctb"):
        with open(path, "wb") as fh:
            fh.write(write_trace_binary(records))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(write_trace(records))


# Trace generators.  All produce single-byte loads, so each record touches
# exactly one block under every geometry being compared.

def gen_sequential(start, count, stride):
    """Loads at start, start+stride, ... (count records)."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    return [load(start + i * stride, 1) for i in range(count)]


def gen_loop(base, working_set_bytes, iterations, stride):
    """Replay a strided working set a fixed number of times."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if working_set_bytes < 0 or iterations < 0:
        raise ValueError("working_set_bytes and iterations must be >= 0")
    offsets = range(0, working_set_bytes, stride)
    return [load(base + off, 1) for _ in range(iterations) for off in offsets]


def gen_random(seed, base, range_bytes, count):
    """Uniform random loads in [base, base+range_bytes), reproducible from seed."""
    if range_bytes < 1:
        raise ValueError("range_bytes must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(seed)
    return [load(base + rng.randrange(range_bytes), 1) for _ in range(count)]
