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
after the fixed part.  Kind codes are I=0 L=1 S=2 B=3 Y=4 R=5.  A branch
record's 2-byte field is 1 for taken and 0 for not taken.

In memory a record is one row, a 3-tuple ``(code, addr, arg)``: the kind
code as in ``.ctb``, the address (0 for B, Y and R) and one argument,
the op count (I), the size in bytes (L, S), the taken flag 1 or 0 (B),
0 (Y) or the region name (R).  ``TraceRecord(row)``, the only way to
build a TraceRecord, is a read-only view of a row: a tuple subclass
whose items are the row, so whatever walks a trace (``for code, addr,
arg in records``) takes decoder rows and TraceRecords alike.  The
constructors ``inst``, ``load``, ``store``, ``branch``, ``syscall`` and
``region`` hold every rule a record keeps and return the view of its row.
An op count, a size and a name's UTF-8 length are bounded at 65,535, the
most the 2-byte ``.ctb`` field holds, so both formats hold the same
records.  Both writers check each row by those rules, so what they write
reads back.

Each format has one decoder that yields rows.  A text line is tested in
one place: ``_plain_rows`` tests the fields of comment-free lines inline
and returns the rows of the lines before the first that fails a test, as
one list, and that line, which ``_line_error`` turns into its error: a
token that is not a number by its name, else the fault that ``region``,
``inst`` or ``load`` names, else the kind's usage.  ``decode_text`` takes
text lines from any iterable, ``_TEXT_BATCH`` at a time, and cuts each
line's comment.  ``read_rows`` reads a ``.ct`` file in chunks of whole
lines (``_TEXT_CHUNK`` bytes and the rest of the last line), decodes each
chunk's UTF-8 once, splits it on ``"\\n"``, the only line end, and cuts
comments only in a chunk that holds ``#``, so its memory is one chunk, not
the file, and a chunk's rows pass on with no Python frame per row.  Both
yield the rows of the lines before a fault, then raise its error.  A line
holds at most ``_LINE_LIMIT`` bytes (128 KiB) before its ``"\\n"``, so a
chunk holds no more than that of its last line: a longer line is refused
by its line number, after the rows of the lines before it, and is never
decoded.  A byte that is not UTF-8 is named by its line: the lines before
it yield their rows, then a TraceSyntaxError gives its line number and the
decoder's reason.  ``decode_binary`` reads a ``.ctb`` file in chunks of
``_CHUNK`` bytes and passes on runs of plain records, those whose row is
the tuple ``struct.iter_unpack`` gives them, with no Python frame per
record: one match of the ``_PLAIN_RECORDS`` pattern finds a run
(of at most ``_RUN`` bytes, as the match's memory grows with its run),
and ``iter_unpack`` over it yields the rows.  Every other record (a
region marker, a record in error, or an L or S record whose address's
top byte is 0xFF) is checked by the writers' ``_check_row``, a region
marker once its name's UTF-8 is decoded, so the reader refuses the rows
the writers refuse, in their words.  A partial record, or a region record
whose name runs past its chunk, is carried over to the next chunk, so the
memory is one chunk and one name, not the file.  ``parse_trace``,
``parse_trace_binary`` and ``read_trace_path`` map ``TraceRecord`` over
them; ``read_rows`` opens a file of either format as rows, holding it
open from the first row asked for to the last, or until dropped.
"""

import io
import struct
from itertools import chain, islice

MAX_ADDR = 2**64 - 1
TOTAL_REGION = "TOTAL"  # the region of the whole run; ``R TOTAL`` ends a named one
_ADDR_END = MAX_ADDR + 1  # an access of size s at a fits when a + s <= _ADDR_END

_KINDS = "ILSBYR"  # kind letter by code


class TraceSyntaxError(ValueError):
    def __init__(self, line_no, reason):
        super().__init__(f"trace line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class TraceRecord(tuple):
    """One trace event: a read-only view of its row ``(code, addr, arg)``.

    ``TraceRecord(row)`` is the only way to build one; the constructors
    below check a record's fields and return the view of its row.  The
    fields read back as properties, with defaults for the fields a kind
    does not use.
    """

    __slots__ = ()

    kind = property(lambda r: _KINDS[r[0]], doc='"I", "L", "S", "B", "Y" or "R".')
    addr = property(lambda r: r[1], doc="Address; 0 for B, Y and R.")
    size = property(lambda r: r[2] if r[0] in (1, 2) else 0, doc="Bytes touched, L/S only.")
    ops = property(lambda r: r[2] if r[0] == 0 else 1, doc="Operation count, I only.")
    taken = property(lambda r: r[0] == 3 and bool(r[2]), doc="B only; the row holds 0 or 1.")
    name = property(lambda r: r[2] if r[0] == 5 else "", doc="R only.")


def inst(addr, ops=1):
    if type(addr) is not int or type(ops) is not int or not 0 < ops <= 0xFFFF \
            or not 0 <= addr <= MAX_ADDR:
        _check_addr(addr)
        _check_count("ops", ops)
    return TraceRecord((0, addr, ops))


def load(addr, size):
    _check_span(addr, size)
    return TraceRecord((1, addr, size))


def store(addr, size):
    _check_span(addr, size)
    return TraceRecord((2, addr, size))


def branch(taken):
    return TraceRecord((3, 0, 1 if taken else 0))


def syscall():
    return TraceRecord((4, 0, 0))


def region(name):
    if not isinstance(name, str):
        raise ValueError(f"region name must be a string, got {name!r}")
    if name.split() != [name] or "#" in name:
        raise ValueError(f"region name must be a single token without '#': {name!r}")
    try:
        size = len(name) if name.isascii() else len(name.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which no UTF-8 trace can hold
        raise ValueError(f"region name is not encodable as UTF-8: {name!r}") from None
    if size > 0xFFFF:
        raise ValueError(f"region name is {size} bytes of UTF-8, over the limit of 65535")
    return TraceRecord((5, 0, name))


# ``inst`` and ``_check_span`` pass exact ints in range on one test; any other
# field, a bool too, is checked in order for the message naming its fault.

def _check_int(field, value):
    if not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def _check_addr(addr):
    _check_int("address", addr)
    if not 0 <= addr <= MAX_ADDR:
        raise ValueError(f"address out of range: {addr:#x}")


def _check_count(field, value):
    _check_int(field, value)
    if not 0 < value <= 0xFFFF:
        raise ValueError(f"{field} must be 1 to 65535, got {value}")


def _check_span(addr, size):
    if type(addr) is not int or type(size) is not int \
            or addr < 0 or not 0 < size <= 0xFFFF or addr + size > _ADDR_END:
        _check_addr(addr)
        _check_count("size", size)
        if addr + size - 1 > MAX_ADDR:
            raise ValueError(f"{size}-byte access at {addr:#x} runs past the address space")


# The rows of B and Y records; each is the same for every record of its kind.
_TAKEN, _NOT_TAKEN, _SYSCALL = branch(True), branch(False), syscall()


def _checked(n, make, *args):
    """``make(*args)``, a ValueError from it raised as record ``n``'s
    TraceSyntaxError.  The decoders check the common case inline and call
    the record constructors or ``_check_row`` only for a rare or failing
    record, so each rule and its message live in one place."""
    try:
        return make(*args)
    except ValueError as exc:
        raise TraceSyntaxError(n, str(exc)) from None


def decode_text(lines):
    """Yield rows from an iterable of text lines, numbered from 1, read
    ``_TEXT_BATCH`` lines at a time.

    Raises TraceSyntaxError carrying the 1-based line number on any
    malformed record.
    """
    lines = iter(lines)
    start = 1
    while batch := list(islice(lines, _TEXT_BATCH)):
        for rows in _stretch(batch, start):
            yield from rows
        start += len(batch)


_USAGE = {"I": "I takes an address and optional op count", "L": "L takes an address and a size",
          "S": "S takes an address and a size", "B": "B takes T or N",
          "Y": "Y takes no arguments", "R": "R takes a region name"}


def _line_error(line, line_no):
    """Raise the TraceSyntaxError of a line that ``_plain_rows`` refuses:
    a token that is not a number by its name, else the fault that
    ``region``, ``inst`` or ``load`` names, else the kind's usage."""
    toks = line.split()
    kind, n = toks[0], len(toks)
    if kind == "I" and n in (2, 3) or (kind == "L" or kind == "S") and n == 3:
        args = [_number(toks[1], 16, line_no, "hex address")]
        if n == 3:
            args.append(_number(toks[2], 10, line_no, "op count" if kind == "I" else "size"))
        _checked(line_no, inst if kind == "I" else load, *args)
    elif kind == "R" and n == 2:
        _checked(line_no, region, toks[1])
    raise TraceSyntaxError(line_no, _USAGE.get(kind, f"unknown record kind {kind!r}"))


def _number(tok, base, line_no, what):
    try:
        return int(tok, base)
    except ValueError:
        raise TraceSyntaxError(line_no, f"bad {what} {tok!r}") from None


def _check_row(code, addr, arg):
    """Raise the ValueError of a row that the readers refuse: an I, L or S
    row by the rules of ``inst`` or ``_check_span``, a field of another
    that is not an ``int`` (or an R name not a ``str``) by its name."""
    _check_int("kind code", code)
    if code == 1 or code == 2:
        _check_span(addr, arg)
    elif code == 0:
        inst(addr, arg)
    elif code == 3 or code == 4 or code == 5:
        _check_int("address", addr)
        if code == 5:
            region(arg)
        else:
            _check_int(f"{_KINDS[code]} argument", arg)
        if addr != 0 or code == 3 and arg not in (0, 1) or code == 4 and arg != 0:
            want = ("(3, 0, 0) or (3, 0, 1)", "(4, 0, 0)", "(5, 0, name)")[code - 3]
            raise ValueError(f"{_KINDS[code]} row must be {want}, not {(code, addr, arg)!r}")
    else:
        raise ValueError(f"unknown record kind code {code!r}")


def write_trace(records):
    """Render records (or rows) back to text; parse_trace(write_trace(r)) == r."""
    out = []
    for code, addr, arg in records:
        _check_row(code, addr, arg)
        if code == 0:
            out.append(f"I {addr:x}" if arg == 1 else f"I {addr:x} {arg:d}")
        elif code == 1 or code == 2:
            out.append(f"{_KINDS[code]} {addr:x} {arg:d}")
        elif code == 3:
            out.append(f"B {'T' if arg else 'N'}")
        elif code == 4:
            out.append("Y")
        else:
            out.append(f"R {arg}")
    return "\n".join(out) + ("\n" if out else "")


_REC = struct.Struct("<BQH")
_CHUNK = _REC.size * 8192  # bytes per .ctb read, about 88 KiB
_RUN = _REC.size * 256  # bytes per _PLAIN_RECORDS match, whose stack grows with its run
_TEXT_CHUNK = 4096  # bytes per .ct read, before the rest of its last line
_TEXT_BATCH = 1024  # lines per decode_text read
_LINE_LIMIT = 131072  # bytes of a .ct line before its "\n", about twice the longest record line


def write_trace_binary(records):
    """Render records (or rows) as .ctb bytes; a row that the readers refuse
    (see ``_check_row``) raises a ValueError naming its 1-based ordinal."""
    chunks = []
    for n, (code, addr, arg) in enumerate(records, 1):
        try:
            _check_row(code, addr, arg)
        except ValueError as exc:
            raise ValueError(f"record {n}: {exc}") from None
        if code == 5:
            name = arg.encode("utf-8")
            chunks.append(_REC.pack(5, 0, len(name)) + name)
        else:
            chunks.append(_REC.pack(code, addr, arg))
    return b"".join(chunks)


# Runs of plain .ctb records: those whose row is the tuple iter_unpack gives
# them.  I: op count >= 1.  L/S: size >= 1 and an address whose top byte is
# not 0xFF, so the access cannot run past the address space.  B: address 0
# and flag 0 or 1.  Y: every field 0.  Flat alternatives match faster than
# nested groups.  Compiled (with re.S) at the first .ctb read, so that reading
# a .ct loads no ``re``; ``re``'s cache serves every later read.
_PLAIN_RECORDS = (
    rb"(?:\x00.{8}[^\x00].|\x00.{9}[^\x00]"
    rb"|[\x01\x02].{7}[^\xff][^\x00].|[\x01\x02].{7}[^\xff]\x00[^\x00]"
    rb"|\x03\x00{8}[\x00\x01]\x00|\x04\x00{10})*")


def decode_binary(fh):
    """Yield rows from a binary file object, read ``_CHUNK`` bytes at a time;
    errors carry the 1-based record ordinal."""
    return chain.from_iterable(_binary_stretches(fh))


def _binary_stretches(fh):
    """Iterables of rows, in order, from a binary file object: one
    ``iter_unpack`` per run of plain records, and a one-row tuple for each
    record between runs, which ``_check_row`` checks."""
    import re

    plain_run = re.compile(_PLAIN_RECORDS, re.S).match
    rec = _REC.size
    n = 0  # records decoded
    buf = b""  # bytes not yet decoded: a partial record or region name
    while data := fh.read(_CHUNK):
        buf += data
        off = 0
        while len(buf) - off >= rec:  # a whole fixed part left
            stop = off + _RUN
            end = plain_run(buf, off, stop).end()
            if end > off:
                yield _REC.iter_unpack(memoryview(buf)[off:end])
                n += (end - off) // rec
                off = end
            if off < stop and len(buf) - off >= rec:  # a record that is not plain
                code, addr, arg = _REC.unpack_from(buf, off)
                end = off + rec + (arg if code == 5 else 0)  # a region name's arg bytes follow
                if end > len(buf):  # the name runs past this read: carry the record over
                    break
                n += 1
                if code == 5:
                    arg = _checked(n, bytes.decode, buf[end - arg:end], "utf-8")
                _checked(n, _check_row, code, addr, arg)
                off = end
                yield ((code, addr, arg),)
        buf = buf[off:]
    if buf:
        raise TraceSyntaxError(n + 1, "truncated record" if len(buf) < rec
                               else "truncated region name")


def parse_trace(lines):
    """Yield TraceRecords from an iterable of text lines.

    Raises TraceSyntaxError carrying the 1-based line number on any
    malformed record.
    """
    return map(TraceRecord, decode_text(lines))


def parse_trace_binary(data):
    """Yield TraceRecords from .ctb bytes; errors carry the record ordinal."""
    return map(TraceRecord, decode_binary(io.BytesIO(data)))


def _text_stretches(fh):
    """Iterables of rows, in order, from a .ct file object: the list of
    each chunk of whole lines, by ``_stretch``."""
    line_no = 1  # of the chunk's first line
    while data := fh.read(_TEXT_CHUNK) + fh.readline(_LINE_LIMIT + 1):  # whole lines
        long_line = 0  # the number of a line over _LINE_LIMIT; the lines before it are kept
        if len(data) > _LINE_LIMIT:
            pieces = data.split(b"\n")
            for n, piece in enumerate(pieces):
                if len(piece) > _LINE_LIMIT:
                    long_line, data = line_no + n, b"\n".join(pieces[:n] + [b""])
                    break
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:  # the lines before the bad byte, then its error
            lines = data[:exc.start].decode("utf-8").split("\n")
            yield from _stretch(lines[:-1], line_no)
            raise TraceSyntaxError(line_no + len(lines) - 1,
                                   f"not valid UTF-8: {exc.reason}") from None
        lines = text.split("\n")
        yield from _stretch(lines, line_no, "#" in text)
        if long_line:
            raise TraceSyntaxError(long_line, f"line is over the limit of {_LINE_LIMIT} bytes")
        line_no += len(lines) - 1


def _stretch(lines, line_no, comments=True):
    """Yield the rows of text lines numbered from ``line_no`` as one list,
    each line's comment cut first if ``comments``; then raise the error of
    the line ``_plain_rows`` refused, if it refused one."""
    if comments:
        lines = [line.split("#", 1)[0] if "#" in line else line for line in lines]
    rows, bad = _plain_rows(lines)
    yield rows
    if bad is not None:  # a line of the same text before it would have been refused first
        _line_error(bad, line_no + lines.index(bad))


def _plain_rows(lines):
    """The rows of comment-free text lines before the first line that fails
    an inline test, and that line, or None if none fails."""
    rows = []
    append = rows.append
    try:  # int() of a token that is not a number, or region() of a bad name
        for line in lines:
            toks = line.split()
            n = len(toks)
            if n == 3:
                kind, addr, arg = toks
                addr = int(addr, 16)
                arg = int(arg)
                if kind == "I":
                    if not 0 < arg <= 0xFFFF or not 0 <= addr <= MAX_ADDR:
                        return rows, line
                    append((0, addr, arg))
                elif kind == "L" or kind == "S":
                    if addr < 0 or not 0 < arg <= 0xFFFF or addr + arg > _ADDR_END:
                        return rows, line
                    append((1 if kind == "L" else 2, addr, arg))
                else:
                    return rows, line
            elif n == 2:
                kind, arg = toks
                if kind == "I":
                    addr = int(arg, 16)
                    if not 0 <= addr <= MAX_ADDR:
                        return rows, line
                    append((0, addr, 1))
                elif kind == "B" and (arg == "T" or arg == "N"):
                    append(_TAKEN if arg == "T" else _NOT_TAKEN)
                elif kind == "R":
                    append(region(arg))
                else:
                    return rows, line
            elif n == 1 and toks[0] == "Y":
                append(_SYSCALL)
            elif n:
                return rows, line
    except ValueError:
        return rows, line
    return rows, None


def read_rows(path):
    """The rows of a .ct or .ctb trace file, passed on by ``chain`` with no
    Python frame per row.  The file opens at the first row (a missing file
    raises there) and closes after the last, or when the iterator is dropped."""
    def opened():
        with open(path, "rb") as fh:
            yield from (_binary_stretches if str(path).endswith(".ctb") else _text_stretches)(fh)
    return chain.from_iterable(opened())


def read_trace_path(path):
    """Open a .ct or .ctb trace file as a record iterator."""
    return map(TraceRecord, read_rows(path))


def write_trace_path(path, records):
    """Write records (or rows) as a .ct or .ctb file.  They are rendered
    before the file opens, so a record that fails leaves the file as it was."""
    if str(path).endswith(".ctb"):
        data = write_trace_binary(records)
    else:
        data = write_trace(records).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


# Trace generators.  All produce single-byte loads, so each record touches
# exactly one block under every geometry being compared.

def gen_sequential(start, count, stride):
    """Loads at start, start+stride, ... (count records): one pass of ``gen_loop``."""
    if count < 0 and stride >= 1:  # gen_loop refuses a bad stride first
        raise ValueError("count must be >= 0")
    return gen_loop(start, count * stride, 1, stride)


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
    import random

    rng = random.Random(seed)
    return [load(base + rng.randrange(range_bytes), 1) for _ in range(count)]
