import copy
import io
import pickle
import random
import re
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from cachesim import trace
from cachesim import (
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
from cachesim.cli import main
from cachesim.trace import MAX_ADDR, decode_binary, decode_text, read_rows


def test_parse_grammar_basics():
    records = list(parse_trace([
        "I 400000",
        "I 400004 3",
        "L 7fff0 4",
        "S 7fff0 4",
        "B T",
        "B N",
        "Y",
        "R main",
        "# a comment",
        "",
        "L 10 1  # trailing comment",
    ]))
    assert records == [
        inst(0x400000),
        inst(0x400004, 3),
        load(0x7FFF0, 4),
        store(0x7FFF0, 4),
        branch(True),
        branch(False),
        syscall(),
        region("main"),
        load(0x10, 1),
    ]
    assert records[0].ops == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceSyntaxError) as exc:
        list(parse_trace(["I 400000", "B X"]))
    assert exc.value.line_no == 2

    with pytest.raises(TraceSyntaxError) as exc:
        list(parse_trace(["L zz 4"]))
    assert exc.value.line_no == 1
    assert "hex" in exc.value.reason

    with pytest.raises(TraceSyntaxError):
        list(parse_trace(["L 10 0"]))  # bad size
    with pytest.raises(TraceSyntaxError):
        list(parse_trace(["L 10"]))
    with pytest.raises(TraceSyntaxError):
        list(parse_trace(["Q 10"]))
    with pytest.raises(TraceSyntaxError):
        list(parse_trace(["L 1ffffffffffffffff 4"]))  # past 2^64-1
    with pytest.raises(TraceSyntaxError, match="bad hex address 'zz'"):
        list(parse_trace(["I zz 0"]))  # each token's syntax is checked before any range
    with pytest.raises(TraceSyntaxError, match="^trace line 1: Y takes no arguments$"):
        list(parse_trace(["Y 5"]))


def _packed(rows):
    """.ctb bytes of I, L and S rows packed as they stand, even those that
    the writer refuses; other rows as the writer writes them."""
    return b"".join(struct.pack("<BQH", *row) if row[0] <= 2 else write_trace_binary([row])
                    for row in rows)


def test_access_past_address_space_rejected():
    top = 2**64 - 1
    for make in (load, store):
        assert make(top, 1).addr == top
        assert make(top - 7, 8).size == 8
        with pytest.raises(ValueError, match="past the address space"):
            make(top, 8)
    with pytest.raises(TraceSyntaxError) as exc:
        list(parse_trace(["L ffffffffffffffff 1", "S ffffffffffffffff 8"]))
    assert exc.value.line_no == 2
    data = _packed([load(top, 1), TraceRecord((1, top, 8))])
    with pytest.raises(TraceSyntaxError) as exc:
        list(parse_trace_binary(data))
    assert exc.value.line_no == 2
    # One byte past the top, after an access that ends exactly at it.
    with pytest.raises(TraceSyntaxError, match="line 2: 2-byte access at 0xffffffffffffffff"):
        list(parse_trace(["S fffffffffffffffe 2", "S ffffffffffffffff 2"]))
    data = _packed([store(top - 1, 2), TraceRecord((2, top, 2))])
    with pytest.raises(TraceSyntaxError, match="line 2: 2-byte access at 0xffffffffffffffff"):
        list(parse_trace_binary(data))


def test_non_utf8_text_trace_names_its_line(tmp_path):
    p = tmp_path / "t.ct"
    p.write_bytes(b"I 400000\r\nR caf\xc3\xa9\nR \xff\n")
    with pytest.raises(TraceSyntaxError) as exc:
        list(read_trace_path(p))
    assert exc.value.line_no == 3
    assert "UTF-8" in exc.value.reason


@pytest.mark.parametrize("text_chunk", [1, 5, 4096])
@pytest.mark.parametrize("blob, line_no, reason", [
    (b"I 0\nL 10 4\nR \xc2\nY\n", 3, "invalid continuation byte"),  # the line's "\n" follows
    (b"I 0\nL 10 4\nR \xc2", 3, "unexpected end of data"),  # the file ends
    (b"I 0\nL 10 4\nR a\xff\xc2\n", 3, "invalid start byte"),
])
def test_rows_before_a_bad_utf8_byte_come_first(tmp_path, monkeypatch, blob, line_no, reason,
                                                 text_chunk):
    monkeypatch.setattr(trace, "_TEXT_CHUNK", text_chunk)
    p = tmp_path / "t.ct"
    p.write_bytes(blob)
    assert _outcome(read_rows(p)) == (_fields([(0, 0, 1), (1, 0x10, 4)]),
                                      (f"trace line {line_no}: not valid UTF-8: {reason}", line_no))


@pytest.mark.parametrize("sep", ["\r", "\x0c", "\x1c", "\x85", "\u2028"])
def test_only_newline_ends_a_text_line(tmp_path, sep):
    p = tmp_path / "t.ct"
    p.write_bytes(f"I 0{sep}\nL 10{sep}4{sep}# c{sep}x\n{sep}B T\nB X\n".encode())
    assert _outcome(read_rows(p)) == (_fields([(0, 0, 1), (1, 0x10, 4), (3, 0, 1)]),
                                      ("trace line 4: B takes T or N", 4))


def test_reading_a_text_trace_holds_one_small_chunk(tmp_path):
    p = tmp_path / "t.ct"
    p.write_text("I 400000 3\nL 7fff0 4  # a comment\nB T\n" * 34_000)
    tracemalloc.start()
    try:
        n = sum(1 for _ in read_rows(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 102_000
    assert peak < 256 * 1024, peak


def test_a_line_over_the_limit_is_refused_from_one_chunk(tmp_path, capsys):
    # 8 MB on one line: the reader holds one chunk and the limit's worth of
    # the line, never the line, and refuses it at line 1.
    assert trace._LINE_LIMIT == reference.LINE_LIMIT == 131072
    p = tmp_path / "t.ct"
    p.write_bytes(b"I 0 " * 2_000_000)
    message = "trace line 1: line is over the limit of 131072 bytes"
    tracemalloc.start()
    try:
        outcome = _outcome(read_rows(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == ([], (message, 1))
    assert peak < 1024 * 1024, peak
    assert main(["sim", "--clock", "1", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text_chunk", [1, 5, 4096])
@pytest.mark.parametrize("tail", [b"\nB T\n", b""], ids=["line-after", "file-end"])
def test_a_line_of_the_limit_reads_and_one_byte_more_does_not(tmp_path, monkeypatch, text_chunk,
                                                                tail):
    # A line of _LINE_LIMIT bytes before its "\n" (or the file's end) reads.
    # One byte more is refused by its line number, after the rows of the
    # lines before it, and a bad byte past the limit is never decoded.
    monkeypatch.setattr(trace, "_TEXT_CHUNK", text_chunk)
    p = tmp_path / "t.ct"
    line = b"I 0".ljust(trace._LINE_LIMIT, b" ")
    p.write_bytes(b"Y\n" + line + tail)
    want = _fields([(4, 0, 0), (0, 0, 1)] + [(3, 0, 1)] * bool(tail))
    assert _outcome(read_rows(p)) == _outcome(reference.read_trace_path(p)) == (want, None)
    p.write_bytes(b"Y\n" + line + b"\xff" + tail)
    want = _fields([(4, 0, 0)]), ("trace line 2: line is over the limit of 131072 bytes", 2)
    assert _outcome(read_rows(p)) == _outcome(reference.read_trace_path(p)) == want


@pytest.mark.parametrize("text_chunk", [1, 7, 33, 4096])
def test_valid_lines_never_reach_the_line_error(tmp_path, monkeypatch, text_chunk):
    # Every spelling of every kind: tabs and runs of spaces, both hex cases,
    # 0x, leading zeros, \r\n, blank, space-only and comment-only lines,
    # trailing comments, B, Y, and R with TOTAL and a non-ASCII name.
    text = ("# a trace\nR main  # entry\nI 400000\n\tI\t40000A  3 # three ops\r\n  L 0x7fff0 4\n"
            "S 0007FFF8\t\t8\r\n\n   \n \t\r\n#\n  # indented\nI 0X0 01#\nB T\nB  N\r\nY\n"
            "  Y  # call\nR TOTAL\nR caf\u00e9#x\r\nI ffffffffffffffff 65535\n"
            "L FFFFFFFFFFFFFFFF 1\nS 0 00065535\nR main")
    rows = [region("main"), inst(0x400000), inst(0x40000A, 3), load(0x7FFF0, 4),
            store(0x7FFF8, 8), inst(0), branch(True), branch(False), syscall(), syscall(),
            region("TOTAL"), region("caf\u00e9"), inst(MAX_ADDR, 0xFFFF), load(MAX_ADDR, 1),
            store(0, 0xFFFF), region("main")]
    (tmp_path / "t.ct").write_bytes(text.encode())

    def line_error(line, line_no):
        raise AssertionError(f"line {line_no} {line!r} was refused")

    monkeypatch.setattr(trace, "_line_error", line_error)
    monkeypatch.setattr(trace, "_TEXT_CHUNK", text_chunk)
    assert _fields(read_rows(tmp_path / "t.ct")) == _fields(rows)
    assert _fields(decode_text(text.split("\n"))) == _fields(rows)


# Lines at the edge of each inline test, valid or not, some with a comment.
_EDGE_LINES = ["I 0 0", "I 0 65536", "I ffffffffffffffff 65535", "I 10000000000000000", "I -1",
               "I 0 1 2", "I", "I zz", "I 0 zz", "L ffffffffffffffff 1", "L ffffffffffffffff 2",
               "S fffffffffffffff0 16", "S fffffffffffffff0 17", "L 0 0", "S 0 65536", "L -1 4",
               "L 0 -1", "L 0", "S 0 4 4", "L 10000000000000000 1", "S zz 4", "B X", "B", "B T N",
               "Y 5", "YY", "R", "R a b", "R " + "n" * 0xFFFF, "R " + "n" * 0x10000, "Q 1 2", "Q 1",
               "Q", "T 0 1", "L 0 0 # c", "R a#b", "B T#", "I#", "# only", "Y 5 # c"]


@pytest.mark.parametrize("text_chunk", [1, 4096])
@pytest.mark.parametrize("line", _EDGE_LINES, ids=lambda line: line[:24])
def test_the_text_readers_agree_on_every_edge_line(tmp_path, monkeypatch, line, text_chunk):
    monkeypatch.setattr(trace, "_TEXT_CHUNK", text_chunk)
    p = tmp_path / "t.ct"
    p.write_text(f"I 400000\n{line}\nY\n")
    want = _outcome(decode_text(["I 400000", line, "Y"]))
    assert _outcome(read_rows(p)) == _outcome(reference.read_trace_path(p)) == want


@pytest.mark.parametrize("bad_line", [2 * trace._TEXT_BATCH, 2 * trace._TEXT_BATCH + 1],
                         ids=["last-of-a-batch", "first-of-the-next"])
def test_decode_text_numbers_lines_across_its_batches(bad_line):
    # Over three batches of lines, blank and commented ones among them; a
    # fault in the third batch or at the end of the second is named by its
    # line in the whole input, not in its batch.
    lines = [f"L {n:x} 4  # line {n + 1}" if n % 3 else ""
             for n in range(3 * trace._TEXT_BATCH + 5)]
    assert _outcome(decode_text(iter(lines))) == _outcome(reference.parse_trace(lines))
    lines[bad_line - 1] = "B X"
    want = _outcome(reference.parse_trace(lines))
    assert want[1] == (f"trace line {bad_line}: B takes T or N", bad_line)
    assert _outcome(decode_text(iter(lines))) == want


def test_reading_a_binary_trace_holds_one_chunk(tmp_path):
    # 3.3 MB of records; markers split the runs of plain records.
    p = tmp_path / "t.ctb"
    p.write_bytes(write_trace_binary(
        [inst(0x400000, 3), load(0x7fff0, 4), branch(True), store(0x7fff8, 8), region("f")]
        * 60_000))
    tracemalloc.start()
    try:
        n = sum(1 for _ in read_rows(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 300_000
    # A read of _CHUNK (88 KiB), its copy after the carried bytes, one match's stack.
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("ext", [".ct", ".ctb"])
def test_read_rows_holds_its_file_open_only_while_rows_are_read(tmp_path, monkeypatch, ext):
    records = [load(0x40 * i, 4) for i in range(3)]
    good, bad = tmp_path / f"t{ext}", tmp_path / f"bad{ext}"
    if ext == ".ct":
        good.write_text(write_trace(records))
        bad.write_bytes(b"I 0\nB X\n")
    else:
        good.write_bytes(write_trace_binary(records))
        bad.write_bytes(write_trace_binary(records)[:-3])  # a truncated record
    opened = []

    def spy(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(trace, "open", spy, raising=False)
    rows = read_rows(good)
    del rows  # dropped unstarted
    rows = read_rows(good)
    assert opened == []  # nothing opens before the first row
    assert next(rows) == records[0]
    assert len(opened) == 1 and not opened[0].closed
    del rows  # dropped mid-way
    assert opened[0].closed
    rows = read_rows(good)
    assert list(rows) == records and opened[1].closed  # closed at the end
    rows = read_rows(bad)
    with pytest.raises(TraceSyntaxError):
        list(rows)
    del rows
    assert opened[2].closed
    rows = read_rows(tmp_path / f"missing{ext}")
    with pytest.raises(FileNotFoundError, match="missing"):
        next(rows)
    assert len(opened) == 3


def test_write_trace_examples():
    assert write_trace([inst(0x400000, 1)]) == "I 400000\n"
    assert write_trace([region("main")]) == "R main\n"
    assert write_trace([]) == ""


def _random_records(rng, n):
    out = []
    for _ in range(n):
        k = rng.randrange(6)
        if k == 0:
            out.append(inst(rng.randrange(1 << 40), rng.randrange(1, 5)))
        elif k == 1:
            out.append(load(rng.randrange(1 << 40), rng.randrange(1, 64)))
        elif k == 2:
            out.append(store(rng.randrange(1 << 40), rng.randrange(1, 64)))
        elif k == 3:
            out.append(branch(rng.random() < 0.5))
        elif k == 4:
            out.append(syscall())
        else:
            out.append(region(f"fn{rng.randrange(8)}"))
    return out


def test_text_round_trip_random_records():
    rng = random.Random(7)
    records = _random_records(rng, 1000)
    assert list(parse_trace(write_trace(records).splitlines())) == records


def test_binary_round_trip_random_records():
    rng = random.Random(8)
    records = _random_records(rng, 1000)
    assert list(parse_trace_binary(write_trace_binary(records))) == records


def test_binary_layout_is_fixed():
    data = write_trace_binary([load(0x1122334455667788, 4)])
    assert data == bytes([1]) + (0x1122334455667788).to_bytes(8, "little") + (4).to_bytes(2, "little")
    data = write_trace_binary([region("ab")])
    assert data == bytes([5, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0]) + b"ab"


def test_binary_truncation_detected():
    data = write_trace_binary([load(0, 4)])[:-1]
    with pytest.raises(TraceSyntaxError):
        list(parse_trace_binary(data))


def test_binary_branch_flag_is_0_or_1():
    # As the text decoder rejects "B X", a branch flag other than 0 or 1 is an
    # error naming the record, not a not-taken branch.
    good = write_trace_binary([syscall(), branch(True), branch(False)])
    assert list(parse_trace_binary(good)) == [syscall(), branch(True), branch(False)]
    # The rows hold the flag as 0 or 1, as unpacked; a TraceRecord's taken is a bool.
    assert [type(r[2]) for r in decode_binary(io.BytesIO(good))] == [int, int, int]
    assert [r.taken for r in parse_trace_binary(good)] == [False, True, False]
    assert all(type(r.taken) is bool for r in parse_trace_binary(good))
    for val in (2, 7, 0xFFFF):
        data = good[:-2] + val.to_bytes(2, "little")
        for parse in (parse_trace_binary, reference.parse_trace_binary):
            message = f"trace line 3: B row must be (3, 0, 0) or (3, 0, 1), not (3, 0, {val})"
            with pytest.raises(TraceSyntaxError, match=f"^{re.escape(message)}$"):
                list(parse(data))


def test_binary_writer_refuses_what_ctb_cannot_hold():
    # The 2-byte field holds a size, an op count or a name length up to 65,535.
    longest = "n" * 0xFFFF
    records = [load(0, 0xFFFF), inst(0, 0xFFFF), region(longest)]
    assert list(parse_trace_binary(write_trace_binary(records))) == records
    for rows, message in (([(1, 0, 70000)], "size must be 1 to 65535, got 70000"),
                          ([(0, 0, 1), (0, 0, 0x10000)], "ops must be 1 to 65535, got 65536")):
        with pytest.raises(ValueError, match=f"^record {len(rows)}: {message}$"):
            write_trace_binary(rows)
    with pytest.raises(ValueError, match="^record 2: region name is 65536 bytes of UTF-8, "
                                         "over the limit of 65535$"):
        write_trace_binary([branch(True), (5, 0, "\u00e9" * 0x8000)])
    with pytest.raises(ValueError, match="^record 2: region name must be a single token"):
        write_trace_binary([syscall(), (5, 0, "a b")])


@pytest.mark.parametrize("row, message", [
    ((0, 5, 0), "ops must be 1 to 65535, got 0"),
    ((1, 16, 0), "size must be 1 to 65535, got 0"),
    ((2, MAX_ADDR, 5), "5-byte access at 0xffffffffffffffff runs past the address space"),
    ((0, -1, 1), "address out of range: -0x1"),
    ((3, 0, 2), r"B row must be \(3, 0, 0\) or \(3, 0, 1\), not \(3, 0, 2\)"),
    ((3, 8, 1), r"B row must be \(3, 0, 0\) or \(3, 0, 1\), not \(3, 8, 1\)"),
    ((4, 0, 1), r"Y row must be \(4, 0, 0\), not \(4, 0, 1\)"),
    ((5, 3, "main"), r"R row must be \(5, 0, name\), not \(5, 3, 'main'\)"),
    ((6, 0, 0), "unknown record kind code 6"),
    ((3, 0.0, 1.0), "address must be an integer, got 0.0"),
    ((3, 0, 1.0), "B argument must be an integer, got 1.0"),
    ((4, 0.0, 0), "address must be an integer, got 0.0"),
    ((5, 0, 5), "region name must be a string, got 5"),
    ((1.0, 16, 4), "kind code must be an integer, got 1.0"),
    ((0, 5, 0x10000), "ops must be 1 to 65535, got 65536"),
    ((2, 16, 100000), "size must be 1 to 65535, got 100000"),
])
def test_writers_refuse_rows_that_their_readers_refuse(row, message):
    # The text writer raises the message of the rule broken, the binary
    # writer the same after the record's ordinal.
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_trace([syscall(), row])
    with pytest.raises(ValueError, match=f"^record 2: {message}$"):
        write_trace_binary([syscall(), row])


@pytest.mark.parametrize("value", [2.5, 4.0, "16", None])
@pytest.mark.parametrize("code, field", [(0, "address"), (0, "ops"), (1, "address"),
                                         (1, "size"), (2, "address"), (2, "size")])
def test_fields_that_are_not_integers_are_refused_by_name(code, field, value):
    # The constructors, and both writers through them, name the field; a
    # bool is an int, and is taken.
    make = (inst, load, store)[code]
    args = (value, 4) if field == "address" else (0x10, value)
    message = f"{field} must be an integer, got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(*args)
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_trace([syscall(), (code, *args)])
    with pytest.raises(ValueError, match=f"^record 2: {message}$"):
        write_trace_binary([syscall(), (code, *args)])
    assert make(True, True) == (code, 1, 1)


# Rows drawn field by field, valid or not: op counts and sizes of 0, accesses
# at and past the top of the address space, fields that are floats, B and Y
# rows with other fields, kind codes past R, and region names that are not
# single tokens.
_ROW_ADDRS = st.one_of(st.sampled_from([0, 1, MAX_ADDR - 1, MAX_ADDR, MAX_ADDR + 1, -1, 16.0,
                                        0.5]),
                       st.integers(0, MAX_ADDR))
_ROW_ARGS = st.one_of(st.sampled_from([0, 1, 2, 0xFFFF, 0x10000, -1, 4.0, 2.5]),
                      st.integers(0, 200), st.booleans())
_ROW_NAMES = st.one_of(st.sampled_from(["main", "TOTAL", "caf\u00e9", "a b", "#", "", "a\rb"]),
                       st.text(max_size=4))


@st.composite
def _drawn_rows(draw):
    out = []
    for code in draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 2, 3, 4, 5, 6, -1]), max_size=8)):
        if code == 5:
            out.append((5, draw(st.sampled_from([0, 0, 3])), draw(_ROW_NAMES)))
        else:
            out.append((code, draw(_ROW_ADDRS), draw(_ROW_ARGS)))
    return out


@settings(max_examples=400, deadline=None)
@given(rows=_drawn_rows())
def test_writers_write_only_rows_that_read_back(rows):
    # Each writer refuses a row with a ValueError, or what it writes
    # decodes to the rows it was given; both refuse the same rows.
    refused = []
    for write, decode in ((write_trace, lambda text: decode_text(text.split("\n"))),
                          (write_trace_binary, lambda data: decode_binary(io.BytesIO(data)))):
        try:
            written = write(rows)
        except ValueError:
            refused.append(write)
            continue
        assert list(decode(written)) == rows
    assert len(refused) in (0, 2), refused


def test_file_round_trip(tmp_path):
    records = _random_records(random.Random(9), 200)
    text_path = tmp_path / "t.ct"
    bin_path = tmp_path / "t.ctb"
    write_trace_path(text_path, records)
    write_trace_path(bin_path, records)
    assert list(read_trace_path(text_path)) == records
    assert list(read_trace_path(bin_path)) == records
    assert bin_path.read_bytes() == write_trace_binary(records)


def test_region_name_validation():
    with pytest.raises(ValueError):
        region("two words")
    with pytest.raises(ValueError, match="^region name must be a string, got 5$"):
        region(5)
    with pytest.raises(ValueError):
        region("")
    with pytest.raises(ValueError):
        write_trace([TraceRecord((5, 0, "has space"))])
    # Every character str.isspace calls a space, alone or inside a name.
    spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
    assert len(spaces) == 29
    for c in spaces:
        for name in (c, f"a{c}b", f"{c}ab", f"ab{c}", c * 2):
            with pytest.raises(ValueError, match="^region name must be a single token "
                                                 f"without '#': {re.escape(repr(name))}$"):
                region(name)
    for name in ("", "#", "a#b"):
        with pytest.raises(ValueError, match="^region name must be a single token "
                                             f"without '#': {re.escape(repr(name))}$"):
            region(name)


@pytest.mark.parametrize("ext", [".ct", ".ctb"])
def test_a_name_utf8_cannot_hold_is_refused_and_the_file_kept(tmp_path, ext):
    # A lone surrogate has no UTF-8 form, so no trace file can hold it.
    message = r"region name is not encodable as UTF-8: 'a\\ud800b'"
    with pytest.raises(ValueError, match=f"^{message}$"):
        region("a\ud800b")
    region("caf\u00e9\U0001d11e")  # any other character is held
    p = tmp_path / f"t{ext}"
    write_trace_path(p, [inst(0x40)])
    kept = p.read_bytes()
    with pytest.raises(ValueError, match=message):
        write_trace_path(p, [syscall(), (5, 0, "a\ud800b")])
    assert p.read_bytes() == kept  # rendered before the file opened
    with pytest.raises(ValueError, match=message):
        write_trace_path(tmp_path / f"new{ext}", [(5, 0, "a\ud800b")])
    assert not (tmp_path / f"new{ext}").exists()


# Names of 65,535 and 65,536 bytes of UTF-8, in characters of one to four
# bytes.  Each has over 16,383 characters, so region() encodes it to count.
LONGEST_NAMES = ["n" * 0xFFFF, "\u00e9" * 0x7FFF + "n", "\u20ac" * 0x5555,
                 "\U0001d11e" * 0x3FFF + "nnn"]
TOO_LONG_NAMES = ["n" * 0x10000, "\u00e9" * 0x8000, "\u20ac" * 0x5555 + "n",
                  "\U0001d11e" * 0x4000]
CHAR_WIDTHS = ["1-byte", "2-byte", "3-byte", "4-byte"]


@pytest.mark.parametrize("name", LONGEST_NAMES, ids=CHAR_WIDTHS)
def test_ct_and_ctb_both_hold_a_name_of_65535_bytes(tmp_path, name):
    assert len(name.encode("utf-8")) == 0xFFFF
    rows = [syscall(), region(name), inst(0x40)]
    (tmp_path / "t.ct").write_text(write_trace(rows), encoding="utf-8")
    write_trace_path(tmp_path / "t.ctb", rows)
    for ext in (".ct", ".ctb"):
        assert list(read_rows(tmp_path / f"t{ext}")) == rows
    assert list(parse_trace_binary(write_trace_binary(rows))) == rows


@pytest.mark.parametrize("name", TOO_LONG_NAMES, ids=CHAR_WIDTHS)
def test_ct_and_ctb_both_refuse_a_name_of_65536_bytes(tmp_path, capsys, name):
    assert len(name.encode("utf-8")) == 0x10000
    message = "region name is 65536 bytes of UTF-8, over the limit of 65535"
    with pytest.raises(ValueError, match=f"^{message}$"):
        region(name)
    # A .ct line holds the name, and its reader and sim refuse it; a .ctb
    # record cannot, and both writers refuse it.
    ct = tmp_path / "t.ct"
    ct.write_text(f"Y\nR {name}\nI 40\n", encoding="utf-8")
    with pytest.raises(TraceSyntaxError, match=f"^trace line 2: {message}$"):
        list(read_rows(ct))
    assert main(["sim", "--clock", "1", str(ct)]) == 2
    assert capsys.readouterr().err == f"error: trace line 2: {message}\n"
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_trace([syscall(), (5, 0, name)])
    with pytest.raises(ValueError, match=f"^record 2: {message}$"):
        write_trace_binary([syscall(), (5, 0, name)])


@pytest.mark.parametrize("line, want", [
    ("L 0 100000000000", "size must be 1 to 65535, got 100000000000"),
    ("S 10 65536", "size must be 1 to 65535, got 65536"),
    ("I 0 65536", "ops must be 1 to 65535, got 65536"),
    ("L 0 65535", (1, 0, 0xFFFF)),
    ("I 0 65535", (0, 0, 0xFFFF)),
])
def test_ct_bounds_a_size_and_an_op_count_as_ctb_does(tmp_path, capsys, line, want):
    # A .ct line holds no more than a .ctb record, so no 17-byte file makes
    # sim or sweep walk billions of blocks.
    ct = tmp_path / "t.ct"
    ct.write_text(line + "\n")
    if isinstance(want, tuple):
        assert list(read_rows(ct)) == [want]
        return
    with pytest.raises(TraceSyntaxError, match=f"^trace line 1: {want}$"):
        list(read_rows(ct))
    for argv in (["sim", "--clock", "1"], ["sweep", "--sets", "1", "--bsize", "32", "--assoc", "1"]):
        assert main(argv + [str(ct)]) == 2
        assert capsys.readouterr().err == f"error: trace line 1: {want}\n"


def test_gen_sequential():
    records = gen_sequential(0, 4, 32)
    assert [r.addr for r in records] == [0, 32, 64, 96]
    assert all(r.kind == "L" and r.size == 1 for r in records)
    assert gen_sequential(0, 0, 32) == []
    with pytest.raises(ValueError):
        gen_sequential(0, 4, 0)


@pytest.mark.parametrize("start, count, stride", [(0, 0, 32), (0, 4, 32), (0x1000, 5, 1),
                                                  (7, 3, 100)])
def test_gen_sequential_is_one_pass_of_gen_loop(start, count, stride):
    assert gen_sequential(start, count, stride) == gen_loop(start, count * stride, 1, stride)


@pytest.mark.parametrize("count, stride, message", [
    (4, 0, "stride must be >= 1"),
    (-1, 32, "count must be >= 0"),
    (-1, 0, "stride must be >= 1"),  # a bad stride is named first
])
def test_gen_sequential_names_a_bad_stride_before_a_bad_count(count, stride, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_sequential(0, count, stride)


def test_gen_loop():
    records = gen_loop(0, 128, 2, 32)
    assert [r.addr for r in records] == [0, 32, 64, 96, 0, 32, 64, 96]


def test_gen_random_is_reproducible():
    a = gen_random(12, 0x1000, 4096, 50)
    b = gen_random(12, 0x1000, 4096, 50)
    assert a == b
    assert all(0x1000 <= r.addr < 0x2000 for r in a)
    assert gen_random(13, 0x1000, 4096, 50) != a


def test_records_are_their_rows():
    assert load(0x10, 4) == (1, 0x10, 4) and TraceRecord((1, 0x10, 4)) == load(0x10, 4)
    records = [inst(8, 3), load(8, 4), store(8, 2), branch(True), branch(False), syscall(),
               region("f")]
    rows = [(0, 8, 3), (1, 8, 4), (2, 8, 2), (3, 0, 1), (3, 0, 0), (4, 0, 0), (5, 0, "f")]
    assert _fields(records) == _fields(rows)
    assert all(type(r) is TraceRecord for r in records)
    assert [TraceRecord(row) for row in rows] == records
    r = region("f")
    assert (r.kind, r.addr, r.size, r.ops, r.taken, r.name) == ("R", 0, 0, 1, False, "f")
    r = inst(8, 3)
    assert (r.kind, r.addr, r.size, r.ops, r.taken, r.name) == ("I", 8, 0, 3, False, "")
    r = branch(True)
    assert (r.kind, r.addr, r.size, r.ops, r.taken, r.name) == ("B", 0, 0, 1, True, "")
    with pytest.raises(AttributeError):
        r.taken = False
    for r in records:
        twins = [copy.copy(r), copy.deepcopy(r)]
        twins += [pickle.loads(pickle.dumps(r, protocol)) for protocol in range(6)]
        for twin in twins:
            assert _fields([twin]) == _fields([r]) and type(twin) is TraceRecord


# Differential tests: the row decoders against the TraceRecord-building
# decoders they replaced (reference.parse_trace, parse_trace_binary and
# read_trace_path), on valid traces and on mutated or truncated bytes.

_ADDRS = st.one_of(st.integers(0, 1 << 16), st.integers(0, MAX_ADDR),
                   st.integers(MAX_ADDR - 130, MAX_ADDR))


@st.composite
def _records(draw, valid=True):
    """Up to 40 records; with ``valid`` false, op counts and sizes may be 0
    and accesses may run past the address space."""
    out = []
    for kind in draw(st.lists(st.sampled_from("ILSBYR"), max_size=40)):
        addr = draw(_ADDRS)
        if kind == "I":
            out.append(TraceRecord((0, addr, draw(st.integers(1 - (not valid), 0xFFFF)))))
        elif kind in "LS":
            size = draw(st.integers(1 - (not valid), 130))  # spans blocks
            size = min(size, MAX_ADDR - addr + 1) if valid else size
            out.append(TraceRecord(("ILS".index(kind), addr, size)))
        elif kind == "B":
            out.append(branch(draw(st.booleans())))
        elif kind == "Y":
            out.append(syscall())
        else:
            out.append(region(draw(st.sampled_from(["main", "fn1", "TOTAL", "caf\u00e9", "r_2"]))))
    return out


# Tokens that break a record: bad numbers, out-of-range values, bad kinds.
_BAD_TOKENS = ["zz", "0", "-1", "+2", "65536", "1ffffffffffffffff", "1_0", "X", "Q", "T"]


def _tokens(r):
    """The text tokens of a record; an I, L or S record written as it
    stands, even one that the writer refuses."""
    if r.kind in "ILS":
        return [r.kind, f"{r.addr:x}"] + ([] if r.kind == "I" and r.ops == 1 else [str(r[2])])
    return write_trace([r]).split()


@st.composite
def _text_lines(draw, records, bad=False):
    """``records`` as text lines, spelled every way the grammar allows:
    spacing, hex case, 0x prefixes and leading zeros, comments, blank
    lines and \\r\\n endings; with ``bad``, about one token in five
    replaced from _BAD_TOKENS."""
    lines = []
    for r in records:
        toks = _tokens(r)
        if r.kind in "ILS" and draw(st.booleans()):
            toks[1] = draw(st.sampled_from([f"{r.addr:X}", f"0x{r.addr:x}", f"{r.addr:020x}"]))
        if r.kind == "I" and r.ops == 1 and draw(st.booleans()):
            toks.append("1")
        if bad:
            toks = [draw(st.sampled_from(_BAD_TOKENS)) if draw(st.integers(0, 4)) == 0 else t
                    for t in toks]
        line = draw(st.sampled_from([" ", "\t", "  "])).join(toks)
        line = draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", " # c", "#c"]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["\n", "# only a comment\n", "  \r\n", "#\n"])))
    return lines


# Text pieces that mutations insert: record letters, digits, separators,
# characters that break lines for str.splitlines but not for the .ct
# grammar, non-ASCII digits and spaces, and a byte that is not UTF-8.
_TEXT_PIECES = [c.encode() for c in
                "ILSBYRTNQ0179afx#-_ \t\r\n\x0c\x1c\x85\u00a0\u0661\u00e9\u2028"] + [b"\xff"]


@st.composite
def _mutated(draw, blob, pieces):
    """``blob`` after one to three byte flips, deletions, insertions
    (of ``pieces``, or any bytes when None) or truncations."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(blob)))
        op = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        if op == "truncate":
            del blob[i:]
        elif op == "delete":
            del blob[i:i + draw(st.integers(1, 12))]
        elif op == "insert":
            blob[i:i] = b"".join(draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=4))) \
                if pieces else draw(st.binary(min_size=1, max_size=12))
        elif i < len(blob):
            blob[i] = draw(st.integers(0, 255))
    return bytes(blob)


def _fields(rows):
    """Each row's fields with their types, so that a flag of True and one
    of 1, equal as values, differ."""
    return [[(type(f), f) for f in row] for row in rows]


def _outcome(rows):
    """The fields of the rows an iterator yields, then its TraceSyntaxError
    (message and line or record number), or None when it ends cleanly."""
    got = []
    try:
        for r in rows:
            got.append(r)
    except TraceSyntaxError as exc:
        return _fields(got), (str(exc), exc.line_no)
    return _fields(got), None


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decoded")


# Read sizes of 1 to 60 bytes, so records, lines and names straddle the reads.
_READ_SIZES = st.integers(1, 60)


@settings(max_examples=200, deadline=None)
@given(records=_records(), data=st.data(), chunk=_READ_SIZES, text_chunk=_READ_SIZES)
def test_decoders_match_oracles_on_valid_traces(scratch_dir, records, data, chunk, text_chunk):
    lines = data.draw(_text_lines(records))
    want = _fields(records)  # values and field types
    assert _fields(decode_text(lines)) == _fields(reference.parse_trace(lines)) == want
    blob = write_trace_binary(records)
    (scratch_dir / "v.ct").write_bytes("".join(lines).encode())
    (scratch_dir / "v.ctb").write_bytes(blob)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_CHUNK", chunk)
        mp.setattr(trace, "_TEXT_CHUNK", text_chunk)
        assert _fields(decode_binary(io.BytesIO(blob))) == want
        assert _fields(read_rows(scratch_dir / "v.ct")) == want
        assert _fields(read_rows(scratch_dir / "v.ctb")) == want
    assert _fields(reference.parse_trace_binary(blob)) == want
    for got in (parse_trace(lines), parse_trace_binary(blob)):
        assert all(type(r) is TraceRecord for r in got)


@settings(max_examples=400, deadline=None)
@given(records=_records(valid=False), data=st.data(), chunk=_READ_SIZES, text_chunk=_READ_SIZES)
def test_decoders_match_oracles_on_mutated_files(scratch_dir, records, data, chunk, text_chunk):
    text = "".join(data.draw(_text_lines(records, bad=True))).encode()
    # Limits of 1 to 80 bytes, so that the drawn lines run over them too.
    line_limit = data.draw(st.one_of(st.just(trace._LINE_LIMIT), st.integers(1, 80)))
    for path, blob, pieces in ((scratch_dir / "t.ct", text, _TEXT_PIECES),
                               (scratch_dir / "t.ctb", _packed(records), None)):
        mutated = data.draw(_mutated(blob, pieces))
        path.write_bytes(mutated)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace, "_CHUNK", chunk)
            mp.setattr(trace, "_TEXT_CHUNK", text_chunk)
            mp.setattr(trace, "_LINE_LIMIT", line_limit)
            mp.setattr(reference, "LINE_LIMIT", line_limit)
            assert _outcome(read_rows(path)) == _outcome(reference.read_trace_path(path))
        if pieces and (lines := _utf8_lines(mutated)) is not None:  # the per-line decoder
            assert _outcome(decode_text(iter(lines))) == _outcome(reference.parse_trace(lines))


def _utf8_lines(blob):
    """The text lines of ``blob``, or None if it is not UTF-8."""
    try:
        return blob.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None


# .ctb records drawn field by field, valid or not: kind codes past R, B and Y
# records with fields other than 0, addresses whose top byte is 0xFF, and
# region names that are not UTF-8 or whose length runs past what follows.
_CODES = st.sampled_from([0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 255])
_RAW_ADDRS = st.one_of(st.just(0), st.integers(0, MAX_ADDR), st.integers(0xFF << 56, MAX_ADDR),
                       st.just(MAX_ADDR))
_RAW_ARGS = st.one_of(st.sampled_from([0, 1, 2, 0xFFFF]), st.integers(0, 0xFFFF))
_NAMES = st.one_of(st.sampled_from(["main", "TOTAL", "caf\u00e9", "a b", "#"]).map(str.encode),
                   st.binary(max_size=6))


@st.composite
def _raw_ctb(draw):
    out = []
    for code in draw(st.lists(_CODES, max_size=40)):
        addr, arg = draw(_RAW_ADDRS), draw(_RAW_ARGS)
        if code == 5:
            name = draw(_NAMES)
            out.append(trace._REC.pack(5, addr, len(name) + draw(st.sampled_from([0, 0, 0, 1, 9])))
                       + name)
        else:
            out.append(trace._REC.pack(code, addr, arg))
    return b"".join(out)


@settings(max_examples=400, deadline=None)
@given(blob=_raw_ctb(), chunk=st.one_of(_READ_SIZES, st.just(trace._CHUNK)),
       run=st.integers(1, 6))
def test_binary_decoders_match_the_oracle_on_drawn_records(scratch_dir, blob, chunk, run):
    path = scratch_dir / "raw.ctb"
    path.write_bytes(blob)
    want = _outcome(reference.read_trace_path(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_CHUNK", chunk)
        mp.setattr(trace, "_RUN", trace._REC.size * run)  # runs split inside a read too
        assert _outcome(read_rows(path)) == want
        assert _outcome(decode_binary(io.BytesIO(blob))) == want


@st.composite
def _ctb_rows(draw):
    """Rows that a .ctb record can hold, drawn as ``_raw_ctb`` draws its
    records, with region names as ``_drawn_rows`` draws them."""
    return [(code, draw(_RAW_ADDRS), draw(_ROW_NAMES if code == 5 else _RAW_ARGS))
            for code in draw(st.lists(_CODES, max_size=12))]


@settings(max_examples=400, deadline=None)
@given(rows=_ctb_rows(), chunk=st.one_of(_READ_SIZES, st.just(trace._CHUNK)))
@example(rows=[(3, 5, 1)], chunk=trace._CHUNK)  # a taken branch with an address
def test_ctb_reader_refuses_the_rows_the_writer_refuses(scratch_dir, rows, chunk):
    # Each row packed as it stands reads back, or the first that
    # write_trace_binary refuses is refused at its ordinal, in its words.
    blob = b"".join(trace._REC.pack(code, addr, len(arg.encode())) + arg.encode() if code == 5
                    else trace._REC.pack(code, addr, arg) for code, addr, arg in rows)
    try:
        write_trace_binary(rows)
        want = _fields(rows), None
    except ValueError as exc:
        n, message = re.fullmatch(r"record (\d+): (.*)", str(exc), re.S).groups()
        want = _fields(rows[:int(n) - 1]), (f"trace line {n}: {message}", int(n))
    path = scratch_dir / "rows.ctb"
    path.write_bytes(blob)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_CHUNK", chunk)
        assert _outcome(read_rows(path)) == want


@pytest.mark.parametrize("run", [2, 256])
@pytest.mark.parametrize("chunk", [1, 7, 33, trace._CHUNK])
def test_plain_records_never_take_the_per_record_path(monkeypatch, chunk, run):
    # Runs of 360 plain records fill a whole match window, and short ones.
    plain = [inst(0x400000), inst(MAX_ADDR, 0xFFFF), load(0x7fff0, 4), store(0xFEFF << 48, 0xFFFF),
             load(MAX_ADDR >> 8, 0x100), branch(True), branch(False), syscall(), store(0, 1)]
    rows = (plain * 40 + [region("f")] + plain + [region("caf\u00e9"), region("g")]) * 3
    blob, check, calls = write_trace_binary(rows), trace._check_row, []

    def markers_only(code, addr, arg):
        assert code == 5, f"record {(code, addr, arg)!r} left its run"
        calls.append(arg)
        return check(code, addr, arg)

    monkeypatch.setattr(trace, "_check_row", markers_only)
    monkeypatch.setattr(trace, "_CHUNK", chunk)
    monkeypatch.setattr(trace, "_RUN", trace._REC.size * run)
    assert list(decode_binary(io.BytesIO(blob))) == rows
    assert calls == [row[2] for row in rows if row[0] == 5]
