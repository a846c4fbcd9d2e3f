import random

import pytest

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
    data = write_trace_binary([load(top, 1), TraceRecord("L", addr=top, size=8)])
    with pytest.raises(TraceSyntaxError) as exc:
        list(parse_trace_binary(data))
    assert exc.value.line_no == 2


def test_non_utf8_text_trace_names_its_line(tmp_path):
    p = tmp_path / "t.ct"
    p.write_bytes(b"I 400000\r\nR caf\xc3\xa9\nR \xff\n")
    with pytest.raises(TraceSyntaxError) as exc:
        list(read_trace_path(p))
    assert exc.value.line_no == 3
    assert "UTF-8" in exc.value.reason


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
    with pytest.raises(ValueError):
        region("")
    with pytest.raises(ValueError):
        write_trace([TraceRecord("R", name="has space")])


def test_gen_sequential():
    records = gen_sequential(0, 4, 32)
    assert [r.addr for r in records] == [0, 32, 64, 96]
    assert all(r.kind == "L" and r.size == 1 for r in records)
    assert gen_sequential(0, 0, 32) == []
    with pytest.raises(ValueError):
        gen_sequential(0, 4, 0)


def test_gen_loop():
    records = gen_loop(0, 128, 2, 32)
    assert [r.addr for r in records] == [0, 32, 64, 96, 0, 32, 64, 96]


def test_gen_random_is_reproducible():
    a = gen_random(12, 0x1000, 4096, 50)
    b = gen_random(12, 0x1000, 4096, 50)
    assert a == b
    assert all(0x1000 <= r.addr < 0x2000 for r in a)
    assert gen_random(13, 0x1000, 4096, 50) != a
