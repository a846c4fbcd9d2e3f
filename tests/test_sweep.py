import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (
    DistanceHistogram,
    Hierarchy,
    HierarchySpec,
    SweepRow,
    belady_misses,
    block_refs,
    gen_random,
    load,
    misses_for_assoc,
    parse_cache_spec,
    stack_distances,
    store,
    sweep,
)
from cachesim import stack as stack_module
from cachesim.trace import MAX_ADDR
from reference import belady_victim_misses, brute_min_misses, data_blocks, direct_misses


def refs(blocks, bsize=32):
    """Single-block loads touching the given block numbers in order."""
    return [load(b * bsize, 1) for b in blocks]


def test_stack_distance_examples():
    h = stack_distances(refs([0, 1, 0]), nsets=1, bsize=32)
    assert h.cold == 2 and h.counts == {2: 1}

    h = stack_distances(refs([0, 0]), nsets=1, bsize=32)
    assert h.cold == 1 and h.counts == {1: 1}

    h = stack_distances(refs([0, 1, 2, 0, 1, 2]), nsets=1, bsize=32)
    assert h.cold == 3 and h.counts == {3: 3}


def test_histogram_total_matches_processed_refs():
    records = gen_random(4, 0, 1 << 14, 500) + [store(0x1E, 4)]  # spans 2 blocks
    h = stack_distances(records, 8, 32)
    assert h.total == 502


def test_rows_of_size_zero_or_less_touch_their_block_once():
    # The stack passes and the hierarchy walk agree on such rows, aligned
    # to a block's start or not.
    rows = [(1, 64, 0), (1, 65, 0), (2, 96, -2), (2, 127, -1), (1, 0, 4), (1, 30, 4)]
    assert list(block_refs(rows, 32)) == [2, 2, 3, 3, 0, 0, 1]
    assert stack_distances(rows, 4, 32).total == 7
    h = Hierarchy(HierarchySpec(dl1=parse_cache_spec("dl1:4:32:1:l")))
    h.run(rows, clock=lambda: 0.0)
    assert h.caches["dl1"].accesses == 7


def test_rows_and_histograms_keep_their_repr_construction_and_hash():
    # The reprs are those of the dataclasses these types were.
    row = SweepRow(64, 32, 1, 100, 0.25)
    assert repr(row) == ("SweepRow(nsets=64, bsize=32, assoc=1, misses=100, miss_rate=0.25, "
                         "policy=None)")
    opt = SweepRow(nsets=64, bsize=32, assoc=1, misses=90, miss_rate=0.225, policy="opt")
    assert repr(opt) == ("SweepRow(nsets=64, bsize=32, assoc=1, misses=90, miss_rate=0.225, "
                         "policy='opt')")
    assert opt == SweepRow(64, 32, 1, 90, 0.225, "opt") != row
    assert row == (64, 32, 1, 100, 0.25, None)
    assert hash(row) == hash((64, 32, 1, 100, 0.25, None))
    assert opt._asdict() == {"nsets": 64, "bsize": 32, "assoc": 1, "misses": 90,
                             "miss_rate": 0.225, "policy": "opt"}
    with pytest.raises(AttributeError):
        row.misses = 1

    empty = DistanceHistogram(1, 32)
    assert repr(empty) == "DistanceHistogram(nsets=1, bsize=32, counts={}, cold=0)"
    hist = DistanceHistogram(nsets=1, bsize=32, counts={3: 3}, cold=3)
    assert repr(hist) == "DistanceHistogram(nsets=1, bsize=32, counts={3: 3}, cold=3)"
    assert hist == DistanceHistogram(1, 32, {3: 3}, 3) != empty
    assert empty.counts is not DistanceHistogram(1, 32).counts  # a new dict for each
    with pytest.raises(TypeError):
        hash(hist)  # it holds a dict, as the dataclass was unhashable
    with pytest.raises(AttributeError):
        hist.cold = 0


def test_misses_for_assoc_examples():
    h = DistanceHistogram(1, 32, counts={3: 3}, cold=3)
    assert misses_for_assoc(h, 2) == 6  # classic thrash cycle
    assert misses_for_assoc(h, 3) == 3
    assert misses_for_assoc(h, 8) == h.cold
    with pytest.raises(ValueError):
        misses_for_assoc(h, 0)


def test_sweep_rows_one_pass_per_geometry():
    records = gen_random(5, 0, 1 << 12, 400)
    rows = sweep(records, [(16, 32)], [1, 2, 4])
    assert [(r.nsets, r.bsize, r.assoc) for r in rows] == [(16, 32, 1), (16, 32, 2), (16, 32, 4)]
    for r in rows:
        assert r.miss_rate == r.misses / 400


def test_sweep_empty_trace():
    rows = sweep([], [(16, 32), (64, 16)], [1, 2])
    assert all(r.misses == 0 and r.miss_rate == 0.0 for r in rows)
    assert len(rows) == 4


def test_sweep_reads_a_one_shot_iterator_once():
    records = gen_random(6, 0, 1 << 12, 300)
    geometries = [(16, 32), (16, 64)]
    rows = sweep(iter(records), geometries, [1, 2], opt=True)
    assert rows == sweep(records, geometries, [1, 2], opt=True)
    assert all(r.misses > 0 for r in rows)


def test_huge_set_count_allocates_no_stacks_up_front():
    records = refs([0, 1, 0, 1 << 41])  # blocks 0 and 2**41 share set 0
    h = stack_distances(records, 1 << 40, 32)
    assert h.cold == 3 and h.counts == {1: 1}
    rows = sweep(records, [(1 << 40, 32)], [1, 2], opt=True)
    assert [(r.policy, r.misses) for r in rows] == [("lru", 3), ("lru", 3), ("opt", 3), ("opt", 3)]


def test_sweep_rejects_empty_axes():
    with pytest.raises(ValueError):
        sweep([], [], [1])
    with pytest.raises(ValueError):
        sweep([], [(16, 32)], [])


def test_sweep_equals_direct_lru_simulation():
    rng = random.Random(21)
    for trial in range(120):
        nsets = rng.choice([1, 4, 16, 64])
        bsize = rng.choice([16, 32, 64])
        span = nsets * bsize * rng.choice([2, 4, 8])
        records = gen_random(1000 + trial, 0, span, rng.randrange(50, 1200))
        h = stack_distances(records, nsets, bsize)
        for assoc in (1, 2, 4, 8):
            assert misses_for_assoc(h, assoc) == direct_misses(
                records, nsets, bsize, assoc), (trial, nsets, bsize, assoc)


def test_sweep_handles_mixed_sizes_and_stores():
    rng = random.Random(23)
    records = []
    for _ in range(800):
        ctor = store if rng.random() < 0.4 else load
        records.append(ctor(rng.randrange(1 << 13), rng.choice([1, 4, 8, 64])))
    h = stack_distances(records, 8, 32)
    for assoc in (1, 2, 4):
        assert misses_for_assoc(h, assoc) == direct_misses(records, 8, 32, assoc)


def test_monotone_in_associativity():
    rng = random.Random(29)
    for trial in range(60):
        records = gen_random(trial, 0, 1 << 12, 600)
        h = stack_distances(records, rng.choice([2, 8, 32]), 32)
        misses = [misses_for_assoc(h, a) for a in (1, 2, 4, 8, 16)]
        assert misses == sorted(misses, reverse=True)


def test_belady_hand_example():
    # capacity-2 fully associative, refs A B C A B -> 4 misses under OPT
    stream = [0, 1, 2, 0, 1]
    assert belady_misses(refs(stream), 1, 32, 2) == 4
    # LRU on the same trace takes 5
    assert direct_misses(refs(stream), 1, 32, 2) == 5


@pytest.mark.parametrize("assoc", [0, -1, -8])
def test_belady_refuses_an_associativity_below_1(assoc):
    with pytest.raises(ValueError, match=f"^assoc must be an integer >= 1, got {assoc}$"):
        belady_misses(refs([0, 1, 0]), 16, 32, assoc)


@pytest.mark.parametrize("nsets, bsize, message", [
    (0, 32, "nsets must be an integer >= 1, got 0"),
    (16, 0, "bsize must be an integer >= 1, got 0"),
    (16, 1.5, r"bsize must be an integer >= 1, got 1\.5"),
])
def test_a_pass_refuses_a_geometry_that_is_not_an_integer_of_at_least_1(nsets, bsize, message):
    records = refs([0, 1, 0])
    with pytest.raises(ValueError, match=message):
        sweep(records, [(nsets, bsize)], [1, 2])
    with pytest.raises(ValueError, match=message):
        stack_distances(records, nsets, bsize)
    rows = iter(records)
    with pytest.raises(ValueError, match=message):
        belady_misses(rows, nsets, bsize, 1)
    assert next(rows) == records[0]  # refused before the trace is read


@pytest.mark.parametrize("assoc, message", [
    (0, "assoc must be an integer >= 1, got 0"),
    (1.5, r"assoc must be an integer >= 1, got 1\.5"),
])
def test_a_pass_refuses_an_associativity_that_is_not_an_integer_of_at_least_1(assoc, message):
    records = refs([0, 1, 0])
    for opt in (False, True):
        rows = iter(records)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(rows, [(1, 32)], [2, assoc], opt=opt)
        assert next(rows) == records[0]  # refused before the trace is read
    rows = iter(records)
    with pytest.raises(ValueError, match=f"^{message}$"):
        belady_misses(rows, 1, 32, assoc)
    assert next(rows) == records[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        misses_for_assoc(stack_distances(records, 1, 32), assoc)


def test_belady_no_reuse_cannot_help():
    records = refs(list(range(50)))
    assert belady_misses(records, 1, 32, 4) == 50


def test_belady_equals_exhaustive_minimum_small():
    rng = random.Random(31)
    for _ in range(150):
        stream = [rng.randrange(5) for _ in range(10)]
        records = refs(stream)
        assert belady_misses(records, 1, 32, 3) == brute_min_misses(stream, 1, 3)


def test_belady_exhaustive_all_short_traces():
    for n in range(1, 7):
        for stream in itertools.product(range(3), repeat=n):
            records = refs(list(stream))
            assert belady_misses(records, 1, 32, 2) == brute_min_misses(list(stream), 1, 2)


def test_belady_multi_set():
    rng = random.Random(37)
    for _ in range(40):
        stream = [rng.randrange(16) for _ in range(120)]
        records = refs(stream)
        assert belady_misses(records, 4, 32, 2) == brute_min_misses(stream, 4, 2)


def test_belady_dominates_every_policy():
    rng = random.Random(41)
    for trial in range(60):
        nsets = rng.choice([1, 2, 4])
        assoc = rng.choice([1, 2, 4])
        records = gen_random(500 + trial, 0, nsets * 32 * assoc * 4, 500)
        opt = belady_misses(records, nsets, 32, assoc)
        for policy in ("l", "f"):
            assert opt <= direct_misses(records, nsets, 32, assoc, policy)
        for seed in (1, 2, 3):
            assert opt <= direct_misses(records, nsets, 32, assoc, "r", seed)


def test_belady_ignores_non_data_records():
    from cachesim import branch, inst, syscall

    stream = [0, 1, 2, 0, 1]
    plain = refs(stream)
    noisy = [inst(0x400000), branch(True), syscall()] + plain
    assert belady_misses(noisy, 1, 32, 2) == belady_misses(plain, 1, 32, 2)
    assert data_blocks(noisy, 32) == stream


@settings(max_examples=200, deadline=None)
@given(accesses=st.lists(st.tuples(st.booleans(),
                                   st.one_of(st.integers(0, 2047),
                                             st.integers(MAX_ADDR - 2047, MAX_ADDR)),
                                   st.sampled_from([1, 4, 8, 64])), max_size=120),
       sets=st.lists(st.sampled_from([1, 2, 4, 16]), min_size=1, max_size=3),
       bsizes=st.lists(st.sampled_from([1, 8, 32, 64]), min_size=1, max_size=2),
       assocs=st.lists(st.sampled_from([1, 2, 4, 8, 16]), min_size=1, max_size=4),
       opt=st.booleans(), chunk=st.integers(1, 60), wide_at=st.none() | st.integers(0, 120))
def test_sweep_matches_lru_cache_and_victim_search_belady(accesses, sets, bsizes, assocs, opt,
                                                          chunk, wide_at):
    # 64-byte accesses at unaligned addresses span blocks; near the top of
    # the address space, at a block size of 1, a block number takes all 64
    # bits; the row at ``wide_at`` spans more blocks than a chunk holds.
    # Lists may repeat and come unsorted, and the trace may be empty.
    records = [(store if w else load)(addr, min(size, MAX_ADDR - addr + 1))
               for w, addr, size in accesses]
    if wide_at is not None:
        records.insert(wide_at, load(0x7F0, (chunk + 1) * max(bsizes)))
    geometries = [(n, b) for n in sets for b in bsizes]
    want = [("lru" if opt else None, n, b, a, direct_misses(records, n, b, a))
            for n, b in geometries for a in assocs]
    if opt:
        want += [("opt", n, b, a, belady_victim_misses(data_blocks(records, b), n, a))
                 for n, b in geometries for a in assocs]
    with mock.patch.object(stack_module, "_CHUNK", chunk):
        rows = sweep(iter(records), geometries, assocs, opt=opt)
    assert [(r.policy, r.nsets, r.bsize, r.assoc, r.misses) for r in rows] == want
    for r in rows:
        total = len(data_blocks(records, r.bsize))
        assert r.miss_rate == (r.misses / total if total else 0.0)


def _peak(run):
    """``run()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _loads(seed, n, span):
    """A generator of ``n`` one-byte loads over ``span`` bytes."""
    rng = random.Random(seed)
    return (load(rng.randrange(span), 1) for _ in range(n))


def test_an_lru_sweep_holds_a_chunk_and_its_stacks_not_the_trace():
    geometries = [(16, 32), (64, 32), (64, 64)]
    small, small_peak = _peak(lambda: sweep(_loads(1, 20_000, 1 << 20), geometries, [1, 2, 4, 8]))
    large, large_peak = _peak(lambda: sweep(_loads(1, 200_000, 1 << 20), geometries,
                                            [1, 2, 4, 8]))
    assert sum(r.misses for r in small) < sum(r.misses for r in large)
    # Both hold one chunk of rows and its block references, and stacks of at
    # most 64 sets x 8 blocks.  The 180,000 more rows, listed, would add
    # about 18 MB.
    assert large_peak < small_peak + 128 * 1024, (small_peak, large_peak)


def test_an_opt_sweep_holds_18_bytes_per_reference():
    n = 100_000
    rows, peak = _peak(lambda: sweep(_loads(2, n, 1 << 16), [(16, 32), (64, 32)], [1, 4],
                                     opt=True))
    assert rows[-1].misses > 0
    # The block stream (array 'Q'), its next uses (array 'q'), the flags of
    # each block's first reference and one pass's marks of entries pushed
    # past the cut (a bytearray each) take 18 B a reference; the constant
    # holds a chunk, the stacks and the last use of each of the 2,048
    # blocks of 64 KiB.  A listed trace and stream would take over 150 B a
    # reference.
    assert peak < 24 * n + 512 * 1024, peak


def test_an_opt_pass_far_wider_than_the_trace_holds_no_more_than_one_that_fits_it():
    # 20,000 loads over 64 blocks: a cut of 2**40 gives the rows of a cut
    # of 64 in no more memory, since no stack holds more entries than the
    # stream has blocks.
    records = list(_loads(3, 20_000, 64 * 32))
    geometries = [(1, 32), (4, 32)]
    wide, wide_peak = _peak(lambda: sweep(records, geometries, [1, 1 << 40], opt=True))
    fits, fits_peak = _peak(lambda: sweep(records, geometries, [1, 64], opt=True))
    assert [(r.policy, r.misses) for r in wide] == [(r.policy, r.misses) for r in fits]
    assert wide_peak < fits_peak + 64 * 1024, (fits_peak, wide_peak)
    assert belady_misses(records, 1, 32, 1 << 40) == belady_misses(records, 1, 32, 64) == 64


def test_a_row_wider_than_a_chunk_is_fed_in_pieces():
    # The widest row, 65,535 one-byte blocks, is 64 chunks of block references.
    rows, peak = _peak(lambda: sweep([load(0, 0xFFFF)], [(1, 1)], [1]))
    assert rows == [SweepRow(1, 1, 1, 0xFFFF, 1.0)]
    # 65,535 block references would take over 2 MB as a list.
    assert peak < 256 * 1024, peak
