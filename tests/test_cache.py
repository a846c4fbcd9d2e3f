import random
import tracemalloc

import pytest

from cachesim import Cache, CacheSpec, CacheStats, ReplacementPolicy
from reference import RefCache


def make_cache(nsets, bsize, assoc, policy="l", seed=1):
    spec = CacheSpec("c", nsets, bsize, assoc, ReplacementPolicy(policy))
    return Cache(spec, seed)


def test_lru_two_way_hand_trace():
    # Blocks A, B, C in one set: refs A B A C A -> 3 misses, 2 hits, C evicts B
    c = make_cache(1, 32, 2, "l")
    a, b, x = 0x00, 0x20, 0x40
    outcomes = [c.access(addr).hit for addr in (a, b, a, x, a)]
    assert outcomes == [False, False, True, False, True]
    assert (c.misses, c.hits) == (3, 2)


def test_fifo_two_way_hand_trace():
    # Same refs under FIFO -> 4 misses, 1 hit (C evicts A, final A evicts B)
    c = make_cache(1, 32, 2, "f")
    a, b, x = 0x00, 0x20, 0x40
    outcomes = [c.access(addr).hit for addr in (a, b, a, x, a)]
    assert outcomes == [False, False, True, False, False]
    assert (c.misses, c.hits) == (4, 1)
    evicted = c.access(b)
    assert not evicted.hit


def test_cold_start_miss_has_no_victim():
    c = make_cache(4, 32, 2)
    out = c.access(0x123)
    assert not out.hit and out.evicted_tag is None and not out.evicted_dirty


def test_eviction_reports_victim_tag_and_dirty():
    c = make_cache(1, 32, 1)
    c.access(0x00, write=True)
    out = c.access(0x20)
    assert not out.hit
    assert out.evicted_tag == 0
    assert out.evicted_dirty is True
    assert c.writebacks == 1


def test_matches_reference_model_lru_fifo():
    rng = random.Random(123)
    for policy in ("l", "f", "r"):
        for trial in range(30):
            nsets = rng.choice([1, 2, 4, 8])
            assoc = rng.choice([1, 2, 4, 8])
            seed = rng.choice([0, 1, 2**64, -1, rng.getrandbits(70)])
            c = make_cache(nsets, 16, assoc, policy, seed)
            ref = RefCache(nsets, 16, assoc, policy, seed)
            for _ in range(400):
                addr = rng.randrange(nsets * 16 * assoc * 3)
                write = rng.random() < 0.3
                got = c.access(addr, write)
                want_kind, want_tag, want_dirty = ref.access(addr, write)
                assert got.hit == (want_kind == "hit")
                if not got.hit and want_tag is not None:
                    assert got.evicted_tag == want_tag
                    assert got.evicted_dirty == want_dirty
            assert (c.hits, c.misses, c.replacements, c.writebacks) == (
                ref.hits, ref.misses, ref.replacements, ref.writebacks)


def test_counter_identity_all_policies():
    rng = random.Random(5)
    for policy in ("l", "f", "r"):
        c = make_cache(8, 32, 2, policy, seed=99)
        for _ in range(2000):
            c.access(rng.randrange(1 << 14), rng.random() < 0.4)
        assert c.accesses == c.hits + c.misses == 2000
        assert c.misses - c.replacements <= c.nsets * c.assoc + c.invalidations


def test_random_policy_is_deterministic_per_seed():
    rng = random.Random(6)
    addrs = [(rng.randrange(1 << 13), rng.random() < 0.5) for _ in range(3000)]

    def run(seed):
        c = make_cache(4, 32, 2, "r", seed)
        return [c.access(a, w).hit for a, w in addrs], c.stats

    outs1, stats1 = run(42)
    outs2, stats2 = run(42)
    assert outs1 == outs2
    assert stats1 == stats2


def test_random_victims_stay_in_set():
    c = make_cache(4, 32, 2, "r", seed=7)
    for addr in range(0, 4096, 32):
        c.access(addr)
    # every set holds exactly assoc distinct blocks, each of that set
    for si in range(c.nsets):
        blocks = c._sets[si]
        assert len(blocks) == len(set(blocks)) == c.assoc
        assert all(b % c.nsets == si for b in blocks)


def test_reaccess_is_always_a_hit():
    rng = random.Random(11)
    for policy in ("l", "f", "r"):
        c = make_cache(4, 32, 2, policy)
        for _ in range(500):
            addr = rng.randrange(1 << 12)
            c.access(addr)
            assert c.access(addr).hit


def test_read_only_trace_never_writes_back():
    rng = random.Random(13)
    c = make_cache(2, 32, 2)
    for _ in range(3000):
        c.access(rng.randrange(1 << 13), write=False)
    assert c.writebacks == 0
    assert c.stats.wb_rate == 0.0


def test_lru_miss_count_non_increasing_in_assoc():
    rng = random.Random(17)
    for _ in range(25):
        addrs = [rng.randrange(1 << 12) for _ in range(800)]
        misses = []
        for assoc in (1, 2, 4, 8):
            c = make_cache(4, 32, assoc)
            for a in addrs:
                c.access(a)
            misses.append(c.misses)
        assert misses == sorted(misses, reverse=True)


@pytest.mark.parametrize("policy", ["l", "f", "r"])
def test_invalid_ways_fill_lowest_first(policy):
    c = make_cache(1, 32, 4, policy)
    for i in range(4):
        c.access(i * 32)
    assert c._sets[0] == [0, 1, 2, 3]


def test_flush_counts_and_idempotence():
    c = make_cache(4, 32, 2)
    c.access(0x00, write=True)  # dirty
    c.access(0x20)
    c.access(0x40)
    c.flush()
    assert (c.writebacks, c.invalidations) == (1, 3)
    c.flush()
    assert (c.writebacks, c.invalidations) == (1, 3)
    assert not c.access(0x00).hit


def test_flush_empty_cache():
    c = make_cache(4, 32, 2)
    c.flush()
    assert (c.writebacks, c.invalidations) == (0, 0)


@pytest.mark.parametrize("policy", ["l", "f", "r"])
def test_repeated_fill_flush_cycles_match_the_reference(policy):
    # flush visits only the sets filled since the last flush: cycles of
    # fills then one or two flushes, some cycles with no access at all,
    # must invalidate and write back what the reference does.
    rng = random.Random(29)
    for trial in range(20):
        nsets, assoc = rng.choice([1, 2, 8]), rng.choice([1, 2, 4])
        c = make_cache(nsets, 16, assoc, policy, seed=trial)
        ref = RefCache(nsets, 16, assoc, policy, seed=trial)
        for _ in range(12):
            for _ in range(rng.choice([0, 1, 3, 20])):
                addr, write = rng.randrange(1 << 10), rng.random() < 0.4
                assert c.access(addr, write).hit == (ref.access(addr, write)[0] == "hit")
            for _ in range(rng.choice([1, 1, 2])):
                c.flush()
                ref.flush()
                assert (c.hits, c.misses, c.replacements, c.writebacks, c.invalidations) \
                    == (ref.hits, ref.misses, ref.replacements, ref.writebacks,
                        ref.invalidations)
                assert not c._sets and not c._dirty


def test_a_cache_allocates_no_set_before_a_trace_touches_it():
    tracemalloc.start()
    try:
        c = Cache(CacheSpec("c", 1 << 40, 32, 1, ReplacementPolicy.LRU))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak
    assert not c.access(0).hit and c.access(0).hit and len(c._sets) == 1


def test_rates_match_published_values():
    stats = CacheStats(accesses=7064, hits=6629, misses=435, replacements=221)
    assert round(stats.miss_rate, 4) == 0.0616
    assert round(stats.repl_rate, 4) == 0.0313
    assert stats.wb_rate == 0.0


def test_rates_zero_access_convention():
    stats = CacheStats()
    assert stats.miss_rate == 0.0
    assert stats.repl_rate == 0.0
    assert stats.wb_rate == 0.0
    assert stats.inv_rate == 0.0


def test_valid_tags_distinct_within_sets():
    rng = random.Random(19)
    c = make_cache(8, 16, 4, "r", seed=3)
    for _ in range(5000):
        c.access(rng.randrange(1 << 12), rng.random() < 0.5)
    for si in range(c.nsets):
        blocks = c._sets[si]
        assert len(blocks) == len(set(blocks)) <= c.assoc


def test_negative_address_misses_on_a_cold_cache():
    # A negative block has a negative tag; no tag value may stand for an
    # invalid way.
    c = make_cache(256, 32, 1)
    assert not c.access(-64).hit
    assert c.access(-64).hit
    assert (c.hits, c.misses) == (1, 1)
