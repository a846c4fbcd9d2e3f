import random
import re

import pytest

from cachesim import (
    CacheSpec,
    ConfigError,
    Hierarchy,
    HierarchySpec,
    ReplacementPolicy,
    parse_cache_spec,
    parse_hierarchy_args,
    parse_vex_cfg,
)


def raises(message):
    """Expect a ConfigError whose message is exactly ``message``."""
    return pytest.raises(ConfigError, match=f"^{re.escape(message)}$")


VEX_CFG = """\
CoreCkFreq      1000
BusCkFreq       500
lg2CacheSize    16 # (CacheSize      = 256k)
lg2Sets         2 # (Sets           = 4)
lg2LineSize     5 # (LineSize       = 32)
MissPenalty     36
WBPenalty       33
lg2StrSize      9 # (StrSize        = 512)
lg2StrSets      4 # (StrSets         = 16)
lg2StrLineSize  5 # (StrLineSize     = 32)
StrMissPenalty  36
StrWBPenalty    33
lg2ICacheSize   15 # (ICacheSize     = 32k)
lg2ICacheSets   0 # (ICacheSets      = 1)
lg2ICacheLineSize 6 # (ICacheLineSize  = 64)
ICachePenalty   45
NumCaches       1
BranchStall     1
StreamEnable    FALSE
PrefetchEnable  TRUE
LockEnable      FALSE
ProfGranularity AUTO
"""


@pytest.mark.parametrize(
    "text,name,nsets,bsize,assoc,repl",
    [
        ("dl1:256:32:1:l", "dl1", 256, 32, 1, ReplacementPolicy.LRU),
        ("ul2:1024:64:4:l", "ul2", 1024, 64, 4, ReplacementPolicy.LRU),
        ("il1:256:32:1:l", "il1", 256, 32, 1, ReplacementPolicy.LRU),
        ("itlb:16:4096:4:l", "itlb", 16, 4096, 4, ReplacementPolicy.LRU),
        ("dtlb:32:4096:4:l", "dtlb", 32, 4096, 4, ReplacementPolicy.LRU),
        ("dl1:4096:32:1:l", "dl1", 4096, 32, 1, ReplacementPolicy.LRU),
        ("dtlb:128:4096:32:r", "dtlb", 128, 4096, 32, ReplacementPolicy.RANDOM),
        ("il1:128:64:1:l", "il1", 128, 64, 1, ReplacementPolicy.LRU),
    ],
)
def test_parse_cache_spec_known_strings(text, name, nsets, bsize, assoc, repl):
    spec = parse_cache_spec(text)
    assert spec == CacheSpec(name, nsets, bsize, assoc, repl)
    assert spec.render() == text


def test_round_trip_random_specs():
    rng = random.Random(42)
    pows = [1 << i for i in range(13)]
    for _ in range(300):
        spec = CacheSpec(
            "c" + str(rng.randrange(1000)),
            rng.choice(pows),
            rng.choice(pows),
            rng.choice(pows),
            rng.choice(list(ReplacementPolicy)),
        )
        assert parse_cache_spec(spec.render()) == spec


def test_wrong_field_count():
    with raises("expected 5 colon-separated fields in 'dl1:256:32:1', got 4"):
        parse_cache_spec("dl1:256:32:1")
    with raises("expected 5 colon-separated fields in 'dl1:256:32:1:l:x', got 6"):
        parse_cache_spec("dl1:256:32:1:l:x")


def test_non_power_of_two_reports_field():
    with raises("nsets must be a power of two >= 1, got 100"):
        parse_cache_spec("dl1:100:32:1:l")
    with raises("bsize must be a power of two >= 1, got 48"):
        parse_cache_spec("dl1:256:48:1:l")
    with raises("assoc must be a power of two >= 1, got 3"):
        parse_cache_spec("dl1:256:32:3:l")
    with raises("nsets must be a power of two >= 1, got 0"):
        parse_cache_spec("dl1:0:32:1:l")


@pytest.mark.parametrize("name", ["", " ", "d l1", "dl1\t", "a:b"])
def test_invalid_cache_name(name):
    with raises(f"invalid cache name {name!r}"):
        CacheSpec(name, 256, 32, 1, ReplacementPolicy.LRU).validate()
    if ":" not in name:  # a colon splits the config string instead
        with raises(f"invalid cache name {name!r}"):
            parse_cache_spec(f"{name}:256:32:1:l")
        with raises(f"invalid cache name {name!r}"):
            parse_hierarchy_args(["-cache:dl1", f"{name}:256:32:1:l"])


def test_unknown_policy():
    with raises("unknown replacement policy 'x': expected 'l', 'f' or 'r'"):
        parse_cache_spec("dl1:256:32:1:x")


def test_non_numeric_rejects_sloppy_integers():
    for bad in ("abc", "0x100", "1_0", "+256", "0256", "", "²"):
        with raises(f"nsets must be a plain decimal integer, got {bad!r}"):
            parse_cache_spec(f"dl1:{bad}:32:1:l")


def test_policy_chars_round_trip():
    for p in ReplacementPolicy:
        spec = parse_cache_spec(f"c:1:1:1:{p.value}")
        assert spec.repl is p
        assert spec.render() == f"c:1:1:1:{p.value}"


def test_default_hierarchy_matches_explicit_strings():
    spec = parse_hierarchy_args([])
    explicit = parse_hierarchy_args(
        [
            "-cache:dl1", "dl1:256:32:1:l",
            "-cache:dl2", "ul2:1024:64:4:l",
            "-cache:il1", "il1:256:32:1:l",
            "-cache:il2", "dl2",
            "-tlb:itlb", "itlb:16:4096:4:l",
            "-tlb:dtlb", "dtlb:32:4096:4:l",
            "-flush", "false",
        ]
    )
    assert spec == explicit
    assert spec.il2 == "dl2"
    assert spec.flush_on_syscall is False


def test_unified_l2_example():
    spec = parse_hierarchy_args(["-cache:il1", "il1:128:64:1:l", "-cache:il2", "dl2"])
    assert spec.il1 == CacheSpec("il1", 128, 64, 1, ReplacementPolicy.LRU)
    assert spec.il2 == "dl2"


def test_fully_unified_l1_example():
    spec = parse_hierarchy_args(
        ["-cache:dl1", "ul1:256:32:1:l", "-cache:il1", "dl1"]
    )
    assert spec.il1 == "dl1"
    assert spec.dl1.name == "ul1"


def test_spec_unifies_by_data_level_name():
    dl1 = parse_cache_spec("dl1:4:32:1:l")
    h = Hierarchy(HierarchySpec(il1="dl1", dl1=dl1))
    assert h.i_path == h.d_path == [h.caches["dl1"]]
    # A config string is not a level name: validate rejects it, and Hierarchy
    # never builds from it.
    for b in ("dl1:4:32:1:l", "none", "dl3"):
        with raises(f"il1 takes a config string, 'none', 'dl1' or 'dl2', not {b!r}"):
            HierarchySpec(il1=b, dl1=dl1).validate()
        with raises(f"il1 takes a config string, 'none', 'dl1' or 'dl2', not {b!r}"):
            Hierarchy(HierarchySpec(il1=b, dl1=dl1))
    with raises("dl1 takes a config string or 'none', not 'dl1'"):
        HierarchySpec(dl1="dl1").validate()


def test_flush_flag():
    assert parse_hierarchy_args(["-flush", "true"]).flush_on_syscall is True
    with raises("-flush takes 'true' or 'false', got 'yes'"):
        parse_hierarchy_args(["-flush", "yes"])


def test_invalid_unifications():
    with raises("-cache:dl1 takes a config string or 'none', not 'il1'"):
        parse_hierarchy_args(["-cache:dl1", "il1"])
    with raises("-cache:dl1 takes a config string or 'none', not 'dl2'"):
        parse_hierarchy_args(["-cache:dl1", "dl2"])
    with raises("-cache:il2 takes a config string, 'none' or 'dl2', not 'dl1'"):
        parse_hierarchy_args(["-cache:il2", "dl1"])
    with raises("-tlb:itlb takes a config string or 'none', not 'dl1'"):
        parse_hierarchy_args(["-tlb:itlb", "dl1"])


def test_unknown_flag_and_missing_value():
    with raises("unknown flag '-cache:l3'"):
        parse_hierarchy_args(["-cache:l3", "x:1:1:1:l"])
    with raises("flag '-cache:dl1' is missing its value"):
        parse_hierarchy_args(["-cache:dl1"])


def test_l2_requires_l1():
    with raises("dl2 is configured but dl1 is none"):
        parse_hierarchy_args(["-cache:dl1", "none"])
    with pytest.raises(ConfigError, match="^il2 is configured but il1 is none$"):
        parse_hierarchy_args(
            ["-cache:il1", "none", "-cache:il2", "i2:512:64:2:l"]
        )
    # A unified il1 sends fetches down the data chain, so il2 is never reached.
    for target in ("dl1", "dl2"):
        with pytest.raises(ConfigError, match=f"^il2 is configured but il1 is unified with "
                                              f"{target}, so fetches never reach il2$"):
            parse_hierarchy_args(["-cache:il1", target, "-cache:il2", "i2:512:64:2:l"])


def test_unification_to_disabled_level_degrades():
    spec = parse_hierarchy_args(["-cache:dl1", "none", "-cache:dl2", "none"])
    assert spec.dl1 is None and spec.dl2 is None
    assert spec.il2 is None  # default il2=dl2 degrades with dl2 gone


def test_parse_errors_propagate_from_values():
    with raises("nsets must be a power of two >= 1, got 100"):
        parse_hierarchy_args(["-cache:dl1", "dl1:100:32:1:l"])


def test_vex_cfg_geometries():
    dcache, icache, timing = parse_vex_cfg(VEX_CFG)
    assert (dcache.nsets, dcache.bsize, dcache.assoc) == (512, 32, 4)
    assert (icache.nsets, icache.bsize, icache.assoc) == (512, 64, 1)
    # geometry identity holds for both caches
    assert dcache.nsets * dcache.bsize * dcache.assoc == 1 << 16
    assert icache.nsets * icache.bsize * icache.assoc == 1 << 15


def test_vex_cfg_timing_fields():
    _, _, t = parse_vex_cfg(VEX_CFG)
    assert t.core_clk_mhz == 1000
    assert t.bus_clk_mhz == 500
    assert t.miss_penalty == 36
    assert t.wb_penalty == 33
    assert t.icache_penalty == 45
    assert t.branch_stall == 1
    assert t.num_caches == 1


def test_vex_line_size_example():
    _, _, _ = parse_vex_cfg(VEX_CFG)
    d, _, _ = parse_vex_cfg(VEX_CFG.replace("lg2LineSize     5", "lg2LineSize 5"))
    assert d.bsize == 32


def test_vex_unknown_key_warns_but_parses():
    with pytest.warns(UserWarning, match="Mystery"):
        d, _, _ = parse_vex_cfg(VEX_CFG + "MysteryKnob 7\n")
    assert d.bsize == 32


def test_vex_recognized_unused_keys_are_silent(recwarn):
    parse_vex_cfg(VEX_CFG)
    assert not recwarn.list


def test_vex_missing_key():
    broken = VEX_CFG.replace("MissPenalty     36\n", "")
    with raises("required key 'MissPenalty' missing"):
        parse_vex_cfg(broken)


def test_vex_non_numeric_value():
    broken = VEX_CFG.replace("MissPenalty     36", "MissPenalty many")
    with raises("line 6: value for 'MissPenalty' must be an integer, got 'many'"):
        parse_vex_cfg(broken)


def test_vex_negative_value_names_key_and_line():
    for key, line_no in (("MissPenalty", 6), ("WBPenalty", 7), ("ICachePenalty", 16),
                         ("NumCaches", 17), ("BranchStall", 18), ("CoreCkFreq", 1)):
        broken = re.sub(f"(?m)^{key} .*$", f"{key} -3", VEX_CFG)
        with raises(f"line {line_no}: {key} out of range: -3"):
            parse_vex_cfg(broken)
    with raises("line 4: lg2Sets out of range: -1"):
        parse_vex_cfg(VEX_CFG.replace("lg2Sets         2", "lg2Sets -1"))
    with raises("line 4: lg2Sets out of range: 49"):
        parse_vex_cfg(VEX_CFG.replace("lg2Sets         2", "lg2Sets 49"))


def test_vex_clock_errors_name_keys_and_lines():
    with raises("line 1: need CoreCkFreq >= BusCkFreq (line 2), got 0 < 500"):
        parse_vex_cfg(VEX_CFG.replace("CoreCkFreq      1000", "CoreCkFreq 0"))
    with raises("line 1: need CoreCkFreq >= BusCkFreq (line 2), got 1000 < 2000"):
        parse_vex_cfg(VEX_CFG.replace("BusCkFreq       500", "BusCkFreq 2000"))
    with raises("line 2: need BusCkFreq > 0, got 0"):
        parse_vex_cfg(VEX_CFG.replace("BusCkFreq       500", "BusCkFreq 0"))
    moved = VEX_CFG.replace("BusCkFreq       500\n", "") + "BusCkFreq 0\n"
    with raises(f"line {moved.count(chr(10))}: need BusCkFreq > 0, got 0"):
        parse_vex_cfg(moved)
    _, _, t = parse_vex_cfg(VEX_CFG.replace("BusCkFreq       500", "BusCkFreq 1000"))
    assert (t.core_clk_mhz, t.bus_clk_mhz) == (1000, 1000)


def test_vex_geometry_underflow():
    broken = VEX_CFG.replace("lg2CacheSize    16", "lg2CacheSize    5")
    with raises("line 3: lg2CacheSize: cache of 32 bytes cannot hold "
                "4 ways of 32-byte lines"):
        parse_vex_cfg(broken)


def test_vex_optional_defaults():
    trimmed = VEX_CFG.replace("NumCaches       1\n", "").replace("BranchStall     1\n", "")
    _, _, t = parse_vex_cfg(trimmed)
    assert t.branch_stall == 1
    assert t.num_caches == 1


def test_vex_malformed_line_reports_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_vex_cfg("CoreCkFreq 1000\nBusCkFreq\n")


def test_vex_lines_end_at_newline_only():
    # A form feed or U+2028 in a comment does not end its line, and an error
    # names the line by its count of newlines.
    text = VEX_CFG.replace("\n", "# page\x0cbreak\n", 1) + "# para\u2028graph\n"
    assert parse_vex_cfg(text) == parse_vex_cfg(VEX_CFG)
    with pytest.raises(ConfigError, match="^line 3: "):
        parse_vex_cfg("# a\x0cb\u2028c\n# d\x85e\nBusCkFreq\n")


def test_timing_validation():
    _, _, t = parse_vex_cfg(VEX_CFG)
    from dataclasses import replace

    with raises("need core_clk_mhz >= bus_clk_mhz > 0, got 1000/2000"):
        replace(t, bus_clk_mhz=2000).validate()
    with raises("miss_penalty must be >= 0"):
        replace(t, miss_penalty=-1).validate()
    with raises("mem_width must be a power of two >= 1, got 3"):
        replace(t, mem_width=3).validate()


# The reprs of the frozen dataclasses these types were before they became
# named tuples.
DL1_REPR = "CacheSpec(name='dl1', nsets=256, bsize=32, assoc=1, repl=<ReplacementPolicy.LRU: 'l'>)"
DEFAULT_HIERARCHY_REPR = (
    "HierarchySpec(il1=CacheSpec(name='il1', nsets=256, bsize=32, assoc=1, "
    "repl=<ReplacementPolicy.LRU: 'l'>), il2='dl2', dl1=" + DL1_REPR + ", dl2=CacheSpec("
    "name='ul2', nsets=1024, bsize=64, assoc=4, repl=<ReplacementPolicy.LRU: 'l'>), "
    "itlb=CacheSpec(name='itlb', nsets=16, bsize=4096, assoc=4, repl=<ReplacementPolicy.LRU: "
    "'l'>), dtlb=CacheSpec(name='dtlb', nsets=32, bsize=4096, assoc=4, "
    "repl=<ReplacementPolicy.LRU: 'l'>), flush_on_syscall=False)")


def test_specs_keep_their_repr_construction_hash_and_read_only_fields():
    lru = ReplacementPolicy.LRU
    dl1 = parse_cache_spec("dl1:256:32:1:l")
    assert repr(dl1) == DL1_REPR
    assert repr(parse_hierarchy_args([])) == DEFAULT_HIERARCHY_REPR
    assert repr(HierarchySpec()) == ("HierarchySpec(il1=None, il2=None, dl1=None, dl2=None, "
                                     "itlb=None, dtlb=None, flush_on_syscall=False)")
    assert dl1 == CacheSpec("dl1", 256, 32, 1, lru) \
        == CacheSpec(name="dl1", nsets=256, bsize=32, assoc=1, repl=lru)
    h = HierarchySpec(il1="dl1", dl1=dl1, flush_on_syscall=True)
    assert h == HierarchySpec("dl1", None, dl1, None, None, None, True)
    assert (h.il1, h.il2, h.dl1, h.flush_on_syscall) == ("dl1", None, dl1, True)
    with pytest.raises(TypeError):
        CacheSpec("dl1", 256, 32, 1)  # every CacheSpec field is required
    # Named tuples: equal to, and hashed as, the plain tuple of their fields,
    # which is how the frozen dataclasses hashed.
    assert dl1 == ("dl1", 256, 32, 1, lru)
    assert hash(dl1) == hash(("dl1", 256, 32, 1, lru))
    assert hash(h) == hash(("dl1", None, dl1, None, None, None, True))
    assert len({dl1, parse_cache_spec("dl1:256:32:1:l"), dl1._replace(assoc=2)}) == 2
    for spec, field in ((dl1, "nsets"), (dl1, "repl"), (h, "dl1"), (h, "flush_on_syscall")):
        with pytest.raises(AttributeError):
            setattr(spec, field, None)
    with pytest.raises(AttributeError):
        dl1.extra = 1


def test_timing_spec_stays_a_frozen_dataclass():
    import dataclasses

    from cachesim.timing import TimingSpec

    t = TimingSpec()
    assert repr(t) == ("TimingSpec(core_clk_mhz=1, bus_clk_mhz=1, miss_penalty=0, "
                       "wb_penalty=0, icache_penalty=0, branch_stall=0, mem_lat_first=18, "
                       "mem_lat_next=2, mem_width=8, num_caches=1)")
    # dataclasses.replace, as the cycle-model benchmark calls it
    t2 = dataclasses.replace(t, icache_penalty=45, miss_penalty=36, num_caches=2)
    assert t2 == TimingSpec(1, 1, 36, 0, 45, num_caches=2) != t
    assert (t2.miss_penalty, t2.icache_penalty, t2.num_caches) == (36, 45, 2)
    assert hash(t2) == hash(TimingSpec(miss_penalty=36, icache_penalty=45, num_caches=2))
    with pytest.raises(AttributeError):
        t.miss_penalty = 1
