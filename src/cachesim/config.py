"""Cache and timing configuration parsing.

Two configuration dialects are supported and normalized into one model:

* SimpleScalar-style colon strings and flag pairs, e.g.
  ``-cache:dl1 dl1:256:32:1:l`` where the string reads
  ``<name>:<nsets>:<bsize>:<assoc>:<repl>``.
* VEX-style ``vex.cfg`` key/value files with lg2-encoded geometry, e.g.
  ``lg2CacheSize 16`` (a 64 KiB cache).

All parses are pure functions over their inputs; the resulting specs
are immutable.  ``CacheSpec`` and ``HierarchySpec`` are named tuples.
``TimingSpec``, a frozen dataclass, is defined in timing.py;
``parse_vex_cfg`` imports it when it runs, so ``sweep`` and ``sim``
without a timing flag, which read no timing, never load ``dataclasses``.
Every bad value raises ``ConfigError`` (a ``ValueError``) whose message
names the problem.  A unified level is spelled as the bare name of its
data level, ``"dl1"`` or ``"dl2"``, both in the flag values and in
``HierarchySpec.il1``/``il2``.

Each rule is stated once.  ``DEFAULT_HIERARCHY_ARGS`` holds the hierarchy
flags and their defaults; the CLI's flag list is its keys.  ``_UNIFIABLE``
says which level may be unified with which data level; both the flag
decoder and ``HierarchySpec.validate`` read it.  ``_check_pow2`` holds the
power-of-two rule for cache geometry and ``mem_width``.  ``_VEX_GEOMETRY``
and ``_VEX_TIMING`` list every vex.cfg key that is read, with its
TimingSpec field and default; ``_vex_int`` rejects a negative value of any
of them, and an lg2 value over 48, naming the key and its line.
"""

import warnings
from collections import namedtuple
from enum import Enum


class ConfigError(ValueError):
    """A configuration parse or validation failure; the message names the
    problem, and the line where one applies."""


def is_pow2(n):
    """True for 1, 2, 4, 8, ... only."""
    return n >= 1 and (n & (n - 1)) == 0


def _check_pow2(field_name, value):
    if not is_pow2(value):
        raise ConfigError(f"{field_name} must be a power of two >= 1, got {value}")


class ReplacementPolicy(Enum):
    """Victim-selection policy, encoded by the single character used in
    config strings: 'l'-LRU, 'f'-FIFO, 'r'-random."""

    LRU = "l"
    FIFO = "f"
    RANDOM = "r"


class CacheSpec(namedtuple("CacheSpec", "name nsets bsize assoc repl")):
    """Geometry and policy of one cache: its name, then ints ``nsets``,
    ``bsize`` and ``assoc``, then a ReplacementPolicy.

    ``nsets``, ``bsize`` and ``assoc`` must each be powers of two so the
    index/tag split is a shift/mask decomposition.  TLBs reuse this type
    with ``bsize`` read as the page size in bytes.
    """

    __slots__ = ()

    def validate(self):
        if not self.name or any(c.isspace() for c in self.name) or ":" in self.name:
            raise ConfigError(f"invalid cache name {self.name!r}")
        for fname in ("nsets", "bsize", "assoc"):
            _check_pow2(fname, getattr(self, fname))
        return self

    def render(self):
        """Inverse of parse_cache_spec: the canonical colon string."""
        return f"{self.name}:{self.nsets}:{self.bsize}:{self.assoc}:{self.repl.value}"


def parse_cache_spec(text):
    """Parse ``<name>:<nsets>:<bsize>:<assoc>:<repl>`` into a CacheSpec.

    Numeric fields must be canonical decimal (no sign, no leading zeros)
    so that render() round-trips byte-for-byte.
    """
    parts = text.split(":")
    if len(parts) != 5:
        raise ConfigError(f"expected 5 colon-separated fields in {text!r}, got {len(parts)}")
    for fname, tok in zip(("nsets", "bsize", "assoc"), parts[1:4]):
        if not tok.isdigit() or str(int(tok)) != tok:
            raise ConfigError(f"{fname} must be a plain decimal integer, got {tok!r}")
    try:
        repl = ReplacementPolicy(parts[4])
    except ValueError:
        raise ConfigError(f"unknown replacement policy {parts[4]!r}: "
                          "expected 'l', 'f' or 'r'") from None
    return CacheSpec(parts[0], *map(int, parts[1:4]), repl).validate()


# The cache levels of a HierarchySpec, in field order.
_LEVELS = ("il1", "il2", "dl1", "dl2", "itlb", "dtlb")

# Level -> the data levels it may be unified with by naming one; every other
# level takes only a config string or none.
_UNIFIABLE = {"il1": ("dl1", "dl2"), "il2": ("dl2",)}


def _bad_unification(name, level, target):
    """The error for ``level``, called ``name`` in the message, given a
    string ``target`` that names no data level it may be unified with."""
    words = ("a config string", *map(repr, ("none", *_UNIFIABLE.get(level, ()))))
    return ConfigError(f"{name} takes {', '.join(words[:-1])} or {words[-1]}, not {target!r}")


class HierarchySpec(namedtuple("HierarchySpec", (*_LEVELS, "flush_on_syscall"),
                                defaults=(None,) * len(_LEVELS) + (False,))):
    """Bindings for the two-level split/unified hierarchy plus both TLBs,
    each a CacheSpec or None, and the flush-on-syscall flag.

    ``il1`` and ``il2`` may also name the data level they are unified
    with, ``"dl1"`` or ``"dl2"``, as the ``-cache:il1``/``-cache:il2``
    flag values do."""

    __slots__ = ()

    def validate(self):
        for level, b in zip(_LEVELS, self):
            if isinstance(b, str) and b not in _UNIFIABLE.get(level, ()):
                raise _bad_unification(level, level, b)
        if self.dl2 is not None and self.dl1 is None:
            raise ConfigError("dl2 is configured but dl1 is none")
        if isinstance(self.il2, CacheSpec) and not isinstance(self.il1, CacheSpec):
            # Fetches follow il1: with il1 unified they take the data chain.
            il1 = "none" if self.il1 is None else \
                f"unified with {self.il1}, so fetches never reach il2"
            raise ConfigError(f"il2 is configured but il1 is {il1}")
        names = set()
        for b in self:  # the levels, then flush_on_syscall
            if isinstance(b, CacheSpec):
                b.validate()
                if b.name in names:
                    raise ConfigError(f"two distinct caches share the name {b.name!r}")
                names.add(b.name)
        return self


# Default hierarchy, identical to spelling every flag out explicitly.
DEFAULT_HIERARCHY_ARGS = {
    "-cache:dl1": "dl1:256:32:1:l",
    "-cache:dl2": "ul2:1024:64:4:l",
    "-cache:il1": "il1:256:32:1:l",
    "-cache:il2": "dl2",
    "-tlb:itlb": "itlb:16:4096:4:l",
    "-tlb:dtlb": "dtlb:32:4096:4:l",
    "-flush": "false",
}

# Level -> the flag that configures it.
_LEVEL_FLAGS = {flag.split(":")[1]: flag for flag in DEFAULT_HIERARCHY_ARGS if flag != "-flush"}


def _decode_level(level, merged):
    """Decode one level's flag value: a config string, ``none``, or the bare
    name of a data level to unify with.  A unification whose target is
    itself ``none`` degrades to none, which keeps the default
    ``-cache:il2 dl2`` usable alongside ``-cache:dl2 none``."""
    flag = _LEVEL_FLAGS[level]
    value = merged[flag]
    if value == "none":
        return None
    if ":" in value:
        return parse_cache_spec(value)
    if value not in _UNIFIABLE.get(level, ()):
        raise _bad_unification(flag, level, value)
    return None if merged[_LEVEL_FLAGS[value]] == "none" else value


def parse_hierarchy_args(args):
    """Decode ``-cache:*`` / ``-tlb:*`` / ``-flush`` flag/value pairs.

    Unspecified flags take the standard sim-cache defaults; a unification
    whose target level is ``none`` degrades to none.
    """
    merged = dict(DEFAULT_HIERARCHY_ARGS)
    if len(args) % 2 != 0:
        raise ConfigError(f"flag {args[-1]!r} is missing its value")
    for flag, value in zip(args[0::2], args[1::2]):
        if flag not in merged:
            raise ConfigError(f"unknown flag {flag!r}")
        merged[flag] = value

    if merged["-flush"] not in ("true", "false"):
        raise ConfigError(f"-flush takes 'true' or 'false', got {merged['-flush']!r}")

    return HierarchySpec(**{level: _decode_level(level, merged) for level in _LEVELS},
                         flush_on_syscall=merged["-flush"] == "true").validate()


# vex.cfg geometry keys: cache name -> (lg2 size, lg2 ways, lg2 line size).
_VEX_GEOMETRY = {
    "dcache": ("lg2CacheSize", "lg2Sets", "lg2LineSize"),
    "icache": ("lg2ICacheSize", "lg2ICacheSets", "lg2ICacheLineSize"),
}
# vex.cfg timing keys: key -> (TimingSpec field, default or None if required).
_VEX_TIMING = {
    "CoreCkFreq": ("core_clk_mhz", None),
    "BusCkFreq": ("bus_clk_mhz", None),
    "MissPenalty": ("miss_penalty", None),
    "WBPenalty": ("wb_penalty", None),
    "ICachePenalty": ("icache_penalty", None),
    "BranchStall": ("branch_stall", 1),
    "NumCaches": ("num_caches", 1),
}

# Recognized but unused: these parse without a warning and are ignored;
# no mechanism is modeled for them.
_VEX_IGNORED = {
    "lg2StrSize",
    "lg2StrSets",
    "lg2StrLineSize",
    "StrMissPenalty",
    "StrWBPenalty",
    "StreamEnable",
    "PrefetchEnable",
    "LockEnable",
    "ProfGranularity",
}
_VEX_KEYS = {*_VEX_TIMING, *_VEX_IGNORED, *(k for keys in _VEX_GEOMETRY.values() for k in keys)}


def _vex_geometry(kv, name, size_key, sets_key, line_key):
    size = 1 << _vex_int(kv, size_key)
    assoc = 1 << _vex_int(kv, sets_key)
    bsize = 1 << _vex_int(kv, line_key)
    if size < bsize * assoc:
        raise ConfigError(
            f"line {kv[size_key][1]}: {size_key}: cache of {size} bytes cannot hold "
            f"{assoc} ways of {bsize}-byte lines"
        )
    nsets = size // (bsize * assoc)
    return CacheSpec(name, nsets, bsize, assoc, ReplacementPolicy.LRU).validate()


def _vex_int(kv, key, default=None):
    if key not in kv:
        if default is not None:
            return default
        raise ConfigError(f"required key {key!r} missing")
    text, line_no = kv[key]
    try:
        v = int(text)
    except ValueError:
        raise ConfigError(f"line {line_no}: value for {key!r} must be an integer, "
                          f"got {text!r}") from None
    if v < 0 or key.startswith("lg2") and v > 48:
        raise ConfigError(f"line {line_no}: {key} out of range: {v}")
    return v


def parse_vex_cfg(text):
    """Parse a vex.cfg file into (dcache spec, icache spec, timing spec).

    Lines end at ``\n``, as trace lines do, and read ``Key Value`` with
    ``#`` starting a comment.  The ``lg2Sets``
    value is the log2 of the way count: a literal number-of-sets reading
    would turn the standard file into a 512-way cache.  Unknown keys are
    ignored with a warning; duplicate keys keep the last value.
    """
    kv = {}
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ConfigError(f"line {line_no}: expected 'Key Value', got {raw!r}")
        key, value = toks
        if key not in _VEX_KEYS:
            warnings.warn(f"line {line_no}: ignoring unknown key {key!r}")
            continue
        kv[key] = (value, line_no)

    dcache, icache = (_vex_geometry(kv, name, *keys) for name, keys in _VEX_GEOMETRY.items())
    values = {f: _vex_int(kv, key, default) for key, (f, default) in _VEX_TIMING.items()}
    core, bus = values["core_clk_mhz"], values["bus_clk_mhz"]
    if bus == 0:
        raise ConfigError(f"line {kv['BusCkFreq'][1]}: need BusCkFreq > 0, got 0")
    if core < bus:
        raise ConfigError(f"line {kv['CoreCkFreq'][1]}: need CoreCkFreq >= BusCkFreq "
                          f"(line {kv['BusCkFreq'][1]}), got {core} < {bus}")
    from .timing import TimingSpec

    timing = TimingSpec(**values).validate()
    return dcache, icache, timing
