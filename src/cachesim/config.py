"""Cache and timing configuration parsing.

Two configuration dialects are supported and normalized into one model:

* SimpleScalar-style colon strings and flag pairs, e.g.
  ``-cache:dl1 dl1:256:32:1:l`` where the string reads
  ``<name>:<nsets>:<bsize>:<assoc>:<repl>``.
* VEX-style ``vex.cfg`` key/value files with lg2-encoded geometry, e.g.
  ``lg2CacheSize 16`` (a 64 KiB cache).

All parses are pure functions over their inputs; the resulting spec
objects are immutable.
"""

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum


class ConfigError(ValueError):
    """Base class for configuration parse and validation failures."""


class WrongFieldCount(ConfigError):
    pass


class NonPowerOfTwo(ConfigError):
    def __init__(self, field_name, value):
        super().__init__(f"{field_name} must be a power of two >= 1, got {value}")
        self.field = field_name
        self.value = value


class UnknownPolicy(ConfigError):
    def __init__(self, char):
        super().__init__(f"unknown replacement policy {char!r}: expected 'l', 'f' or 'r'")
        self.char = char


class NonNumeric(ConfigError):
    def __init__(self, field_name, text):
        super().__init__(f"{field_name} must be a plain decimal integer, got {text!r}")
        self.field = field_name
        self.text = text


class InvalidUnification(ConfigError):
    pass


class UnknownFlag(ConfigError):
    pass


class MissingKey(ConfigError):
    def __init__(self, key):
        super().__init__(f"required key {key!r} missing")
        self.key = key


class NonNumericValue(ConfigError):
    def __init__(self, key, text):
        super().__init__(f"value for {key!r} must be an integer, got {text!r}")
        self.key = key
        self.text = text


class GeometryUnderflow(ConfigError):
    pass


def is_pow2(n):
    """True for 1, 2, 4, 8, ... only."""
    return n >= 1 and (n & (n - 1)) == 0


class ReplacementPolicy(Enum):
    """Victim-selection policy, encoded by the single character used in
    config strings: 'l'-LRU, 'f'-FIFO, 'r'-random."""

    LRU = "l"
    FIFO = "f"
    RANDOM = "r"

    @classmethod
    def from_char(cls, char):
        for p in cls:
            if p.value == char:
                return p
        raise UnknownPolicy(char)

    @property
    def char(self):
        return self.value


@dataclass(frozen=True)
class CacheSpec:
    """Geometry and policy of one cache.

    ``nsets``, ``bsize`` and ``assoc`` must each be powers of two so the
    index/tag split is a shift/mask decomposition.  TLBs reuse this type
    with ``bsize`` read as the page size in bytes.
    """

    name: str
    nsets: int
    bsize: int
    assoc: int
    repl: ReplacementPolicy

    @property
    def capacity_bytes(self):
        return self.nsets * self.bsize * self.assoc

    def validate(self):
        if not self.name or any(c.isspace() for c in self.name) or ":" in self.name:
            raise ConfigError(f"invalid cache name {self.name!r}")
        for fname in ("nsets", "bsize", "assoc"):
            v = getattr(self, fname)
            if not is_pow2(v):
                raise NonPowerOfTwo(fname, v)
        return self

    def render(self):
        """Inverse of parse_cache_spec: the canonical colon string."""
        return f"{self.name}:{self.nsets}:{self.bsize}:{self.assoc}:{self.repl.char}"


@dataclass(frozen=True)
class UnifiedWith:
    """Binding that aliases an instruction-cache level onto a data level."""

    target: str  # "dl1" or "dl2"


# A cache level is either configured, absent, or unified with a data level.
CacheBinding = CacheSpec | UnifiedWith | None


def parse_cache_spec(text):
    """Parse ``<name>:<nsets>:<bsize>:<assoc>:<repl>`` into a CacheSpec.

    Numeric fields must be canonical decimal (no sign, no leading zeros)
    so that render() round-trips byte-for-byte.
    """
    parts = text.split(":")
    if len(parts) != 5:
        raise WrongFieldCount(
            f"expected 5 colon-separated fields in {text!r}, got {len(parts)}"
        )
    name = parts[0]
    values = {}
    for fname, tok in zip(("nsets", "bsize", "assoc"), parts[1:4]):
        if not tok.isdigit() or str(int(tok)) != tok:
            raise NonNumeric(fname, tok)
        v = int(tok)
        if not is_pow2(v):
            raise NonPowerOfTwo(fname, v)
        values[fname] = v
    repl = ReplacementPolicy.from_char(parts[4])
    spec = CacheSpec(name, values["nsets"], values["bsize"], values["assoc"], repl)
    return spec.validate()


@dataclass(frozen=True)
class HierarchySpec:
    """Bindings for the two-level split/unified hierarchy plus both TLBs."""

    il1: CacheBinding = None
    il2: CacheBinding = None
    dl1: CacheSpec | None = None
    dl2: CacheSpec | None = None
    itlb: CacheSpec | None = None
    dtlb: CacheSpec | None = None
    flush_on_syscall: bool = False

    def validate(self):
        for level, allowed in (("il1", ("dl1", "dl2")), ("il2", ("dl2",))):
            b = getattr(self, level)
            if isinstance(b, UnifiedWith) and b.target not in allowed:
                raise InvalidUnification(
                    f"{level} may only be unified with {' or '.join(allowed)}, "
                    f"not {b.target!r}"
                )
        for level in ("dl1", "dl2", "itlb", "dtlb"):
            if isinstance(getattr(self, level), UnifiedWith):
                raise InvalidUnification(f"{level} cannot be a unified level")
        if self.dl2 is not None and self.dl1 is None:
            raise ConfigError("dl2 is configured but dl1 is none")
        if isinstance(self.il2, CacheSpec) and self.il1 is None:
            raise ConfigError("il2 is configured but il1 is none")
        names = set()
        for b in (self.il1, self.il2, self.dl1, self.dl2, self.itlb, self.dtlb):
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

_UNIFY_TARGETS = {
    "-cache:il1": ("dl1", "dl2"),
    "-cache:il2": ("dl2",),
    "-cache:dl1": (),
    "-cache:dl2": (),
}


def _decode_cache_value(flag, value):
    if value == "none":
        return None
    if ":" not in value:
        # A bare level name requests unification.
        if value in ("dl1", "dl2") and value in _UNIFY_TARGETS.get(flag, ()):
            return UnifiedWith(value)
        raise InvalidUnification(f"{flag} may not be pointed at {value!r}")
    return parse_cache_spec(value)


def _decode_tlb_value(flag, value):
    if value == "none":
        return None
    if ":" not in value:
        raise InvalidUnification(f"{flag} takes a config string or 'none', not {value!r}")
    return parse_cache_spec(value)


def parse_hierarchy_args(args):
    """Decode ``-cache:*`` / ``-tlb:*`` / ``-flush`` flag/value pairs.

    Unspecified flags take the standard sim-cache defaults.  A unification
    binding whose target level ends up disabled degrades to none, which
    keeps the default ``-cache:il2 dl2`` usable alongside ``-cache:dl2 none``.
    """
    merged = dict(DEFAULT_HIERARCHY_ARGS)
    if len(args) % 2 != 0:
        raise ConfigError(f"flag {args[-1]!r} is missing its value")
    for flag, value in zip(args[0::2], args[1::2]):
        if flag not in merged:
            raise UnknownFlag(f"unknown flag {flag!r}")
        merged[flag] = value

    if merged["-flush"] not in ("true", "false"):
        raise ConfigError(f"-flush takes 'true' or 'false', got {merged['-flush']!r}")

    spec = HierarchySpec(
        il1=_decode_cache_value("-cache:il1", merged["-cache:il1"]),
        il2=_decode_cache_value("-cache:il2", merged["-cache:il2"]),
        dl1=_decode_cache_value("-cache:dl1", merged["-cache:dl1"]),
        dl2=_decode_cache_value("-cache:dl2", merged["-cache:dl2"]),
        itlb=_decode_tlb_value("-tlb:itlb", merged["-tlb:itlb"]),
        dtlb=_decode_tlb_value("-tlb:dtlb", merged["-tlb:dtlb"]),
        flush_on_syscall=merged["-flush"] == "true",
    )

    # Degrade unifications that point at a disabled level.
    levels = {"dl1": spec.dl1, "dl2": spec.dl2}
    if isinstance(spec.il1, UnifiedWith) and levels[spec.il1.target] is None:
        spec = replace(spec, il1=None)
    if isinstance(spec.il2, UnifiedWith) and levels[spec.il2.target] is None:
        spec = replace(spec, il2=None)
    return spec.validate()


@dataclass(frozen=True)
class TimingSpec:
    """Cycle-model parameters shared by both dialects.

    Clock frequencies are in MHz; every penalty and latency is in core
    cycles; ``mem_width`` is bytes moved per bus beat.
    """

    core_clk_mhz: int = 1
    bus_clk_mhz: int = 1
    miss_penalty: int = 0
    wb_penalty: int = 0
    icache_penalty: int = 0
    branch_stall: int = 0
    tlb_lat: int = 30
    mem_lat_first: int = 18
    mem_lat_next: int = 2
    mem_width: int = 8
    num_caches: int = 1

    def validate(self):
        if not (self.core_clk_mhz >= self.bus_clk_mhz > 0):
            raise ConfigError(
                f"need core_clk_mhz >= bus_clk_mhz > 0, got "
                f"{self.core_clk_mhz}/{self.bus_clk_mhz}"
            )
        for fname in (
            "miss_penalty",
            "wb_penalty",
            "icache_penalty",
            "branch_stall",
            "tlb_lat",
            "mem_lat_first",
            "mem_lat_next",
        ):
            if getattr(self, fname) < 0:
                raise ConfigError(f"{fname} must be >= 0")
        if not is_pow2(self.mem_width):
            raise NonPowerOfTwo("mem_width", self.mem_width)
        if self.num_caches < 0:
            raise ConfigError("num_caches must be >= 0")
        return self


# Geometry and timing keys consumed from a vex.cfg file.
_VEX_REQUIRED = (
    "lg2CacheSize",
    "lg2Sets",
    "lg2LineSize",
    "lg2ICacheSize",
    "lg2ICacheSets",
    "lg2ICacheLineSize",
    "MissPenalty",
    "WBPenalty",
    "ICachePenalty",
    "CoreCkFreq",
    "BusCkFreq",
)
_VEX_OPTIONAL = {"BranchStall": 1, "NumCaches": 1}

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


def _vex_geometry(name, kv, size_key, sets_key, line_key):
    size = 1 << _vex_int(kv, size_key)
    assoc = 1 << _vex_int(kv, sets_key)
    bsize = 1 << _vex_int(kv, line_key)
    if size < bsize * assoc:
        raise GeometryUnderflow(
            f"{size_key}: cache of {size} bytes cannot hold {assoc} ways of "
            f"{bsize}-byte lines"
        )
    nsets = size // (bsize * assoc)
    return CacheSpec(name, nsets, bsize, assoc, ReplacementPolicy.LRU).validate()


def _vex_int(kv, key, default=None):
    if key not in kv:
        if default is not None:
            return default
        raise MissingKey(key)
    text, line_no = kv[key]
    try:
        v = int(text)
    except ValueError:
        raise NonNumericValue(key, text) from None
    if key.startswith("lg2") and not 0 <= v <= 48:
        raise ConfigError(f"line {line_no}: {key} out of range: {v}")
    return v


def parse_vex_cfg(text):
    """Parse a vex.cfg file into (dcache spec, icache spec, timing spec).

    Lines read ``Key Value`` with ``#`` starting a comment.  The ``lg2Sets``
    value is the log2 of the way count: a literal number-of-sets reading
    would turn the standard file into a 512-way cache.  Unknown keys are
    ignored with a warning; duplicate keys keep the last value.
    """
    kv = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ConfigError(f"line {line_no}: expected 'Key Value', got {raw!r}")
        key, value = toks
        if key not in _VEX_REQUIRED and key not in _VEX_OPTIONAL and key not in _VEX_IGNORED:
            warnings.warn(f"vex.cfg line {line_no}: ignoring unknown key {key!r}")
            continue
        kv[key] = (value, line_no)

    dcache = _vex_geometry("dcache", kv, "lg2CacheSize", "lg2Sets", "lg2LineSize")
    icache = _vex_geometry(
        "icache", kv, "lg2ICacheSize", "lg2ICacheSets", "lg2ICacheLineSize"
    )
    timing = TimingSpec(
        core_clk_mhz=_vex_int(kv, "CoreCkFreq"),
        bus_clk_mhz=_vex_int(kv, "BusCkFreq"),
        miss_penalty=_vex_int(kv, "MissPenalty"),
        wb_penalty=_vex_int(kv, "WBPenalty"),
        icache_penalty=_vex_int(kv, "ICachePenalty"),
        branch_stall=_vex_int(kv, "BranchStall", _VEX_OPTIONAL["BranchStall"]),
        num_caches=_vex_int(kv, "NumCaches", _VEX_OPTIONAL["NumCaches"]),
    ).validate()
    return dcache, icache, timing
