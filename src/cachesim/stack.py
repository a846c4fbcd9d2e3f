"""Design-space exploration: every associativity from one pass per geometry.

LRU and Belady's optimal replacement (OPT) are stack algorithms (Mattson,
Gecsei, Slutz & Traiger, "Evaluation techniques for storage hierarchies",
IBM Systems Journal 1970): the top k entries of each set's stack are
exactly the contents of a k-way cache, so a reference hits an assoc-way
cache when its block's depth is <= assoc, and one pass over the block
stream of an (nsets, bsize) geometry answers every associativity.  The LRU
rule moves the referenced block to the top.  The OPT rule does too, and at
each depth above the block's old one keeps, of the block there and the one
carried down from above, the one whose next use comes sooner.  Stacks are
cut at the largest associativity asked for: deeper entries never change a
miss count.  Each geometry's index function needs its own pass.

``sweep`` reads its trace once, ``_CHUNK`` rows at a time, and feeds each
chunk's block references to every geometry's LRU pass, which keeps its
stacks and counts from chunk to chunk: it holds one chunk and the touched
sets' stacks, however long the trace.  OPT must see the future, so with
``opt`` each block size's stream is kept as an ``array('Q')`` (with a
block size of 1 a block number takes all 64 bits) and, one block size at
a time, its next uses as an ``array('q')``: 16 bytes a reference.

Only Load and Store records are consumed here; write semantics are
ignored (miss counts only).  Accesses spanning block boundaries count one
reference per distinct block touched.
"""

import math
from array import array
from collections import defaultdict, namedtuple
from itertools import count, islice

_CHUNK = 1024  # rows per read of a sweep's trace, and block references per LRU feed


def block_refs(records, bsize):
    """Yield the block-number stream of a trace's data references."""
    for code, addr, size in records:
        if code == 1 or code == 2:  # L, S
            first, last = addr // bsize, (addr + size - 1) // bsize
            if last <= first:  # one block, or a size of 0 or less
                yield first
            else:
                yield from range(first, last + 1)


def _check_axis(name, value):
    """Refuse a geometry or associativity that is not an integer >= 1."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class DistanceHistogram(namedtuple("DistanceHistogram", "nsets bsize counts cold")):
    """Per-geometry stack-distance counts.

    ``counts[d]`` is the number of references that found their block at
    depth d of its set's stack; ``cold`` counts references that did not
    find it (first touches, or blocks below a cut stack).  Their sum is
    the total number of block references processed.
    """

    __slots__ = ()

    def __new__(cls, nsets, bsize, counts=None, cold=0):  # each gets its own dict
        _check_axis("nsets", nsets)
        _check_axis("bsize", bsize)
        return super().__new__(cls, nsets, bsize, {} if counts is None else counts, cold)

    @property
    def total(self):
        return self.cold + sum(self.counts.values())


def _next_uses(stream):
    """Position of each reference's next use of its block, or
    ``len(stream)`` (later than every real position) when there is none,
    as an ``array('q')``."""
    n = len(stream)
    next_use = array("q", [n]) * n
    last_seen = {}
    for i, b in zip(range(n - 1, -1, -1), reversed(stream)):
        next_use[i] = last_seen.get(b, n)
        last_seen[b] = i
    return next_use


def _stack_pass(stream, hist, stacks, cut=math.inf, next_use=None):
    """Feed a block stream to per-set stacks, at most ``cut`` entries deep,
    by the LRU rule, or by the OPT rule when ``next_use`` (from
    ``_next_uses``) is given; return ``hist`` with the stream's references
    added.

    ``hist`` (whose ``counts`` grow in place) and ``stacks`` (a
    ``defaultdict(list)``: a set's stack is made on first touch) are the
    state of a pass, so an LRU pass fed a stream in pieces, one call per
    piece, ends as one fed it whole.  An LRU stack holds block numbers.
    An OPT stack holds, for each block, the position of its next use,
    which both ranks the block and names the reference that will look for
    it; so an OPT pass is fed its whole stream at once.
    """
    nsets, counts, cold = hist.nsets, hist.counts, hist.cold
    if next_use is None:
        for b in stream:
            stack = stacks[b % nsets]
            if b in stack:
                depth = stack.index(b) + 1
                counts[depth] = counts.get(depth, 0) + 1
                if depth > 1:
                    del stack[depth - 1]
                    stack.insert(0, b)
            else:
                cold += 1
                stack.insert(0, b)
                if len(stack) > cut:
                    stack.pop()
    else:
        for i, b, nu in zip(count(), stream, next_use):
            stack = stacks[b % nsets]
            if i in stack:
                d = stack.index(i)
                counts[d + 1] = counts.get(d + 1, 0) + 1
            else:
                cold += 1
                d = len(stack)
                stack.append(None)
            if d:
                carry = stack[0]
                for j in range(1, d):
                    if stack[j] > carry:
                        stack[j], carry = carry, stack[j]
                stack[d] = carry
            stack[0] = nu
            if len(stack) > cut:
                stack.pop()
    return hist._replace(cold=cold)


def stack_distances(records, nsets, bsize) -> DistanceHistogram:
    """LRU stack distances of every data reference, from one uncut pass."""
    return _lru_passes(records, {bsize: (nsets,)}, math.inf)[nsets, bsize]


def misses_for_assoc(hist: DistanceHistogram, assoc: int) -> int:
    """Miss count of an (nsets, bsize, assoc) cache on the same trace."""
    _check_axis("assoc", assoc)
    return hist.cold + sum(c for d, c in hist.counts.items() if d > assoc)


class SweepRow(namedtuple("SweepRow", "nsets bsize assoc misses miss_rate policy",
                          defaults=(None,))):
    """One sweep result: ints ``nsets``, ``bsize``, ``assoc`` and ``misses``,
    the float ``miss_rate``, and the policy, ``"lru"``, ``"opt"`` or None."""

    __slots__ = ()


def _lru_passes(records, set_counts, cut, streams=None):
    """Read ``records`` once, ``_CHUNK`` rows at a time, and feed each
    chunk's block references for every block size ``bsize`` to the LRU
    pass of each set count in ``set_counts[bsize]``, ``_CHUNK`` references
    at a time; append them to ``streams[bsize]`` too, when given.  Return
    the histograms by (nsets, bsize)."""
    state = {(nsets, bsize): (DistanceHistogram(nsets, bsize), defaultdict(list))
             for bsize, sets in set_counts.items() for nsets in sets}
    records = iter(records)
    while rows := list(islice(records, _CHUNK)):
        for bsize, sets in set_counts.items():
            refs = block_refs(rows, bsize)
            while blocks := list(islice(refs, _CHUNK)):  # a wide row in pieces
                if streams is not None:
                    streams[bsize].fromlist(blocks)
                for nsets in sets:
                    hist, stacks = state[nsets, bsize]
                    state[nsets, bsize] = _stack_pass(blocks, hist, stacks, cut), stacks
        del rows  # before the next chunk is read
    return {geometry: hist for geometry, (hist, _) in state.items()}


def sweep(records, geometries, assocs, opt=False):
    """Evaluate every (geometry x assoc) combination under LRU and, with
    ``opt``, under OPT: one stack pass per geometry and policy.  Rows come
    in ``geometries`` order, all LRU rows first; their policy is None
    unless ``opt`` is set.  ``records`` is any iterable; it is read once,
    in chunks, and the OPT passes follow the read."""
    if not geometries or not assocs:
        raise ValueError("geometries and assocs must be non-empty")
    for a in assocs:  # before the trace is read
        _check_axis("assoc", a)
    cut = max(assocs)
    set_counts = {}  # bsize -> the set counts that share its block stream
    for nsets, bsize in geometries:
        set_counts.setdefault(bsize, {})[nsets] = None
    streams = {bsize: array("Q") for bsize in set_counts} if opt else None
    hists = _lru_passes(records, set_counts, cut, streams)
    totals = {bsize: hist.total for (_, bsize), hist in hists.items()}
    misses = {("lru" if opt else None, *geometry): [misses_for_assoc(hist, a) for a in assocs]
              for geometry, hist in hists.items()}
    for bsize, sets in set_counts.items() if opt else ():
        stream = streams.pop(bsize)
        next_use = _next_uses(stream)
        for nsets in sets:
            hist = _stack_pass(stream, DistanceHistogram(nsets, bsize), defaultdict(list), cut,
                               next_use)
            misses["opt", nsets, bsize] = [misses_for_assoc(hist, a) for a in assocs]
        del stream, next_use  # one block size's arrays freed before the next is built
    policies = ("lru", "opt") if opt else (None,)
    return [SweepRow(nsets, bsize, a, m, m / totals[bsize] if totals[bsize] else 0.0, policy)
            for policy in policies for nsets, bsize in geometries
            for a, m in zip(assocs, misses[policy, nsets, bsize])]


def belady_misses(records, nsets, bsize, assoc) -> int:
    """Miss count under offline optimal replacement: one OPT stack pass
    cut at ``assoc``, after a backward pass that finds each next use."""
    _check_axis("assoc", assoc)
    hist = DistanceHistogram(nsets, bsize)  # checks the geometry before the trace is read
    stream = array("Q", block_refs(records, bsize))
    return _stack_pass(stream, hist, defaultdict(list), assoc, _next_uses(stream)).cold
