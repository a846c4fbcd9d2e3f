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

Only Load and Store records are consumed here; write semantics are
ignored (miss counts only).  Accesses spanning block boundaries count one
reference per distinct block touched.
"""

import math
from collections import defaultdict, namedtuple


def block_refs(records, bsize):
    """Yield the block-number stream of a trace's data references."""
    for code, addr, size in records:
        if code == 1 or code == 2:  # L, S
            first, last = addr // bsize, (addr + size - 1) // bsize
            if last <= first:  # one block, or a size of 0 or less
                yield first
            else:
                yield from range(first, last + 1)


class DistanceHistogram(namedtuple("DistanceHistogram", "nsets bsize counts cold")):
    """Per-geometry stack-distance counts.

    ``counts[d]`` is the number of references that found their block at
    depth d of its set's stack; ``cold`` counts references that did not
    find it (first touches, or blocks below a cut stack).  Their sum is
    the total number of block references processed.
    """

    __slots__ = ()

    def __new__(cls, nsets, bsize, counts=None, cold=0):  # each gets its own dict
        return super().__new__(cls, nsets, bsize, {} if counts is None else counts, cold)

    @property
    def total(self):
        return self.cold + sum(self.counts.values())


def _next_uses(stream):
    """Position of each reference's next use of its block, or
    ``len(stream)`` (later than every real position) when there is none."""
    n = len(stream)
    next_use = [n] * n
    last_seen = {}
    for i in range(n - 1, -1, -1):
        b = stream[i]
        next_use[i] = last_seen.get(b, n)
        last_seen[b] = i
    return next_use


def _stack_pass(stream, nsets, bsize, cut=math.inf, next_use=None):
    """One pass of per-set stacks, at most ``cut`` entries deep, over a
    block stream; the LRU rule, or the OPT rule when ``next_use`` (from
    ``_next_uses``) is given.

    An LRU stack holds block numbers.  An OPT stack holds, for each block,
    the position of its next use, which both ranks the block and names the
    reference that will look for it.  A set's stack is made on first touch.
    """
    counts = {}
    stacks = defaultdict(list)
    cold = 0
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
        for i, b in enumerate(stream):
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
            stack[0] = next_use[i]
            if len(stack) > cut:
                stack.pop()
    return DistanceHistogram(nsets, bsize, counts, cold)


def stack_distances(records, nsets, bsize) -> DistanceHistogram:
    """LRU stack distances of every data reference, from one uncut pass."""
    return _stack_pass(block_refs(records, bsize), nsets, bsize)


def misses_for_assoc(hist: DistanceHistogram, assoc: int) -> int:
    """Miss count of an (nsets, bsize, assoc) cache on the same trace."""
    if assoc < 1:
        raise ValueError(f"assoc must be >= 1, got {assoc}")
    return hist.cold + sum(c for d, c in hist.counts.items() if d > assoc)


class SweepRow(namedtuple("SweepRow", "nsets bsize assoc misses miss_rate policy",
                          defaults=(None,))):
    """One sweep result: ints ``nsets``, ``bsize``, ``assoc`` and ``misses``,
    the float ``miss_rate``, and the policy, ``"lru"``, ``"opt"`` or None."""

    __slots__ = ()


def sweep(records, geometries, assocs, opt=False):
    """Evaluate every (geometry x assoc) combination under LRU and, with
    ``opt``, under OPT: one stack pass per geometry and policy, the block
    stream built once per block size.  Rows come in ``geometries`` order,
    all LRU rows first; their policy is None unless ``opt`` is set.
    ``records`` is any iterable; it is read once."""
    if not geometries or not assocs:
        raise ValueError("geometries and assocs must be non-empty")
    records = list(records)
    policies = ("lru", "opt") if opt else (None,)
    misses = {}  # (policy, nsets, bsize) -> misses per entry of assocs
    totals = {}
    for bsize in dict.fromkeys(b for _, b in geometries):
        stream = list(block_refs(records, bsize))
        next_use = _next_uses(stream) if opt else None
        totals[bsize] = len(stream)
        for nsets in dict.fromkeys(n for n, b in geometries if b == bsize):
            for policy in policies:
                hist = _stack_pass(stream, nsets, bsize, max(assocs),
                                   next_use if policy == "opt" else None)
                misses[policy, nsets, bsize] = [misses_for_assoc(hist, a) for a in assocs]
        del stream, next_use  # hold one block size's arrays at a time
    return [SweepRow(nsets, bsize, a, m, m / totals[bsize] if totals[bsize] else 0.0, policy)
            for policy in policies for nsets, bsize in geometries
            for a, m in zip(assocs, misses[policy, nsets, bsize])]


def belady_misses(records, nsets, bsize, assoc) -> int:
    """Miss count under offline optimal replacement: one OPT stack pass
    cut at ``assoc``, after a backward pass that finds each next use."""
    if assoc < 1:
        raise ValueError(f"assoc must be >= 1, got {assoc}")
    stream = list(block_refs(records, bsize))
    return _stack_pass(stream, nsets, bsize, assoc, _next_uses(stream)).cold
