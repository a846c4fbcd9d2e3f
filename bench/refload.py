"""A fixed reference load, timed beside every CLI run to track host speed.

    python3 -S bench/refload.py

The host the benchmark runs on is shared: its speed for this kind of
program changes by up to about two times within seconds, and it stays in one
state for seconds at a time.  Tight calculation loops do not feel the
change; programs that, like the simulator, parse text and walk dicts and
lists of a few megabytes do.  This load is such a program: it decodes a
fixed synthetic text trace and runs it through a set-associative LRU
model.  It shares no code with the package or its tests, so a change to
the program under test cannot change its cost.  ``run.py`` scales each CLI
run by this load's nominal time over its time measured next to the run.
"""

RECORDS = 40_000
SETS, WAYS, BLOCK = 256, 4, 32


def main():
    # The trace text: a fixed linear-congruential address stream, mostly
    # inside a 64 KiB window, as "L <hex> <size>" lines.
    lines = []
    x = 12345
    for i in range(RECORDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 4) & 0xFFFF if i % 8 else (x >> 4) & 0xFFFFF
        lines.append(f"{'S' if x & 3 == 0 else 'L'} {addr:x} {1 << (x & 3)}")
    text = "\n".join(lines)

    records = []
    for line in text.splitlines():
        kind, hexaddr, size = line.split()
        records.append((kind, int(hexaddr, 16), int(size)))

    sets = [{} for _ in range(SETS)]  # per set: block -> last use
    misses = 0
    for now, (kind, addr, size) in enumerate(records):
        for block in range(addr // BLOCK, (addr + size - 1) // BLOCK + 1):
            lines_of_set = sets[block % SETS]
            if block not in lines_of_set:
                misses += 1
                if len(lines_of_set) == WAYS:
                    del lines_of_set[min(lines_of_set, key=lines_of_set.get)]
            lines_of_set[block] = now
    print(misses)


if __name__ == "__main__":
    main()
