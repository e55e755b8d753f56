"""The one rule for splitting rows across the CPUs this process may use.

The lattice evolution (particle1d) and the CSV writer (cli) both cut their
rows into contiguous blocks by this rule, at most one block per usable CPU.
"""

import os


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def row_cuts(rows: int, most: int) -> list:
    """Cut `rows` into max(1, min(usable CPUs, most)) contiguous blocks;
    block i holds rows cuts[i]:cuts[i + 1]."""
    blocks = max(1, min(usable_cpus(), most))
    return [rows * i // blocks for i in range(blocks + 1)]
