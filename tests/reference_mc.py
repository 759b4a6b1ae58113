"""Reference Monte Carlo trials: the assemble-and-recount body the batched kernel replaced.

Kept verbatim as a differential oracle.  Each trial builds a validated
``RelocationMap`` entry by entry from ``random.Random(seed * _MC_STRIDE + t)``,
assembles the MD matrix and counts the target instances on it with the
ordinary enumerator, so it shares no potential solve with
``mdreloc.oracle``.  About a millisecond per trial on K4.
"""

from __future__ import annotations

import random

from mdreloc import BinaryMatrix, RelocationMap, assemble_md, enumerate_md_uas
from mdreloc.oracle import _MC_STRIDE


def _random_relocation(matrix: BinaryMatrix, m: int, seed: int) -> RelocationMap:
    rng = random.Random(seed)
    reloc = RelocationMap(m, matrix, granularity="entry")
    for r, c in matrix.entries:
        reloc.assign_entry(r, c, rng.randrange(m))
    return reloc


def _mc_chunk(args) -> list[int]:
    matrix, config, m, seed, start, stop = args
    counts = []
    for t in range(start, stop):
        reloc = _random_relocation(matrix, m, seed * _MC_STRIDE + t)
        counts.append(enumerate_md_uas(assemble_md(matrix, reloc), config))
    return counts
