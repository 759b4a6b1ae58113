"""Reference Monte Carlo trials: the bodies the batched kernels replaced.

Kept verbatim as differential oracles.  ``reference_draw_values`` calls
``randrange`` once per entry of every trial, where ``oracle._draw_values``
decodes one ``getrandbits`` block per trial.  In ``_mc_chunk`` each trial
builds a validated ``RelocationMap`` entry by entry from
``random.Random(seed * _MC_STRIDE + t)``, assembles the MD matrix and
counts the target instances on it with the ordinary enumerator, so it
shares no potential solve with ``mdreloc.oracle``.  About a millisecond
per trial on K4.
"""

from __future__ import annotations

import random

import numpy as np

from mdreloc import BinaryMatrix, RelocationMap, assemble_md, enumerate_md_uas
from mdreloc.oracle import _MC_STRIDE


def reference_draw_values(n_entries: int, m: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Relocation values of trials start..stop-1, one column per host entry id."""
    rows = []
    for t in range(start, stop):
        rng = random.Random(seed * _MC_STRIDE + t)
        rows.append([rng.randrange(m) for _ in range(n_entries)])
    return np.array(rows, dtype=np.int64)


def _random_relocation(matrix: BinaryMatrix, m: int, seed: int) -> RelocationMap:
    rng = random.Random(seed)
    reloc = RelocationMap(m, matrix)
    for r, c in matrix.entries:
        reloc.assign_entry(r, c, rng.randrange(m))
    return reloc


def _mc_chunk(args) -> list[int]:
    matrix, config, m, seed, start, stop = args
    counts = []
    for t in range(start, stop):
        reloc = _random_relocation(matrix, m, seed * _MC_STRIDE + t)
        counts.append(enumerate_md_uas(assemble_md(reloc), config))
    return counts
