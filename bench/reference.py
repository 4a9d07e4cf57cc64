"""A fixed reference computation that measures the machine's speed.

On a shared host the same work can take up to twice as long from one
second to the next, because neighbours compete for the core and its
caches. ``seconds()`` times a fixed piece of pure-Python exact arithmetic
that looks like the library's hot path: a product of two sparse operators
whose terms are keyed by bit masks and carry complex ``Fraction``
coefficients. It uses only the standard library, so no change to
``specasym`` changes its cost.

The benchmark runs it before and after every case on the same CPU and
reports each case as ``case seconds / reference seconds * NOMINAL``:
seconds on a machine where the reference takes ``NOMINAL`` seconds.

Set-up is mostly imports, which a busy neighbour slows differently from
arithmetic. ``import_seconds()`` therefore times, in a fresh interpreter,
the import of numpy and scipy.integrate, the third-party modules the
library loads today; set-up is scaled by it with ``IMPORT_NOMINAL``.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# the references' times on a quiet 2-vCPU Xeon VM with Python 3.11
NOMINAL = 0.020
IMPORT_NOMINAL = 0.50

_IMPORT_PROBE = """
import time
start = time.perf_counter()
import numpy, scipy.integrate
print(time.perf_counter() - start)
"""


def _operator(rng: random.Random, terms: int):
    out = {}
    while len(out) < terms:
        mask = sum(1 << b for b in rng.sample(range(16), 3))
        out[(mask, rng.randrange(8))] = (Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                         Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    return out


_RNG = random.Random("specasym-bench-reference")
_A = _operator(_RNG, 70)
_B = _operator(_RNG, 70)


def _product():
    out = {}
    for (f1, k1), (r1, i1) in _A.items():
        for (f2, k2), (r2, i2) in _B.items():
            if f1 & f2:
                continue
            key = (f1 | f2, k1 + k2)
            re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            if key in out:
                o = out[key]
                out[key] = (o[0] + re, o[1] + im)
            else:
                out[key] = (re, im)
    return out


_EXPECTED = len(_product())


def seconds() -> float:
    """Seconds of one reference product, with the cyclic collector off.

    Collector settings made by the library therefore do not change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        out = _product()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if len(out) != _EXPECTED:
        raise RuntimeError("reference product changed size")
    return elapsed


def seconds_around(case_seconds: float) -> float:
    """Mean of enough reference timings to stand for a case this long.

    One 20 ms timing catches the speed of a moment. A case of seconds
    spans many moments, so it gets one timing per quarter second of its
    length, up to eight.
    """
    k = min(8, max(1, round(case_seconds / 0.25)))
    return sum(seconds() for _ in range(k)) / k


def scaled(elapsed: float, before: float, after: float, nominal: float = NOMINAL) -> float:
    """``elapsed`` seconds at the nominal speed, from the reference timings
    before and after them."""
    return elapsed / ((before + after) / 2) * nominal


def import_seconds() -> float:
    """Seconds to import numpy and scipy.integrate in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import reference failed: {proc.stderr.strip()}")
    return float(proc.stdout)
