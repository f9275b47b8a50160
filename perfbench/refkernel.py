"""Fixed reference kernel for drift-normalized job times.

The host's speed drifts within seconds, so every job time is also divided by
the time of this kernel measured just before and just after the job.  The
kernel does the program's kind of work by its own code: it multiplies two
fixed sparse polynomials whose monomials are sorted tuples of
(color, order, exponent) factors, merging factor lists and adding `Fraction`
products into a dict keyed by the merged monomials.  It calls nothing of the
program, so a change to the program never changes it.  Changing this file is
a change of the benchmark: ratios measured before and after such a change
are not comparable.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction


def _monomial(i: int, salt: int) -> tuple:
    factors: dict = {}
    for j in range(1 + (i * salt) % 3):
        key = ((i + j * salt) % 3 + 1, (i * 7 + j * salt) % 4)
        factors[key] = factors.get(key, 0) + 1 + (i + j) % 2
    return tuple((a, n, e) for (a, n), e in sorted(factors.items()))


_P = [(_monomial(i, 5), Fraction(i + 1, i % 5 + 1)) for i in range(12)]
_Q = [(_monomial(i, 7), Fraction(2 * i - 11, i % 3 + 2)) for i in range(12)]


def _merge(a: tuple, b: tuple) -> tuple:
    exps = {(alpha, n): e for alpha, n, e in a}
    for alpha, n, e in b:
        exps[(alpha, n)] = exps.get((alpha, n), 0) + e
    return tuple((alpha, n, e) for (alpha, n), e in sorted(exps.items()))


def kernel() -> int:
    """One product of the two fixed 12-term polynomials; returns its size."""
    acc: dict = {}
    for ma, ca in _P:
        for mb, cb in _Q:
            mono = _merge(ma, mb)
            c = ca * cb
            prev = acc.get(mono)
            acc[mono] = c if prev is None else prev + c
    return len(acc)


def sample(reps: int = 5) -> float:
    """Median of `reps` back-to-back kernel timings, in seconds.

    On a shared host the speed changes from one millisecond to the next; the
    median of a few timings follows the speed a job sees better than their
    minimum, which reports the host's best moment.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
