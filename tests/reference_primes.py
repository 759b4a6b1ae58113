"""Reference primality test: the trial division that ``relocation.is_prime`` replaced.

Kept verbatim as a differential oracle.  It takes about sqrt(n) steps on a
prime, so keep the primes small.
"""

from __future__ import annotations


def reference_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
