"""Exact character-degree multisets for SL2(q) and PSL2(q).

The degree families are the classical closed forms; every constructed table
is guarded by the column-orthogonality mass identity sum(mult * d^2) = |G|,
which catches any transcription slip in the formulas.  q = 2, 3 are
rejected outright (the groups there are not quasi-simple).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator, Optional, Tuple

from .dirichlet import EXACT, LOG, DirichletSeries
from .errors import InvariantError, PreconditionError


def primes_from(start: int) -> Iterator[int]:
    """Primes >= start in increasing order.

    A segmented sieve: windows [lo, hi) follow each other with the width
    doubling from 64.  In each window the multiples d*d, d*(d+1), ... are
    crossed off for d = 2, 3, 5 and every d <= sqrt(hi - 1) prime to 30,
    a set that holds every prime up to sqrt(hi - 1).  A window needs
    O(width) bytes whatever start is.
    """
    lo = max(2, start)
    width = 64
    while True:
        hi = lo + width
        flags = bytearray(b"\x01") * width
        wheel = (d for d in range(7, isqrt(hi - 1) + 1, 2) if d % 3 and d % 5)
        for d in itertools.chain((2, 3, 5), wheel):
            first = max(d * d - lo, -lo % d)  # offset of max(d*d, first multiple >= lo)
            if first < width:
                flags[first::d] = bytes(len(range(first, width, d)))
        yield from itertools.compress(range(lo, hi), flags)
        lo = hi
        width *= 2


_SMALL_PRIMES = tuple(itertools.takewhile(lambda p: p < 1000, primes_from(2)))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = math.prod(_SMALL_PRIMES)
# Miller-Rabin with the prime bases 2..41 proves primality below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86 (2017)); above it a base can only prove compositeness.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES for odd n above every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q: int) -> Optional[Tuple[int, int]]:
    """(p, k) with q = p^k, or None.

    One gcd with the product of the primes below 1000 finds q's small prime
    factors.  Without one, q < 1000^2 is prime; a larger q is reduced to its
    root r with q = r^k and k maximal, and r is tested by Miller-Rabin.
    Raises PreconditionError when r passes every base but is at least
    3.3 * 10^24, where that is no proof of primality.
    """
    if q < 2:
        return None
    g = gcd(q, _PRIMORIAL)
    if g > 1:
        if g not in _SMALL_PRIME_SET:
            return None  # two distinct primes divide q
        k = 0
        while q % g == 0:
            q //= g
            k += 1
        return (g, k) if q == 1 else None
    if q < 1000 * 1000:
        return (q, 1)
    # q = r^k needs r >= 1009 > 2^9, so k < bit_length / 9
    k = 1
    for e in primes_from(2):
        if 9 * e > q.bit_length():
            break
        while True:
            r = _iroot(q, e)
            if r ** e != q:
                break
            q, k = r, k * e
    if not _strong_probable_prime(q):
        return None
    if q >= _MR_EXACT_BELOW:
        raise PreconditionError(
            f"cannot prove that {q} is prime: it passes Miller-Rabin on the "
            f"prime bases 2..41, which is a proof only below {_MR_EXACT_BELOW}"
        )
    return (q, k)


def is_prime(n: int) -> bool:
    pk = prime_power(n)
    return pk is not None and pk[1] == 1


def _check_degrees(group: str, q: int, degrees, order: int) -> None:
    """The mass identity sum(mult * d^2) = |G| and a single linear character."""
    mass = sum(m * d * d for d, m in degrees)
    if mass != order:
        raise InvariantError(f"{group}({q}): sum d^2*mult = {mass} != order {order}")
    if sum(m for d, m in degrees if d == 1) != 1:
        raise InvariantError(f"{group}({q}): need exactly one linear character")


@dataclass(frozen=True)
class DegreeTable:
    """Character degrees with multiplicities for a fixed group."""

    group: str  # "SL2" | "PSL2"
    q: int
    degrees: Tuple[Tuple[int, int], ...]  # sorted (degree, multiplicity)
    order: int

    def __post_init__(self):
        _check_degrees(self.group, self.q, self.degrees, self.order)

    def num_characters(self) -> int:
        return sum(m for _, m in self.degrees)


def sl2_order(q: int) -> int:
    return q * (q * q - 1)


def psl2_order(q: int) -> int:
    return sl2_order(q) // gcd(2, q - 1)


def _check_q(q: int) -> None:
    pk = prime_power(q)
    if pk is None:
        raise PreconditionError(f"q = {q} is not a prime power")
    if q < 4:
        raise PreconditionError(f"q = {q} is excluded: SL2(2), SL2(3) are not quasi-simple")


def a1_degrees(q: int, simple: bool) -> Tuple[Tuple[int, int], ...]:
    """Sorted (degree, multiplicity) pairs of PSL2(q) when simple, else of
    SL2(q), for a prime power q >= 4, which the caller checks.

    Even q: SL2(q) = PSL2(q) with 1, q, (q+1) x (q/2-1), (q-1) x q/2.  Odd q:
    SL2(q) has 1, q, (q+1) x (q-3)/2, (q-1) x (q-1)/2 and the four
    half-discrete-series characters of degrees (q+-1)/2; PSL2(q) keeps the
    pair of degree (q+1)/2 when q = 1 mod 4 and (q-1)/2 when q = 3 mod 4.
    Every result passes the mass identity and has one linear character.
    """
    if q % 2 == 0:
        order = sl2_order(q)
        raw = ((1, 1), (q - 1, q // 2), (q, 1), (q + 1, q // 2 - 1))
    elif not simple:
        order = sl2_order(q)
        raw = (
            (1, 1), ((q - 1) // 2, 2), ((q + 1) // 2, 2),
            (q - 1, (q - 1) // 2), (q, 1), (q + 1, (q - 3) // 2),
        )
    elif q % 4 == 1:
        order = psl2_order(q)
        raw = ((1, 1), ((q + 1) // 2, 2), (q - 1, (q - 1) // 4), (q, 1), (q + 1, (q - 5) // 4))
    else:
        order = psl2_order(q)
        raw = ((1, 1), ((q - 1) // 2, 2), (q - 1, (q - 3) // 4), (q, 1), (q + 1, (q - 3) // 4))
    degrees = tuple(sorted((d, m) for d, m in raw if m > 0))
    _check_degrees("PSL2" if simple else "SL2", q, degrees, order)
    return degrees


def sl2_table(q: int) -> DegreeTable:
    """SL2(q) degrees (see :func:`a1_degrees`)."""
    _check_q(q)
    return DegreeTable("SL2", q, a1_degrees(q, False), sl2_order(q))


def psl2_table(q: int) -> DegreeTable:
    """PSL2(q) degrees (see :func:`a1_degrees`)."""
    _check_q(q)
    return DegreeTable("PSL2", q, a1_degrees(q, True), psl2_order(q))


def min_nontrivial_degree(t: DegreeTable) -> int:
    """Smallest degree above 1; the dimension at which the group first
    contributes to any multiplicity count."""
    for d, _ in t.degrees:
        if d > 1:
            return d
    raise PreconditionError(f"{t.group}({t.q}) has no nontrivial character")


def zeta_series(t: DegreeTable, N: int, backend: str = EXACT) -> DirichletSeries:
    """The degree data as a truncated series (dims > N dropped); the log
    backend holds the natural logs of the exact multiplicities."""
    if backend == EXACT:
        return DirichletSeries(N, t.degrees, EXACT)
    return DirichletSeries(N, ((d, math.log(m)) for d, m in t.degrees), LOG)
