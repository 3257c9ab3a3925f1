"""Exact character-degree multisets for SL2(q) and PSL2(q).

The degree families are the classical closed forms.  Every DegreeTable is
guarded by the column-orthogonality mass identity sum(mult * d^2) = |G|,
which catches any transcription slip in the formulas; for the closed forms
of a1_degrees the identity is proven once per branch for all q instead.
q = 2, 3 are rejected outright (the groups there are not quasi-simple).
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from math import gcd, isqrt
from operator import add, floordiv, gt, mod, sub
from typing import Iterator, List, Optional, Tuple

from .dirichlet import EXACT, LOG, DirichletSeries
from .errors import InvariantError, PreconditionError, int_name


def _primes_to(n: int) -> List[int]:
    """The primes <= n, by one bytearray sieve of Eratosthenes."""
    flags = bytearray(b"\x01") * (n + 1)
    flags[:2] = b"\x00\x00"
    for d in range(2, isqrt(n) + 1):
        if flags[d]:
            flags[d * d::d] = bytes(len(range(d * d, n + 1, d)))
    return list(itertools.compress(range(n + 1), flags))


def primes_from(start: int, first_hi: Optional[int] = None) -> Iterator[int]:
    """Primes >= start in increasing order.

    A segmented sieve: windows [lo, hi) follow each other with the width
    doubling from 64; given first_hi, the windows that double from 64
    follow one first window [start, first_hi], sieved at once, so that a
    caller that reads the primes to first_hi and one more draws one small
    window past it.  In each window the multiples d*d, d*(d+1), ... are
    crossed off for the primes d <= sqrt(hi - 1): those below 1000, and
    past hi = 10^6 those of one sieve up to twice that bound (_primes_to),
    formed again only when a window's bound passes the last one.  C-level
    maps pass over each d whose first multiple >= lo lies past the window.
    A window needs O(width + sqrt(hi)) bytes.
    """
    lo, bound, base = max(2, start), 999, _SMALL_PRIMES
    widths = (64 << k for k in itertools.count())
    if first_hi is not None:
        widths = itertools.chain((max(0, first_hi + 1 - lo),), widths)
    for width in widths:
        hi = lo + width
        r = isqrt(hi - 1)
        if r > bound:
            bound = 2 * r
            base = _primes_to(bound)
        ds = base[:bisect_right(base, r)]
        flags = bytearray(b"\x01") * width
        for d in itertools.compress(ds, map(gt, repeat(width), map(mod, repeat(-lo), ds))):
            first = max(d * d - lo, -lo % d)  # offset of max(d*d, first multiple >= lo)
            if first < width:
                flags[first::d] = bytes(len(range(first, width, d)))
        yield from itertools.compress(range(lo, hi), flags)
        lo = hi


_SMALL_PRIMES = tuple(_primes_to(999))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = math.prod(_SMALL_PRIMES)
# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233; Jaeschke, "On strong pseudoprimes to several bases", Math. Comp.
# 61 (1993); Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86 (2017)): Miller-Rabin on the first k bases proves
# primality below psi_k, so bases 2..41 prove it below psi_13 and above
# that a base can only prove compositeness: base 2 alone runs there.
_MR_BOUNDS = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)
_MR_BASES = _SMALL_PRIMES[: len(_MR_BOUNDS)]
_MR_EXACT_BELOW = _MR_BOUNDS[-1]


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1: isqrt for k = 2, else Newton's method
    from the float root of n's top bits, rounded up past its error: some
    2^-40 above the root, where a power of two can be twice the root and a
    step shrinks x by only about 1 - 1/k."""
    if k == 2:
        return isqrt(n)
    s = max(0, (n.bit_length() - 1) // k - 52)
    x = (int(math.exp(math.log((n >> s * k) + 1) / k) * (1 + 2 ** -40)) + 2) << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n above every base, on the first k bases of
    _MR_BASES for the least k with n < psi_k, all thirteen from psi_12 on;
    from psi_13 on, where no count of bases is a proof, on base 2 alone."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = bisect_right(_MR_BOUNDS, n) + 1 if n < _MR_EXACT_BELOW else 1
    for a in _MR_BASES[:k]:
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
    root r with q = r^k and k maximal, over the prime exponents e (from a
    sieve past 997) while 9 * e <= q.bit_length(), as r >= 1009 > 2^9, and
    r is tested by Miller-Rabin on the first k prime bases 2, 3, 5, ... for
    the least k with r < psi_k: one below 2047, two below 1,373,653, three
    below 25,326,001, all thirteen (2..41) from psi_12 ~ 3.2 * 10^23.  From
    psi_13 ~ 3.3 * 10^24 on, where no count of bases is a proof, base 2
    alone runs: r failing it gives None, r passing it PreconditionError,
    even a base-2 strong pseudoprime that a later base would show
    composite (exit 3 either way).
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
    k = 1
    for e in itertools.chain(_SMALL_PRIMES, primes_from(1000)):
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
            f"cannot prove that {int_name(q)} is prime: it passes Miller-Rabin to base 2, "
            f"and no count of bases is a proof at or above {_MR_EXACT_BELOW}"
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
        raise PreconditionError(f"q = {int_name(q)} is not a prime power")
    if q < 4:
        raise PreconditionError(f"q = {q} is excluded: SL2(2), SL2(3) are not quasi-simple")


def a1_terms(q: int, simple: bool) -> Tuple[Tuple[int, int], ...]:
    """The (degree, multiplicity) families of a1_degrees in increasing
    degree, a multiplicity 0 included (the family q + 1 of PSL2(5)), for a
    prime power q >= 4 that the caller checks."""
    if q % 2 == 0:
        return ((1, 1), (q - 1, q // 2), (q, 1), (q + 1, q // 2 - 1))
    if not simple:
        return (
            (1, 1), ((q - 1) // 2, 2), ((q + 1) // 2, 2),
            (q - 1, (q - 1) // 2), (q, 1), (q + 1, (q - 3) // 2),
        )
    if q % 4 == 1:
        return ((1, 1), ((q + 1) // 2, 2), (q - 1, (q - 1) // 4), (q, 1), (q + 1, (q - 5) // 4))
    return ((1, 1), ((q - 1) // 2, 2), (q - 1, (q - 3) // 4), (q, 1), (q + 1, (q - 3) // 4))


def a1_term_columns(qs: List[int], simple: bool) -> Iterator[Tuple[List[int], List[int]]]:
    """The nontrivial families of a1_terms over the odd q >= 5 of qs, as
    columns, by C-level maps with no call per q: for each family one
    (degrees, multiplicities) pair of lists in the order of qs.  Each
    family's degree is strictly increasing in q, so no two entries of a
    family share a degree; the family q is qs itself.  The simple view's
    half families (q -+ 1)/2 have multiplicity q % 4 - 1 and 3 - q % 4,
    which is 0 on the residue that lacks them, as the family q + 1 of
    PSL2(5) has multiplicity 0."""
    below = list(map(sub, qs, repeat(1)))
    if simple:
        s, r = 4, list(map(mod, qs, repeat(4)))
        low, high = list(map(sub, r, repeat(1))), list(map(sub, repeat(3), r))
    else:
        s, low, high = 2, [2] * len(qs), [2] * len(qs)
    yield list(map(floordiv, qs, repeat(2))), low
    yield list(map(floordiv, map(add, qs, repeat(1)), repeat(2))), high
    yield below, list(map(floordiv, below, repeat(s)))
    yield qs, [1] * len(qs)
    yield list(map(add, qs, repeat(1))), list(map(floordiv, map(sub, qs, repeat(3)), repeat(s)))


def a1_degrees(q: int, simple: bool) -> Tuple[Tuple[int, int], ...]:
    """Sorted (degree, multiplicity) pairs of PSL2(q) when simple, else of
    SL2(q), for a prime power q >= 4, which the caller checks.  Each branch
    lists its degrees in increasing order, which holds for every q >= 4
    since (q + 1)/2 < q - 1 there, so no sort is needed.

    Even q: SL2(q) = PSL2(q) with 1, q, (q+1) x (q/2-1), (q-1) x q/2.  Odd q:
    SL2(q) has 1, q, (q+1) x (q-3)/2, (q-1) x (q-1)/2 and the four
    half-discrete-series characters of degrees (q+-1)/2; PSL2(q) keeps the
    pair of degree (q+1)/2 when q = 1 mod 4 and (q-1)/2 when q = 3 mod 4.

    Every result passes the mass identity sum(mult * d^2) = |G| and has one
    linear character, for every q >= 4, so neither is summed per call.  On
    each branch both sides of the identity are polynomials in q of degree
    <= 3, equal at four q (tests/test_char_tables.py checks more), so equal
    as polynomials; every other degree is at least (q - 1)/2 > 1.  q = 2
    and 3 give more than one linear character and are refused.
    """
    if q < 4:
        group = "PSL2" if simple else "SL2"
        raise InvariantError(f"{group}({q}): need exactly one linear character")
    return tuple((d, m) for d, m in a1_terms(q, simple) if m > 0)


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
    if backend == LOG:
        return DirichletSeries(N, t.degrees).to_log()
    return DirichletSeries(N, t.degrees, backend)  # refuses an unknown backend
