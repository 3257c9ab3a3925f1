"""Truncated Dirichlet-series arithmetic with exact and log-domain backends.

A series is a finite sorted map {dimension -> multiplicity} truncated at a
cutoff N.  Dimensions are arbitrary-precision positive integers (model
dimensions grow like q^n and overflow machine words almost immediately).
The exact backend keeps multiplicities as positive big integers and is
closed under every operation here; the log backend keeps natural-log
multiplicities as floats.  Backends never mix silently: conversion is
explicit via :meth:`DirichletSeries.to_log`.
"""
from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union

from .errors import PreconditionError

EXACT = "exact"
LOG = "log"

# Refuse to materialize exponent-form multiplicities beyond this many bits.
MAX_MATERIALIZE_BITS = 1 << 22


class BackendMismatch(PreconditionError):
    """Two series with different backends were combined."""


class RangeOverflow(OverflowError):
    """A number too large for its use: an exact -> float conversion past
    double range (switch to the log backend), a power too large to
    materialize, or an exact count too long to print."""


def max_str_digits() -> int:
    """The most digits str() prints of an int: Python's limit (from 3.10.7),
    or its default 4300 where there is none or it is off, so that the
    default bounds the work."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@dataclass(frozen=True)
class BigPower:
    """A multiplicity of the form base**exponent kept unexpanded.

    Used for the factor counts q^{f(j)} whose exponents can make the plain
    integer impractical to materialize while its logarithm stays tiny.
    """

    base: int
    exponent: int

    def __post_init__(self):
        if self.base < 2 or self.exponent < 0:
            raise PreconditionError("BigPower needs base >= 2 and exponent >= 0")

    def log(self) -> float:
        return self.exponent * math.log(self.base)

    def bits(self) -> float:
        return self.exponent * math.log2(self.base)

    def to_int(self) -> int:
        if self.bits() > MAX_MATERIALIZE_BITS:
            raise RangeOverflow(
                f"{self.base}**{self.exponent} is too large to materialize exactly"
            )
        return self.base ** self.exponent


Multiplicity = Union[int, BigPower]


def mult_log(m: Multiplicity) -> float:
    """Natural log of a multiplicity descriptor (big ints are fine)."""
    if isinstance(m, BigPower):
        return m.log()
    if m < 1:
        raise PreconditionError("multiplicity must be >= 1")
    return math.log(m)


def mult_bits(m: Multiplicity) -> float:
    if isinstance(m, BigPower):
        return m.bits()
    return m.bit_length()


def mult_to_int(m: Multiplicity) -> int:
    return m.to_int() if isinstance(m, BigPower) else m


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class DirichletSeries:
    """Immutable truncated series: sorted dims, parallel multiplicities."""

    __slots__ = ("cutoff", "backend", "_dims", "_mults")

    def __init__(self, cutoff: int, entries, backend: str = EXACT):
        if cutoff < 1:
            raise PreconditionError("cutoff must be a positive integer")
        if backend not in (EXACT, LOG):
            raise PreconditionError(f"unknown backend {backend!r}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        merged: Dict[int, object] = {}
        if backend == EXACT:
            for d, m in items:
                if d < 1:
                    raise PreconditionError(f"dimension {d} is not a positive integer")
                if d > cutoff:
                    continue  # truncation silently discards
                if not isinstance(m, int) or m <= 0:
                    raise PreconditionError(
                        f"exact multiplicity at dim {d} must be a positive integer"
                    )
                merged[d] = merged.get(d, 0) + m
        else:
            for d, m in items:
                if d < 1:
                    raise PreconditionError(f"dimension {d} is not a positive integer")
                if d > cutoff:
                    continue
                m = float(m)
                if not math.isfinite(m):
                    raise PreconditionError(f"log multiplicity at dim {d} must be finite")
                prev = merged.get(d)
                merged[d] = m if prev is None else _logaddexp(prev, m)
        dims = sorted(merged)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_dims", tuple(dims))
        object.__setattr__(self, "_mults", tuple(map(merged.__getitem__, dims)))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("DirichletSeries is immutable")

    @property
    def dims(self) -> Tuple[int, ...]:
        return self._dims

    @property
    def mults(self) -> Tuple:
        return self._mults

    def items(self) -> Iterator[Tuple[int, object]]:
        return zip(self._dims, self._mults)

    def __len__(self) -> int:
        return len(self._dims)

    def __bool__(self) -> bool:
        return bool(self._dims)

    def mult_at(self, d: int, default=None):
        i = bisect_right(self._dims, d) - 1
        if i >= 0 and self._dims[i] == d:
            return self._mults[i]
        return default

    def to_log(self) -> "DirichletSeries":
        """Explicit exact -> log conversion (never done implicitly)."""
        if self.backend == LOG:
            return self
        return DirichletSeries(
            self.cutoff, ((d, math.log(m)) for d, m in self.items()), LOG
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.cutoff == other.cutoff
            and self._dims == other._dims
            and self._mults == other._mults
        )

    def __hash__(self):
        return hash((self.backend, self.cutoff, self._dims, self._mults))

    def __repr__(self) -> str:
        head = ", ".join(f"{d}:{m}" for d, m in list(self.items())[:6])
        tail = ", ..." if len(self) > 6 else ""
        return f"DirichletSeries(N={self.cutoff}, {self.backend}, {{{head}{tail}}})"

    def to_jsonable(self) -> dict:
        entries = [
            [str(d), str(m) if self.backend == EXACT else float(m)]
            for d, m in self.items()
        ]
        return {"cutoff": self.cutoff, "backend": self.backend, "entries": entries}

    def _require_printable(self) -> None:
        digits = max_str_digits()
        if self.backend == EXACT and max(self._mults, default=0) >= 10 ** digits:
            raise RangeOverflow(f"an exact count has more than {digits} digits, too many to print")

    def to_csv(self) -> str:
        """A dimension,multiplicity header and one row per entry; raises
        RangeOverflow, before any text is formed, when a count is too long
        to print."""
        self._require_printable()
        return "dimension,multiplicity\n" + "".join(f"{d},{m}\n" for d, m in self.items())

    def to_json(self) -> str:
        """json.dumps(self.to_jsonable(), indent=2, sort_keys=True), byte for
        byte, written row by row instead of through the pure-Python encoder;
        raises RangeOverflow as to_csv does."""
        self._require_printable()
        if self.backend == EXACT:
            rows = [f'    [\n      "{d}",\n      "{m}"\n    ]' for d, m in self.items()]
        else:
            rows = [f'    [\n      "{d}",\n      {float(m)!r}\n    ]' for d, m in self.items()]
        entries = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return (
            f'{{\n  "backend": "{self.backend}",\n  "cutoff": {self.cutoff},\n'
            f'  "entries": {entries}\n}}'
        )


def evaluate(s: DirichletSeries, sigma: float) -> float:
    """Sum mult * dim^(-sigma), correctly rounded (math.fsum).

    sigma = 0 is allowed (the total mass, e.g. a class number); terms or a
    sum that leave double range raise :class:`RangeOverflow` (the caller may
    convert to the log backend), terms that underflow contribute 0.
    """
    if sigma < 0:
        raise PreconditionError("sigma must be nonnegative")

    def terms():
        for d, m in s.items():
            if s.backend == LOG:
                lt = m - sigma * math.log(d)
                if lt > 709.0:
                    raise RangeOverflow("value exceeds double range at this sigma")
                yield math.exp(lt) if lt > -745.0 else 0.0
                continue
            if m.bit_length() <= 53 and d.bit_length() <= 53:
                yield m * float(d) ** (-sigma)
                continue
            lt = math.log(m) - sigma * math.log(d)
            if lt > 709.0:
                raise RangeOverflow(
                    "term exceeds double range; evaluate on the log backend"
                )
            yield math.exp(lt) if lt > -745.0 else 0.0

    try:
        return math.fsum(terms())
    except RangeOverflow:
        raise
    except OverflowError:
        raise RangeOverflow("sum exceeds double range; evaluate on the log backend")


def _mul_into(acc, src, d1s, x, N, exact, bound=0):
    """Add src[d1] * x into the dict acc at dims <= N, for each d1 of d1s in
    turn and the terms of x in order (sum of logs and _logaddexp on the log
    backend).  x holds (dim, mult) pairs sorted by dim, iterated once per
    d1.  Returns the keys it created that are <= bound, in creation order.

    src may be acc itself when every target d1 * d2 exceeds its source and
    d1s runs high to low: then no source is updated before it is read.
    """
    fresh = []
    for d1 in d1s:
        m1 = src[d1]
        for d2, m2 in x:
            p = d1 * d2
            if p > N:
                break
            prev = acc.get(p)
            if prev is None:
                acc[p] = m1 * m2 if exact else m1 + m2
                if p <= bound:
                    fresh.append(p)
            elif exact:
                acc[p] = prev + m1 * m2
            else:
                acc[p] = _logaddexp(prev, m1 + m2)
    return fresh


def convolve(s1: DirichletSeries, s2: DirichletSeries, N: int) -> DirichletSeries:
    """Dirichlet product truncated at N: entry at d is sum over d1*d2 = d."""
    if s1.backend != s2.backend:
        raise BackendMismatch("cannot convolve series with different backends")
    if N > min(s1.cutoff, s2.cutoff):
        raise PreconditionError("convolution target N exceeds an input cutoff")
    acc: Dict[int, object] = {}
    if s1 and s2:
        d1s = s1.dims[:bisect_right(s1.dims, N // s2.dims[0])]
        _mul_into(acc, dict(zip(d1s, s1.mults)), d1s, list(s2.items()), N, s1.backend == EXACT)
    return DirichletSeries(N, acc, s1.backend)


def _log_binomial(M: Multiplicity, k: int) -> float:
    """log C(M, k) = sum_{i<k} log((M-i)/(i+1)), usable for huge M."""
    if isinstance(M, BigPower):
        if M.bits() <= 900:  # comfortably materializable, stay accurate
            M = M.to_int()
        else:
            lM = M.log()
            # (M - i)/M differs from 1 by < k/M, far below double resolution here
            return k * lM - math.fsum(math.log(i + 1.0) for i in range(k))
    if k > M:
        return float("-inf")
    return math.fsum(math.log(M - i) - math.log(i + 1.0) for i in range(k))


def _power_terms(x: List[Tuple[int, object]], M: Multiplicity, N: int, backend: str):
    """The entries of (1 + x)^M - 1 at dims <= N, sorted by dimension, for x
    a sorted list of (dim, mult) pairs on distinct dims in [2, N].

    x^k starts at min_dim(x)^k, so only the powers with min_dim(x)^k <= N
    contribute, at most log2(N) of them; each one from k = 2 on is one
    convolve.  When M = 1 or min_dim(x)^2 > N that leaves C(M, 1) * x, a
    plain list.  The exact backend uses exact binomials, the log backend the
    identity log C(M,k) = sum_{i<k} log((M-i)/(i+1)).
    """
    if not x:
        return []
    exact = backend == EXACT
    Mi = mult_to_int(M) if exact else None
    d0 = x[0][0]
    if M == 1 or d0 * d0 > N:
        if exact:
            return [(d, Mi * m) for d, m in x]
        lc = _log_binomial(M, 1)
        return [(d, lc + m) for d, m in x]
    out: Dict[int, object] = {}
    terms = x
    xs = xk = None
    k = 1
    while True:
        c = math.comb(Mi, k) if exact else _log_binomial(M, k)
        if c == (0 if exact else float("-inf")):
            break
        _mul_into(out, {1: c}, (1,), terms, N, exact)
        k += 1
        if (isinstance(M, int) and k > M) or d0 ** k > N:
            break
        if xs is None:
            xs = xk = DirichletSeries(N, x, backend)
        xk = convolve(xk, xs, N)
        terms = xk.items()
    return sorted(out.items())


def power_one_plus(base: DirichletSeries, M: Multiplicity, N: int) -> DirichletSeries:
    """(1 + x)^M truncated at N, for base = 1 + x with x supported on dims >= 2."""
    if N > base.cutoff:
        raise PreconditionError("power target N exceeds the base cutoff")
    exact = base.backend == EXACT
    unit = base.mult_at(1)
    if exact and unit != 1:
        raise PreconditionError("base must have constant term exactly 1")
    if not exact and unit != 0.0:
        raise PreconditionError("base must have constant term exactly 1 (log 0.0)")
    if isinstance(M, int):
        if M < 1:
            raise PreconditionError("power M must be >= 1")
    x = [(d, m) for d, m in base.items() if 1 < d <= N]
    out = [(1, 1 if exact else 0.0)] + _power_terms(x, M, N, base.backend)
    return DirichletSeries(N, out, base.backend)


def cumulative(s: DirichletSeries, n: int):
    """R_n = sum of multiplicities at dims <= n.

    Exact backend returns the integer count; the log backend returns the
    natural log of the count, folded left to right by _logaddexp as
    empirical_slope's prefix sums are.  Refuses n beyond the cutoff: the
    truncation makes the answer unknown there.
    """
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    if n > s.cutoff:
        raise PreconditionError(
            f"cumulative at n={n} exceeds the truncation cutoff {s.cutoff}"
        )
    idx = bisect_right(s.dims, n)
    if s.backend == EXACT:
        return sum(s.mults[:idx])
    return functools.reduce(_logaddexp, s.mults[:idx], -math.inf)
