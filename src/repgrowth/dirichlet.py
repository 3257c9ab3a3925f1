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

import math
import sys
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .errors import PreconditionError, ReportedError, int_name

EXACT = "exact"
LOG = "log"

# Refuse to materialize exponent-form multiplicities beyond this many bits.
MAX_MATERIALIZE_BITS = 1 << 22


class BackendMismatch(PreconditionError):
    """Two series with different backends were combined."""


class RangeOverflow(OverflowError, ReportedError):
    """A number too large for its use: an exact -> float conversion past
    double range (switch to the log backend), a power too large to
    materialize, or an exact count too long to print (exit 4)."""

    exit_code = 4


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
        return self._scaled(math.log(self.base), "natural log")

    def bits(self) -> float:
        return self._scaled(math.log2(self.base), "bit length")

    def _scaled(self, unit: float, what: str) -> float:
        """exponent * unit; RangeOverflow where that leaves double range, as
        it does for any exponent past 2^1024, which float() refuses."""
        try:
            v = self.exponent * unit
        except OverflowError:
            v = math.inf
        if v == math.inf:
            raise RangeOverflow(f"{self._name()} is too large: its {what} exceeds double range")
        return v

    def _name(self) -> str:
        """base**exponent, for messages, each operand as errors.int_name
        names it."""
        return "**".join(map(int_name, (self.base, self.exponent)))

    def to_int(self) -> int:
        if self.bits() > MAX_MATERIALIZE_BITS:
            raise RangeOverflow(f"{self._name()} is too large to materialize exactly")
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
    grading = None  # GradedSeries: the prime p of every dimension p^e

    def __init__(self, cutoff: int, entries, backend: str = EXACT):
        if cutoff < 1:
            raise PreconditionError("cutoff must be a positive integer")
        if backend not in (EXACT, LOG):
            raise PreconditionError(f"unknown backend {backend!r}")
        if backend == EXACT and type(entries) is dict and self._init_exact_dict(cutoff, entries):
            return
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

    def _init_exact_dict(self, cutoff: int, entries: dict) -> bool:
        """Set up from a dict of exact entries without a merged copy: its
        keys are distinct, so nothing merges.  The checks run on whole
        sequences at C level, the sorted keys' ends against 1 and the cutoff,
        then the kept values (see _init_sorted); returns False, setting
        nothing, where one fails, so that the merging path raises its error
        in its order."""
        try:
            dims = sorted(entries)
            if dims and dims[0] < 1:
                return False
        except TypeError:  # keys that do not compare with each other or with 1
            return False
        del dims[bisect_right(dims, cutoff):]  # truncation silently discards
        return self._init_sorted(cutoff, EXACT, tuple(dims), tuple(map(entries.__getitem__, dims)))

    def _init_sorted(self, cutoff: int, backend: str, dims: tuple, mults: tuple) -> bool:
        """Set up from dims sorted, distinct and in [1, cutoff] and their
        multiplicities, when these are exact and each a positive plain int:
        the type set and the minimum are checked, with no loop in Python.
        Returns False, setting nothing, otherwise (the log backend, a
        nonpositive value, a float, an int subclass such as True, which the
        merging path turns into a plain int)."""
        if backend != EXACT or not {int}.issuperset(map(type, mults)) or min(mults, default=1) < 1:
            return False
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "backend", EXACT)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_mults", mults)
        return True

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

    def prefix(self, N: int) -> "DirichletSeries":
        """The entries at dims <= N as a series truncated at N <= cutoff, of
        this series' kind; on the exact backend the product a series holds,
        truncated at N, is its prefix (invariants.prefix_truncation)."""
        if not 1 <= N <= self.cutoff:
            raise PreconditionError(f"prefix cutoff {N} is outside [1, {self.cutoff}]")
        i = bisect_right(self._dims, N)
        out = object.__new__(type(self))
        object.__setattr__(out, "cutoff", N)
        object.__setattr__(out, "backend", self.backend)
        object.__setattr__(out, "_dims", self._dims[:i])
        object.__setattr__(out, "_mults", self._mults[:i])
        return out

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


class GradedSeries(DirichletSeries):
    """A series graded by a prime p: every dimension is a power p^e, and
    the exponents e are kept alongside the dimensions, so that convolve
    adds two small exponents where it would multiply two dimensions.  It
    equals, prints and serializes as the DirichletSeries of its entries."""

    __slots__ = ("grading", "exps")

    def __init__(self, cutoff: int, p: int, entries: dict, backend: str = EXACT):
        """entries: {e: multiplicity} on exponents e <= floor_log(cutoff, p),
        checked as DirichletSeries checks its entries.  The dimensions p^e
        are the running products of the steps p^(e - e_prev), formed in C
        with no dict of dimensions.  Exact counts that are positive plain
        ints, on exponents from 0 up to the cutoff, are kept as they are
        (DirichletSeries._init_sorted); any other entries go through the
        merging path of DirichletSeries, which raises its errors."""
        exps = sorted(entries)
        dims = tuple(accumulate(map(pow, repeat(p), map(sub, exps, [0, *exps])), mul))
        mults = tuple(map(entries.__getitem__, exps))
        in_range = not exps or (exps[0] >= 0 and dims[-1] <= cutoff)
        if not (cutoff >= 1 and in_range and self._init_sorted(cutoff, backend, dims, mults)):
            super().__init__(cutoff, zip(dims, mults), backend)
            if len(self) != len(exps):
                raise PreconditionError(
                    f"an exponent of {p} puts a dimension past the cutoff {cutoff}"
                )
        object.__setattr__(self, "grading", p)
        object.__setattr__(self, "exps", tuple(exps))

    def prefix(self, N: int) -> "GradedSeries":
        out = super().prefix(N)
        object.__setattr__(out, "grading", self.grading)
        object.__setattr__(out, "exps", self.exps[:len(out)])
        return out


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


def _mul_into(acc, src, k1s, x, stop, exact, bound=0, graded=False):
    """Add src[k1] * x into the dict acc, for each key k1 of k1s in turn and
    the terms of x in order (sum of logs and a log-add on the log backend,
    written out in line: the operands swapped so that the larger comes
    first, then a + log1p(exp(b - a)), bit for bit _logaddexp).  x holds
    (key, mult) pairs sorted by key, iterated once per k1.  A key is a
    dimension d, and the update of d1 and d2 lands at d1 * d2 <= stop = N;
    graded, every dimension is a power p^e of one prime p keyed by its
    exponent e, and the update lands at e1 + e2 <= stop = floor_log(N, p):
    the same updates in the same order, so the same bits on the log
    backend, with small-int keys that spare each update a multiply, a
    compare and two hashes of a dimension that can run to thousands of
    bits.  Returns the keys it created that are <= bound, in creation
    order.

    src may be acc itself when every target key exceeds its source and
    k1s runs high to low: then no source is updated before it is read.
    """
    fresh = []
    log1p, exp = math.log1p, math.exp
    for k1 in k1s:
        m1 = src[k1]
        for k2, m2 in x:
            k = k1 + k2 if graded else k1 * k2
            if k > stop:
                break
            prev = acc.get(k)
            if prev is None:
                acc[k] = m1 * m2 if exact else m1 + m2
                if k <= bound:
                    fresh.append(k)
            elif exact:
                acc[k] = prev + m1 * m2
            else:
                m = m1 + m2
                if prev < m:
                    prev, m = m, prev
                acc[k] = prev + log1p(exp(m - prev))
    return fresh


def floor_log(N: int, p: int) -> int:
    """floor(log_p N) for N >= 1 and p >= 2, exactly: the float estimate
    corrected by integer powers."""
    e = int(math.log(N) / math.log(p))
    while e > 0 and p ** e > N:
        e -= 1
    while p ** (e + 1) <= N:
        e += 1
    return e


def convolve(s1: DirichletSeries, s2: DirichletSeries, N: int) -> DirichletSeries:
    """Dirichlet product truncated at N: entry at d is sum over d1*d2 = d.

    Two series graded by one prime p (GradedSeries) multiply on their
    exponents: _mul_into keys each update by e1 + e2 in place of d1 * d2,
    in the same order, so the result is the same series to the bit, graded
    by p again."""
    if s1.backend != s2.backend:
        raise BackendMismatch("cannot convolve series with different backends")
    if N > min(s1.cutoff, s2.cutoff):
        raise PreconditionError("convolution target N exceeds an input cutoff")
    if N < 1:
        raise PreconditionError("cutoff must be a positive integer")
    p = s1.grading
    graded = p is not None and p == s2.grading
    acc: Dict[int, object] = {}
    if s1 and s2:
        if graded:
            k1s, k2s, stop = s1.exps, s2.exps, floor_log(N, p)
            reach = stop - k2s[0]
        else:
            k1s, k2s, stop = s1.dims, s2.dims, N
            reach = N // k2s[0]
        k1s = k1s[:bisect_right(k1s, reach)]
        x = list(zip(k2s, s2.mults))
        _mul_into(acc, dict(zip(k1s, s1.mults)), k1s, x, stop, s1.backend == EXACT, graded=graded)
    return GradedSeries(N, p, acc, s1.backend) if graded else DirichletSeries(N, acc, s1.backend)


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
    if k == 1:  # the sum below is fsum([log(M) - 0.0]), which is log(M)
        return math.log(M)
    return math.fsum(math.log(M - i) - math.log(i + 1.0) for i in range(k))


def _power_terms(
    x: List[Tuple[int, object]],
    M: Multiplicity,
    N: int,
    backend: str,
    p: Optional[int] = None,
    top: Optional[int] = None,
):
    """The entries of (1 + x)^M - 1 at dims <= N, sorted by dimension, for x
    a sorted list of (dim, mult) pairs on distinct dims in [2, N].  Given a
    prime p and top = floor_log(N, p), every dimension is a power p^e and
    is keyed by its exponent e instead, in x and in the result, so that a
    product of two terms adds their keys where it would multiply them: the
    same terms in the same order, and the same bits, as convolve dispatches.

    x^k starts at min_dim(x)^k, so only the powers with min_dim(x)^k <= N
    contribute, at most log2(N) of them.  For a one-term x = (d, m) each
    power is the one term (d^k, m^k), m^k on the log backend the running
    sum m + ... + m that convolve would form; for a longer x each one from
    k = 2 on is one convolve.  Each power's terms, times C(M, k), are added
    into the result in line, as _mul_into would add them, a log-add being
    _logaddexp.  When M = 1 or min_dim(x)^2 > N the loop adds C(M, 1) * x
    once and stops.  The exact backend forms C(M, k) as C(M, k-1)*(M-k+1)//k,
    the log backend as log C(M,k) = sum_{i<k} log((M-i)/(i+1)).
    """
    if not x:
        return []
    exact = backend == EXACT
    Mi = mult_to_int(M) if exact else None
    times, stop = (mul, N) if p is None else (add, top)
    d0 = start = x[0][0]  # start: the least key of x^k
    out: Dict[int, object] = {}
    terms = x
    xs = xk = None
    k = c = 1  # c: C(M, 0) before the first step
    while True:
        c = c * (Mi - k + 1) // k if exact else _log_binomial(M, k)
        if c == (0 if exact else float("-inf")):
            break
        for d, m in terms:
            v = c * m if exact else c + m
            prev = out.get(d)
            out[d] = v if prev is None else (prev + v if exact else _logaddexp(prev, v))
        k += 1
        start = times(start, d0)
        if (isinstance(M, int) and k > M) or start > stop:
            break
        if len(x) == 1:  # x^k is the one term at start
            (_, mk), (_, m0) = terms[0], x[0]
            terms = [(start, mk * m0 if exact else mk + m0)]
            continue
        if xs is None:
            xs = xk = GradedSeries(N, p, dict(x), backend) if p else DirichletSeries(N, x, backend)
        xk = convolve(xk, xs, N)
        terms = zip(xk.exps, xk.mults) if p else xk.items()
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
    natural log of the count, the last of the _log_prefix_sums that are
    empirical_slope's prefix sums.  Refuses n beyond the cutoff: the
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
    sums = _log_prefix_sums(s.mults[:idx])
    return sums[-1] if sums else -math.inf


def _log_prefix_sums(ms) -> List[float]:
    """The natural logs of the running sums of exp(m) over the log
    multiplicities ms, folded left to right from -inf: each log-add written
    out in line as _mul_into writes it (the larger operand first, then
    a + log1p(exp(b - a))), bit for bit _logaddexp, with no call per term."""
    out = []
    log1p, exp = math.log1p, math.exp
    a = -math.inf
    for b in ms:
        if a < b:
            a, b = b, a
        a += log1p(exp(b - a))
        out.append(a)
    return out
