"""Truncated Dirichlet-series arithmetic with exact and log-domain backends.

A series is counts on sorted keys, truncated at a cutoff N, and a key rule
that reads the keys as dimensions: a key is a dimension, or, in a series
graded by a prime p, the exponent e of the dimension p^e.  Either way it is
the finite map {dimension -> multiplicity}.  Dimensions are
arbitrary-precision positive integers (model dimensions grow like q^n and
overflow machine words almost immediately).
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
from itertools import accumulate, chain, repeat
from operator import add, floordiv, mul, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import PreconditionError, ReportedError, int_name

EXACT = "exact"
LOG = "log"

# Refuse to materialize exponent-form multiplicities beyond this many bits.
MAX_MATERIALIZE_BITS = 1 << 22
# The most rows that row_chunks forms in one chunk: about 0.1 MB of CSV text
# at N = 10^6, and one chunk for every table of N <= 4096.
ROWS_PER_CHUNK = 4096


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


def mult_to_int(m: Multiplicity) -> int:
    return m.to_int() if isinstance(m, BigPower) else m


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class DirichletSeries:
    """Immutable truncated series: counts on sorted keys, and the key rule
    that reads them.  With grading None a key is a dimension; with grading
    a prime p every dimension is a power p^e, keyed by its exponent e, so
    that convolve adds two small exponents where it would multiply two
    dimensions.  The rule does not show: a series equals, hashes, prints
    and serializes as the (dimension, multiplicity) entries it holds.

    A graded series forms its dimensions on first read and then keeps
    them: convolve, prefix, after, mult_at and cumulative read the keys,
    so a series that is only multiplied, cut or summed never forms its
    dimensions, which run to hundreds of bits."""

    __slots__ = ("cutoff", "backend", "grading", "keys", "mults", "_dims")

    def __init__(self, cutoff: int, entries, backend: str = EXACT, grading: Optional[int] = None):
        """entries: (dim, multiplicity) pairs or a mapping of them, dims past
        the cutoff dropped; given grading a prime p, a dict {e: multiplicity}
        on exponents e of p^e, one past floor_log(cutoff, p) raising.  A
        dict whose sorted keys start at 1 (at 0 when graded) or above and
        whose kept values pass _init_sorted is kept as it is, with no merged
        copy and no dimension formed, and so are _Columns, whose dims the
        caller forms sorted, distinct and in [1, cutoff]; other entries go
        through the merging loop, on their dimensions, which raises its
        errors in its order and adds (log-adds) the entries on one dim.
        Dimensions and exponents are plain ints: any other key (2.5, True,
        "a") raises PreconditionError, an exponent before any other check."""
        if cutoff < 1:
            raise PreconditionError("cutoff must be a positive integer")
        if backend not in (EXACT, LOG):
            raise PreconditionError(f"unknown backend {backend!r}")
        if grading is not None:
            if not {int}.issuperset(map(type, entries)):
                raise PreconditionError(f"an exponent of {grading} is not a plain integer")
            keys = sorted(entries)
            if keys and keys[-1] > floor_log(cutoff, grading):
                raise PreconditionError(f"an exponent of {grading} puts a dimension past the cutoff {cutoff}")
            mults = tuple(map(entries.__getitem__, keys))
            if (not keys or keys[0] >= 0) and self._init_sorted(cutoff, backend, grading, tuple(keys), mults):
                return
            entries = zip(_powers(grading, keys), mults)
        elif type(entries) is _Columns:
            if self._init_sorted(cutoff, backend, None, tuple(entries.dims), tuple(entries.mults)):
                return
        elif type(entries) is dict:
            try:
                dims = sorted(entries)
                # plain-int keys from 1 on; the merging loop refuses any other
                in_range = (not dims or dims[0] >= 1) and {int}.issuperset(map(type, dims))
            except TypeError:  # keys that do not compare with each other or with 1
                in_range = False
            if in_range:
                del dims[bisect_right(dims, cutoff):]
                if self._init_sorted(cutoff, backend, None, tuple(dims), tuple(map(entries.__getitem__, dims))):
                    return
        exact = backend == EXACT
        merged: Dict[int, object] = {}
        for d, m in entries.items() if isinstance(entries, Mapping) else entries:
            if type(d) is not int or d < 1:
                raise PreconditionError(f"dimension {d!r} is not a positive integer")
            if d > cutoff:
                continue  # truncation silently discards
            if exact:
                if not isinstance(m, int) or m <= 0:
                    raise PreconditionError(
                        f"exact multiplicity at dim {d} must be a positive integer"
                    )
                merged[d] = merged.get(d, 0) + m
            else:
                m = float(m)
                if not math.isfinite(m):
                    raise PreconditionError(f"log multiplicity at dim {d} must be finite")
                prev = merged.get(d)
                merged[d] = m if prev is None else _logaddexp(prev, m)
        dims = sorted(merged)  # graded: the distinct powers of keys, none dropped
        self._set(cutoff, backend, grading, tuple(dims if grading is None else keys), tuple(map(merged.__getitem__, dims)))

    def _init_sorted(self, cutoff: int, backend: str, grading: Optional[int], keys: tuple, mults: tuple) -> bool:
        """Set up from keys sorted, distinct and in range and their
        multiplicities, when these are exact positive plain ints, or finite
        plain floats on the log backend: the type set and the minimum, or
        finiteness, are checked with no loop in Python.  Returns False,
        setting nothing, otherwise (an unknown backend, a nonpositive or
        non-finite value, an int on the log backend, a subclass such as
        True, which the merging loop turns into a plain int or float)."""
        if backend == EXACT:
            ok = {int}.issuperset(map(type, mults)) and min(mults, default=1) >= 1
        else:
            ok = backend == LOG and {float}.issuperset(map(type, mults)) and all(map(math.isfinite, mults))
        if ok:
            self._set(cutoff, backend, grading, keys, mults)
        return ok

    def _set(self, cutoff: int, backend: str, grading: Optional[int], keys: tuple, mults: tuple) -> "DirichletSeries":
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "mults", mults)
        return self

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("DirichletSeries is immutable")

    @property
    def dims(self) -> Tuple[int, ...]:
        """The keys, or when graded by p the powers p^e of the keys e,
        formed on first read and then kept."""
        if self.grading is None:
            return self.keys
        try:
            return self._dims
        except AttributeError:
            object.__setattr__(self, "_dims", _powers(self.grading, self.keys))
            return self._dims

    def _top(self, n: int) -> int:
        """The largest key of a dimension <= n, for n >= 1."""
        return n if self.grading is None else floor_log(n, self.grading)

    def _key(self, d: int) -> Optional[int]:
        """The key of the dimension d >= 1, None where d is no power of the
        grading."""
        k = self._top(d)
        return k if self.grading is None or self.grading ** k == d else None

    def items(self) -> Iterator[Tuple[int, object]]:
        return zip(self.dims, self.mults)

    def __len__(self) -> int:
        return len(self.mults)

    def __bool__(self) -> bool:
        return bool(self.mults)

    def mult_at(self, d: int, default=None):
        k = self._key(d) if d >= 1 else None
        i = -1 if k is None else bisect_right(self.keys, k) - 1
        return self.mults[i] if i >= 0 and self.keys[i] == k else default

    def prefix(self, N: int) -> "DirichletSeries":
        """The entries at dims <= N as a series truncated at N <= cutoff, of
        this key rule; on the exact backend the product a series holds,
        truncated at N, is its prefix (invariants.prefix_truncation)."""
        if not 1 <= N <= self.cutoff:
            raise PreconditionError(f"prefix cutoff {N} is outside [1, {self.cutoff}]")
        i = bisect_right(self.keys, self._top(N))
        return object.__new__(DirichletSeries)._set(N, self.backend, self.grading, self.keys[:i], self.mults[:i])

    def after(self, head: "DirichletSeries") -> "DirichletSeries":
        """head's entries, then this series', at this cutoff, for a head of
        this backend whose cutoff lies below every dim of this series and
        whose every dim has a key under this series' rule: this key rule,
        with no merge."""
        if self.keys and self.keys[0] <= self._top(head.cutoff):
            raise PreconditionError(f"dimension {int_name(self.dims[0])} is not past the cutoff {int_name(head.cutoff)}")
        keys = head.keys if head.grading == self.grading else tuple(map(self._key, head.dims))
        if None in keys:
            d = head.dims[keys.index(None)]
            raise PreconditionError(f"dimension {int_name(d)} of the head is not a power of {self.grading}")
        return object.__new__(DirichletSeries)._set(
            self.cutoff, self.backend, self.grading, keys + self.keys, head.mults + self.mults
        )

    def to_log(self) -> "DirichletSeries":
        """Explicit exact -> log conversion (never done implicitly), of this
        key rule."""
        if self.backend == LOG:
            return self
        return DirichletSeries(self.cutoff, dict(zip(self.keys, map(math.log, self.mults))), LOG, self.grading)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.cutoff == other.cutoff
            and self.dims == other.dims
            and self.mults == other.mults
        )

    def __hash__(self):
        return hash((self.backend, self.cutoff, self.dims, self.mults))

    def __repr__(self) -> str:
        head = ", ".join(f"{d}:{m}" for d, m in list(self.items())[:6])
        tail = ", ..." if len(self) > 6 else ""
        return f"DirichletSeries(N={self.cutoff}, {self.backend}, {{{head}{tail}}})"

    def to_jsonable(self) -> dict:
        entries = [
            [str(d), str(m) if self.backend == EXACT else m]
            for d, m in self.items()
        ]
        return {"cutoff": self.cutoff, "backend": self.backend, "entries": entries}

    def _require_printable(self) -> None:
        """RangeOverflow when an exact count has more digits than str()
        prints; 10^digits is formed only for a count of more than 3 * digits
        bits, as every smaller one lies below 8^digits."""
        digits = max_str_digits()
        top = max(self.mults, default=0) if self.backend == EXACT else 0
        if top.bit_length() > 3 * digits and top >= 10 ** digits:
            raise RangeOverflow(f"an exact count has more than {digits} digits, too many to print")

    def csv_chunks(self) -> Iterator[str]:
        """to_csv's text as row_chunks forms it, a dimension,multiplicity
        header first; raises RangeOverflow, before any chunk is formed, when
        a count is too long to print."""
        self._require_printable()
        return chain(("dimension,multiplicity\n",), row_chunks("%s,%s\n", column_blocks(self.dims, self.mults)))

    def json_chunks(self) -> Iterator[str]:
        """to_json's text as row_chunks forms it; raises RangeOverflow as
        csv_chunks does."""
        self._require_printable()
        q = '"' if self.backend == EXACT else ""  # a plain int or float's repr is its JSON
        return chain(
            (f'{{\n  "backend": "{self.backend}",\n  "cutoff": {self.cutoff},\n  "entries": ',),
            json_list(f'    [\n      "%s",\n      {q}%r{q}\n    ]', column_blocks(self.dims, self.mults)),
            ("\n}",),
        )

    def to_csv(self) -> str:
        """A dimension,multiplicity header and one row per entry."""
        return "".join(self.csv_chunks())

    def to_json(self) -> str:
        """json.dumps(self.to_jsonable(), indent=2, sort_keys=True), byte for
        byte, written row by row instead of through the pure-Python encoder."""
        return "".join(self.json_chunks())


def column_blocks(*columns: Sequence) -> Iterator[list]:
    """The columns, of equal length, cut into blocks of ROWS_PER_CHUNK rows:
    a list of slices, one per column, for each block."""
    k = ROWS_PER_CHUNK
    for i in range(0, len(columns[0]), k):
        yield [c[i:i + k] for c in columns]


def row_chunks(row: str, blocks: Iterable[Sequence[Sequence]], sep: str = "") -> Iterator[str]:
    """The rows of a table as text, one chunk per block, sep between rows.
    A block is a list of columns of equal length, at most ROWS_PER_CHUNK;
    each of its rows i is row % (c[i] for c in columns), and the chunk is one
    % of the format (sep + row) repeated over the block's rows, applied to the
    columns interleaved, with the first sep of the table cut off.  An empty
    block forms no chunk."""
    fmt = sep + row
    lead = len(sep)  # the first row of the table has no sep before it
    for cols in blocks:
        k, w = len(cols[0]), len(cols)
        if not k:
            continue
        values = [None] * (k * w)
        for j, c in enumerate(cols):
            values[j::w] = c
        yield (fmt * k)[lead:] % tuple(values)
        lead = 0


def json_list(row: str, blocks: Iterable[Sequence[Sequence]]) -> Iterator[str]:
    """The value of a key of a top-level object, as json.dumps(indent=2)
    prints it: "[]" when no block has a row, else the rows, each indented
    four spaces and formed by row_chunks, between "[\n" and "\n  ]"."""
    chunks = row_chunks(row, blocks, ",\n")
    first = next(chunks, None)
    if first is None:
        yield "[]"
        return
    yield "[\n"
    yield first
    yield from chunks
    yield "\n  ]"


def _powers(p: int, exps) -> tuple:
    """The dimensions p^e of the sorted exponents exps: the running
    products of the steps p^(e - e_prev), formed in C."""
    return tuple(accumulate(map(pow, repeat(p), map(sub, exps, [0, *exps])), mul))


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


def _mul_into(acc, k1s, x, stop, exact, bound=0, graded=False):
    """Add acc[k1] * x into the dict acc, for each key k1 of k1s in turn and
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
    bits.  k1s runs high to low and every target key exceeds its source, so
    no source is updated before it is read.  Returns the keys it created
    that are <= bound, in creation order.
    """
    fresh = []
    log1p, exp = math.log1p, math.exp
    for k1 in k1s:
        m1 = acc[k1]
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


def _mul_terms(acc, k1s, m1s, x, stop, exact, graded, past):
    """Add m1 * m2 into the dict acc at k1 * k2 (graded, at k1 + k2) for each
    term (k2, m2) of x in turn and, per term, each source (k1, m1) of the
    sorted columns k1s, m1s whose update lands in (past, stop]: one slice
    of sources, found by two bisects.  The log-add is _mul_into's, written
    out in line.  A key's first update sets it and each later one adds to
    it, so the bits of a log sum follow the order of its updates: x runs
    high to low on the log backend, which gives each key its updates in
    ascending source order.  On the exact backend x runs low to high, and
    a unit term (key 1, or 0 graded, count 1) met while acc is empty is
    one acc.update of its slice, which shares the sources' key and count
    objects where k1 * 1 would form new ones."""
    log1p, exp = math.log1p, math.exp
    for k2, m2 in x:
        if graded:
            i, j = bisect_right(k1s, past - k2), bisect_right(k1s, stop - k2)
        else:
            i, j = bisect_right(k1s, past // k2), bisect_right(k1s, stop // k2)
        if exact and m2 == 1 and k2 == (0 if graded else 1) and not acc:
            acc.update(zip(k1s[i:j], m1s[i:j]))
            continue
        for k1, m1 in zip(k1s[i:j], m1s[i:j]):
            k = k1 + k2 if graded else k1 * k2
            prev = acc.get(k)
            if prev is None:
                acc[k] = m1 * m2 if exact else m1 + m2
            elif exact:
                acc[k] = prev + m1 * m2
            else:
                m = m1 + m2
                if prev < m:
                    prev, m = m, prev
                acc[k] = prev + log1p(exp(m - prev))


def _mul_into_list(acc: list, k1s, x, N: int) -> None:
    """_mul_into on the exact backend with dimension keys, into a list acc
    indexed by dimension (len(acc) = N + 1, a zero slot for each dimension
    the product does not reach): acc[k1 * k2] += acc[k1] * m2 for each
    source k1 of k1s in turn, high to low, and the terms of x in order up
    to N, with no hash and no record of the slots it fills."""
    for k1 in k1s:
        m1 = acc[k1]
        for k2, m2 in x:
            k = k1 * k2
            if k > N:
                break
            acc[k] += m1 * m2


class _Columns:
    """Sorted (key, mult) terms as two sequences, an x that the kernels
    read once per source, and dense entries that DirichletSeries keeps as
    they are: each read zips them afresh, so no pair is held."""

    __slots__ = ("dims", "mults")

    def __init__(self, dims: Sequence, mults: Sequence):
        self.dims, self.mults = dims, mults

    def __iter__(self):
        return zip(self.dims, self.mults)


def floor_log(N: int, p: int) -> int:
    """floor(log_p N) for N >= 1 and p >= 2, exactly: the float estimate
    corrected by integer powers."""
    e = int(math.log(N) / math.log(p))
    while e > 0 and p ** e > N:
        e -= 1
    while p ** (e + 1) <= N:
        e += 1
    return e


def convolve(
    s1: DirichletSeries, s2: DirichletSeries, N: int, have: Optional[DirichletSeries] = None
) -> DirichletSeries:
    """Dirichlet product truncated at N: entry at d is sum over d1*d2 = d.

    Two series graded by one prime p multiply on their keys, the exponents
    of p: _mul_terms keys each update by e1 + e2 in place of d1 * d2, in the
    same order, so the result is the same series to the bit, graded by p
    again.  Any other two multiply on their dimensions.

    have, when given, is this product at a cutoff M = have.cutoff <= N, and
    only the pairs past it are formed: d1 > M // d2 for each term d2, or
    e1 + e2 > floor_log(M, p) when graded, the sources of each term one
    slice found by bisect.  Every new key lies past every key of have, so
    the new entries follow have's, have's keyed again by the product's rule
    (a dimension of have that the rule has no key for raises), and each key
    gets the updates of a fresh product in their order: the same series to
    the bit on either backend."""
    if s1.backend != s2.backend or (have is not None and have.backend != s1.backend):
        raise BackendMismatch("cannot convolve series with different backends")
    if N > min(s1.cutoff, s2.cutoff):
        raise PreconditionError("convolution target N exceeds an input cutoff")
    if N < 1:
        raise PreconditionError("cutoff must be a positive integer")
    if have is not None and have.cutoff > N:
        raise PreconditionError(f"the product held is at {int_name(have.cutoff)}, past the target {int_name(N)}")
    p = s1.grading if s1.grading == s2.grading else None  # the product's key rule
    acc: Dict[int, object] = {}
    if s1 and s2:
        # part(top, k): the largest key that k takes to a key <= top;
        # past: the key below every key of a fresh product, or have's top key
        if p is None:
            k1s, k2s, stop, part, past = s1.dims, s2.dims, N, floordiv, 0
        else:
            k1s, k2s, stop, part, past = s1.keys, s2.keys, floor_log(N, p), sub, -1
        if have is not None:
            past = have.cutoff if p is None else floor_log(have.cutoff, p)
        exact = s1.backend == EXACT
        x = list(zip(k2s[:bisect_right(k2s, part(stop, k1s[0]))], s2.mults))
        if not exact:
            x.reverse()
        _mul_terms(acc, k1s, s1.mults, x, stop, exact, p is not None, past)
    out = DirichletSeries(N, acc, s1.backend, p)
    return out if have is None else out.after(have)


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
    is keyed by its exponent e instead, in x, in the result and in the
    series graded by p that convolve multiplies, so that a product of two
    terms adds their keys where it would multiply them: the same terms in
    the same order, and the same bits.

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
            xs = xk = DirichletSeries(N, dict(x), backend, p)
        xk = convolve(xk, xs, N)
        terms = zip(xk.keys, xk.mults)
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
    empirical_slope's prefix sums on the log backend.  Refuses n beyond the
    cutoff: the truncation makes the answer unknown there.
    """
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    if n > s.cutoff:
        raise PreconditionError(
            f"cumulative at n={n} exceeds the truncation cutoff {s.cutoff}"
        )
    idx = bisect_right(s.keys, s._top(n))
    if s.backend == EXACT:
        return sum(s.mults[:idx])
    sums = _log_prefix_sums(s.mults[:idx])
    return sums[-1] if sums else -math.inf


def _log_prefix_sums(ms, a: float = -math.inf) -> List[float]:
    """The natural logs of the running sums of exp(m) over the log
    multiplicities ms, folded left to right from a, the log of the sum
    before them: each log-add written out in line as _mul_into writes it
    (the larger operand first, then a + log1p(exp(b - a))), bit for bit
    _logaddexp, with no call per term."""
    out = []
    log1p, exp = math.log1p, math.exp
    for b in ms:
        if a < b:
            a, b = b, a
        a += log1p(exp(b - a))
        out.append(a)
    return out
