"""Group specifications and their representation-growth computations.

A spec is a finite union of strata: explicit factor lists, geometric towers
S(q^j)^{q^{f(j)}}, prime-indexed SL2 towers, and materialized diagonal
constructions.  Exact abscissae come from rational rate data per stratum;
truncated series realize the same products numerically below a cutoff N and
are exact there because minimal nontrivial dimensions diverge within every
infinite stratum.  The exponent rules f(j) of geometric strata live here
too: PolyExponent, and the construction's Schedule f(j) = n0*k_j - m0*j.

Every stratum kind has the same eight methods, so spec-level computations
are loops over strata and a new kind is one class plus one STRATUM_KINDS
entry: factors_below(bound), a (min_dim, factor) pair for each factor
whose minimal nontrivial degree min_dim is <= bound, min_dim being the
value the stratum's stop test computed, so no caller forms it again, and
the factor a _Factor, the one walk item that truncated_zeta, a stage
run of build_diagonal and m_ns read: S(q)^M with q = p^k, no check run on it, since a
finite stratum yields the item of each FactorSpec, checked when the spec
was built, and a tower proves the checks once for all its factors;
split_walk(N), that walk to N as a head and a tail: the whole walk and
no tail, but on a prime stratum the items of min_dim <= isqrt(N) and the
rest as sieve columns, which add their exact terms into a list indexed by
dimension with no item formed (_PrimeTail);
abscissa_rate(), (kind, rate) with kind "rational", "infinite" or
"finite"; count_exponent(), b with m_n = O(n^b), or None;
with_simple(simple), every factor in the simple or the cover view;
id_str(), the stratum's name in reports and messages; to_jsonable(), its
JSON object; and the classmethod from_jsonable(obj, pointer), the inverse
of to_jsonable.  The two views differ on A1 factors alone: past A1 the
model has no centre, so its series, minimal degrees and counts do not
read the flag.
"""
from __future__ import annotations

import itertools
import math
import sys
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress, repeat
from operator import add, floordiv, itemgetter, mul, sub, truediv
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .char_tables import a1_term_columns, a1_terms, primes_from, prime_power
from .dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    Multiplicity,
    _log_binomial,
    _log_prefix_sums,
    _Columns,
    _logaddexp,
    _mul_into,
    _mul_into_list,
    _power_terms,
    floor_log,
    convolve,  # noqa: F401  unused here; kept so growth.convolve stays bound (bench/tests)
    mult_log,
    mult_to_int,
    power_one_plus,  # noqa: F401  unused here; kept bound for the same reason
)
from .errors import (
    PreconditionError,
    SpecFormatError,
    fraction_field,
    int_field,
    int_list,
    int_name,
)
from .lie_data import (
    A1,
    LieType,
    PairSet,
    canonical_pair_set,
    require_pair_set,
    tits_excluded,
    xi_terms,
)

# a tower multiplicity stays a plain int while it has at most this many bits,
# and _plan's automatic choice is exact unless one has more; _wide
# decides both
_MATERIALIZE_BITS = 256
MAX_POLY_COEFFS = 256      # _first_negative holds ~count^2/2 coefficients of size ~count!
# count * the longest coefficient's bit length: _first_negative bisects over
# [1, 2 + max|c_i| // lead] at every derivative level, so its time grows with
# both; the slowest accepted case measured on a 2-core machine,
# j^126 (j - 255) + 254 (128 coefficients of up to 8 bits), takes about 0.23 s
MAX_POLY_BITS = 1024
# a slot of _plan's dense list costs 8 bytes, and each walk item adds at least
# one dict entry of about 100 bytes (key, count and hash slot), so a list of
# N + 1 slots, at most this many per walk item, holds no more than the dict
# would, and a sparse product at a huge N allocates no slot
_DENSE_SLOTS_PER_ITEM = 16


class TruncationWarning(UserWarning):
    """A truncated computation could not certify exactness below its cutoff."""


def _wide(base: int, e: int = 1) -> bool:
    """Whether base**e, an int (e = 1) or a BigPower's value, has more than
    _MATERIALIZE_BITS bits, decided exactly: base**e >= 2**(e *
    (base.bit_length() - 1)) settles a wide power with none formed, and
    any other has at most 2 * _MATERIALIZE_BITS bits and is formed."""
    return e * (base.bit_length() - 1) >= _MATERIALIZE_BITS or (base ** e).bit_length() > _MATERIALIZE_BITS


def _caller_stacklevel() -> int:
    """The warnings.warn stacklevel, for a warn in the calling frame, of the
    first frame outside this module: the caller of the public walker,
    however deep in this module the warning is raised."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


# ---------------------------------------------------------------------------
# exponent rules for geometric strata


def _horner(coeffs: Sequence[int], j: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * j + c
    return v


def _first_true(pred, lo: int, hi: int) -> int:
    """The least j in (lo, hi] with pred(j), for pred false at lo, true at
    hi and monotone in between."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _first_negative(coeffs: Sequence[int]) -> Optional[int]:
    """The least integer j >= 1 with f(j) < 0, or None, for f(j) = sum
    coeffs[i] * j^i of degree >= 1 with a positive leading coefficient.

    Every real root lies below B = 2 + max|c_i| // lead (Cauchy's bound),
    so f > 0 from B on.  [1, B] is cut at integers into pieces on which f
    is monotone, from the highest derivative down: where a derivative g' is
    monotone on a piece and changes sign, integer bisection finds the c
    with g'(c - 1) and g'(c) on opposite sides of 0 (g'(c) may be 0), and
    c - 1 and c become cuts for g.  Along f's pieces, the first one that
    starts >= 0 and ends < 0 holds the answer, found by bisection.  f(1) < 0
    is answered before any cut is formed, and each later piece starts where
    the one before it ended, at a point already found >= 0, so only a
    piece's end is tested.
    """
    if sum(coeffs) < 0:
        return 1
    ders = [list(coeffs)]
    while len(ders[-1]) > 2:
        ders.append([i * c for i, c in enumerate(ders[-1])][1:])
    cuts = [1, 2 + max(abs(c) for c in coeffs[:-1]) // coeffs[-1]]
    for dg in reversed(ders[1:]):  # dg is monotone on each piece of cuts
        refined = [1]
        for a, b in zip(cuts, cuts[1:]):
            ga = _horner(dg, a)
            s = (ga > 0) - (ga < 0)
            if b - a > 1 and s * _horner(dg, b) < 0:
                c = _first_true(lambda j: s * _horner(dg, j) <= 0, a, b)
                refined += [j for j in (c - 1, c) if j > refined[-1]]
            if b > refined[-1]:
                refined.append(b)
        cuts = refined
    f = ders[0]
    for a, b in zip(cuts, cuts[1:]):
        if _horner(f, b) < 0:
            return _first_true(lambda j: _horner(f, j) < 0, a, b)
    return None


def _require_ints(**fields) -> None:
    """PreconditionError unless each field is a plain int, as FactorSpec
    requires of its multiplicity: no float, bool or other int subclass."""
    for name, v in fields.items():
        if type(v) is not int:
            raise PreconditionError(f"{name} must be an int, got {v!r}")


@dataclass(frozen=True)
class PolyExponent:
    """f(j) as an integer polynomial; degree >= 2 means superlinear
    multiplicity growth (the spec's NotPRG witness shape)."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise PreconditionError("empty coefficient list")
        if len(self.coeffs) > MAX_POLY_COEFFS:
            raise PreconditionError(
                f"{len(self.coeffs)} coefficients: a poly schedule takes at most {MAX_POLY_COEFFS}"
            )
        _require_ints(**{f"coeffs[{i}]": c for i, c in enumerate(self.coeffs)})
        bits = max(abs(c).bit_length() for c in self.coeffs)
        if len(self.coeffs) * bits > MAX_POLY_BITS:
            raise PreconditionError(
                f"{len(self.coeffs)} coefficients of up to {bits} bits: a poly schedule "
                f"takes at most {MAX_POLY_BITS} in count * bits"
            )
        lead = max((i for i, c in enumerate(self.coeffs) if c != 0), default=0)
        if lead > 0 and self.coeffs[lead] < 0:
            raise PreconditionError("leading coefficient must be positive")
        if lead == 0:
            j = 1 if self.coeffs[0] < 0 else None
        else:
            j = _first_negative(self.coeffs[: lead + 1])
        if j is not None:
            raise PreconditionError(f"f({j}) = {self.f(j)} < 0")

    def f(self, j: int) -> int:
        return sum(c * j ** i for i, c in enumerate(self.coeffs))

    def rate(self) -> Optional[Fraction]:
        deg = max((i for i, c in enumerate(self.coeffs) if c != 0), default=0)
        if deg <= 1:
            return Fraction(self.coeffs[1] if len(self.coeffs) > 1 else 0)
        return None  # superlinear: the tower's abscissa diverges

    def to_jsonable(self) -> dict:
        return {"kind": "poly", "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class Schedule:
    """The multiplicity-exponent schedule: k_j = round(rho*j) half-up,
    f(j) = n0*k_j - m0*j from the first active index j0 on, zero before.

    Construction refuses a schedule unless a bound proves f(j) >= 0 for
    every j.  With rho = num/den and D = n0*num - m0*den, k_j >= rho*j -
    1/2 + 1/(2*den), so f(j) <= -1 forces 2*j*D <= n0*(den - 1) - 2*den.
    D >= 0 makes 2*j*D grow with j, so 2*j0*D > n0*(den - 1) - 2*den rules
    that out for every j >= j0.  make_schedule's schedules meet the bound:
    m0 <= n0*rho0 and j0*(rho - rho0) >= 1 give 2*j0*D >= 2*n0*den.
    """

    rho: Fraction
    rho0: Fraction
    m0: int
    n0: int
    j0: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        """The dataclass hash of the fields, formed once: a Fraction's hash
        takes a modular inverse, and a stage stratum hashes its schedule
        each time it is derived (GeometricStratum.with_skip)."""
        return self._hash

    def __post_init__(self):
        if not (0 < self.rho0 < self.rho):
            raise PreconditionError("need 0 < rho0 < rho")
        if self.m0 < 0 or self.n0 < 1 or self.j0 < 1:
            raise PreconditionError("malformed schedule data")
        num, den = self.rho.numerator, self.rho.denominator
        D = self.n0 * num - self.m0 * den
        if D < 0 or 2 * self.j0 * D <= self.n0 * (den - 1) - 2 * den:
            raise PreconditionError(
                "schedule needs D = n0*num - m0*den >= 0 and "
                "2*j0*D > n0*(den - 1) - 2*den, rho = num/den, to keep f(j) >= 0"
            )
        object.__setattr__(self, "_hash", hash((self.rho, self.rho0, self.m0, self.n0, self.j0)))

    def k(self, j: int) -> int:
        num, den = self.rho.numerator, self.rho.denominator
        return (2 * num * j + den) // (2 * den)

    def f(self, j: int) -> int:
        if j < self.j0:
            return 0
        return self.n0 * self.k(j) - self.m0 * j

    def rate(self) -> Fraction:
        """lim f(j)/j = n0*rho - m0, exactly."""
        return self.n0 * self.rho - self.m0

    def to_jsonable(self) -> dict:
        return {
            "kind": "schedule",
            "rho": str(self.rho),
            "rho0": str(self.rho0),
            "m0": self.m0,
            "n0": self.n0,
            "j0": self.j0,
        }

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "Schedule":
        rho, rho0 = (fraction_field(obj, key, pointer) for key in ("rho", "rho0"))
        m0, n0, j0 = (int_field(obj, key, pointer) for key in ("m0", "n0", "j0"))
        return cls(rho, rho0, m0, n0, j0)


def exponent_rule_from_jsonable(obj: dict, pointer: str = ""):
    kind = obj.get("kind")
    if kind == "poly":
        return PolyExponent(int_list(obj["coeffs"], pointer + "/coeffs"))
    if kind == "schedule":
        return Schedule.from_jsonable(obj, pointer)
    raise SpecFormatError(f"unknown schedule kind {kind!r}", pointer)


# ---------------------------------------------------------------------------
# factors and strata


def _pair_set(lie_type: LieType, pairs: Optional[PairSet]) -> PairSet:
    """The pair set of a factor or stratum: pairs None means the canonical
    pair set of its type."""
    return canonical_pair_set(lie_type) if pairs is None else pairs


def _require_pairs(pairs: PairSet, lie_type: LieType) -> None:
    """require_pair_set, and on A1 the set {(1, 1)} alone: A1 series come
    from the SL2/PSL2 character degrees, so no other set describes them."""
    require_pair_set(pairs, lie_type)
    if lie_type == A1 and pairs != canonical_pair_set(A1):
        raise PreconditionError(f"an A1 pair set must be [[1, 1]], got {pairs!r}")


def _least_degree(a1: bool, q: int, simple: bool, n: int) -> int:
    """The least nontrivial degree of S(q), or of its cover when not
    simple, from the field size q: (q - 1) or (q +- 1)/2 on A1, q^n for
    the least pair exponent n otherwise."""
    if a1:
        if q % 2 == 0:
            return q - 1
        return (q + 1) // 2 if simple and q % 4 == 1 else (q - 1) // 2
    return q ** n


def _is_a1(t: LieType) -> bool:
    """t == A1, by identity first: the factors of A1 towers and prime strata
    carry the A1 object itself, and the dataclass __eq__ costs a call."""
    return t is A1 or t == A1


def _simple_flag(obj: dict, default: str, pointer: str) -> bool:
    """The JSON `flag` field: True for "simple", False for "cover"."""
    flag = obj.get("flag", default)
    if flag not in ("simple", "cover"):
        raise SpecFormatError(f"flag must be simple|cover, got {flag!r}", pointer + "/flag")
    return flag == "simple"


class _Factor(NamedTuple):
    """S_lambda(q)^M, or its cover when not simple, over q = p^k, as a
    stratum's walk yields it.  It runs no check: a FactorSpec ran them when
    it was built, and a tower proves them once for all its factors."""

    lie_type: LieType
    q: int
    p: int
    k: int
    simple: bool
    multiplicity: Multiplicity
    pairs: Optional[PairSet]

    def grading(self) -> Optional[int]:
        """p for a factor past A1: its dimensions are powers of q; None on
        A1, whose degrees q +- 1 are not."""
        return None if _is_a1(self.lie_type) else self.p

    def x_terms(self, N: int, backend: str, top: Optional[int] = None) -> List[Tuple[int, object]]:
        """The terms (dim, mult) of x_f = zeta_f - 1 at dims 2..N, sorted by
        dimension; natural-log multiplicities on the log backend.  Given
        top = floor_log(N, p) for a factor past A1, each term is keyed by
        the exponent of its dimension p^e instead, the pair (m, n) at
        e = k*n, with no dimension formed (xi_terms)."""
        pairs = self.pairs
        if top is not None:
            terms = sorted(xi_terms(_pair_set(self.lie_type, pairs), self.q, top, self.k).items())
        elif _is_a1(self.lie_type):
            terms = [(d, m) for d, m in a1_terms(self.q, self.simple)[1:] if m and d <= N]
        else:
            terms = sorted(xi_terms(_pair_set(self.lie_type, pairs), self.q, N).items())
        if backend == LOG:
            return [(d, math.log(m)) for d, m in terms]
        return terms


@dataclass(frozen=True)
class FactorSpec:
    """One quasi-simple factor S_lambda(q) or its cover, with multiplicity,
    checked when built; item is its walk item."""

    lie_type: LieType
    q: int
    simple: bool = True
    multiplicity: Multiplicity = 1
    pairs: Optional[PairSet] = None
    item: _Factor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pk = prime_power(self.q)
        if pk is None:
            raise PreconditionError(f"q = {int_name(self.q)} is not a prime power")
        if tits_excluded(self.lie_type, self.q):
            raise PreconditionError(
                f"{self.lie_type.label()}({self.q}) is Tits-excluded (not quasi-simple)"
            )
        M = self.multiplicity
        if not isinstance(M, BigPower) and (type(M) is not int or M < 1):
            raise PreconditionError(
                f"factor multiplicity must be an int >= 1 or a BigPower, got {M!r}"
            )
        if self.pairs is not None:
            _require_pairs(self.pairs, self.lie_type)
        item = _Factor(self.lie_type, self.q, *pk, self.simple, M, self.pairs)
        object.__setattr__(self, "item", item)

    def pair_set(self) -> PairSet:
        return _pair_set(self.lie_type, self.pairs)

    def min_nontrivial_dim(self, bound: Optional[int] = None) -> int:
        """The least nontrivial degree (_least_degree).  It is at least
        (q^n - 1)/2 >= (2^n - 1)/2 for n the least pair exponent, so given
        a bound, one whose n passes bound.bit_length() + 1 is returned as
        bound + 1 with no q^n formed."""
        n = self.pair_set().min_dim_exponent()
        if bound is not None and n > bound.bit_length() + 1:
            return bound + 1
        return _least_degree(_is_a1(self.lie_type), self.q, self.simple, n)

    def unit_series(self, N: int, backend: str) -> DirichletSeries:
        """The factor's zeta series (constant term included), one copy."""
        one = (1, 1 if backend == EXACT else 0.0)
        return DirichletSeries(N, [one] + self.item.x_terms(N, backend), backend)

    def to_jsonable(self) -> dict:
        mult = self.multiplicity
        out = {
            "lie_type": self.lie_type.to_jsonable(),
            "q": self.q,
            "flag": "simple" if self.simple else "cover",
        }
        if isinstance(mult, BigPower):
            out["multiplicity"] = {"base": mult.base, "exponent": mult.exponent}
        elif mult != 1:
            out["multiplicity"] = mult
        if self.pairs is not None:
            out["pairs"] = self.pairs.to_jsonable()
        return out

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "FactorSpec":
        lt = LieType.from_jsonable(obj.get("lie_type", {}), pointer + "/lie_type")
        q = int_field(obj, "q", pointer)
        mult = obj.get("multiplicity", 1)
        if isinstance(mult, dict):
            mp = pointer + "/multiplicity"
            mult = BigPower(int_field(mult, "base", mp), int_field(mult, "exponent", mp))
        else:
            mult = int_field(obj, "multiplicity", pointer, 1)
        pairs = None
        if "pairs" in obj:
            pairs = PairSet.from_jsonable(obj["pairs"], pointer + "/pairs")
        return cls(lt, q, _simple_flag(obj, "simple", pointer), mult, pairs)


def _split_walk(stratum, N: int) -> Tuple[list, tuple]:
    """(head, tail): the whole walk to N and no tail.  Only a prime stratum
    gains from one (_PrimeTail); any other factor past isqrt(N) is linear."""
    return list(stratum.factors_below(N)), ()


@dataclass(frozen=True)
class FiniteStratum:
    factors: Tuple[FactorSpec, ...]
    split_walk = _split_walk

    def factors_below(self, bound: int) -> List[Tuple[int, _Factor]]:
        dims = ((f.min_nontrivial_dim(bound), f.item) for f in self.factors)
        return [(d, f) for d, f in dims if d <= bound]

    def abscissa_rate(self) -> Tuple[str, Optional[Fraction]]:
        return ("finite", None)

    def count_exponent(self) -> Optional[Fraction]:
        return Fraction(0)  # eventually constant

    def with_simple(self, simple: bool) -> "FiniteStratum":
        return FiniteStratum(tuple(replace(f, simple=simple) for f in self.factors))

    def id_str(self) -> str:
        return f"finite[{len(self.factors)}]"

    def to_jsonable(self) -> dict:
        return {"index": "finite", "factors": [f.to_jsonable() for f in self.factors]}

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "FiniteStratum":
        return cls(
            tuple(
                FactorSpec.from_jsonable(f, f"{pointer}/factors/{k}")
                for k, f in enumerate(obj.get("factors", []))
            )
        )


class _Tower:
    """An infinite stratum whose least degrees diverge, so every truncation
    is a finite walk (factors_below, min_dim_at).  It holds the rate rules
    both towers share, from the subclass's pair set and growth constant c:
    the total multiplicity of the factors of field size <= x grows like x^c
    (None when it outgrows every power)."""

    pairs: Optional[PairSet] = None

    def pair_set(self) -> PairSet:
        return _pair_set(self.lie_type, self.pairs)

    @staticmethod
    def _power(base: int, e: int) -> Multiplicity:
        """base**e, kept unexpanded once it passes _MATERIALIZE_BITS bits."""
        return BigPower(base, e) if _wide(base, e) else base ** e

    def n_min(self) -> int:
        return self.pair_set().min_dim_exponent()

    def abscissa_rate(self) -> Tuple[str, Optional[Fraction]]:
        c = self.growth_constant()
        if c is None:
            return ("infinite", None)
        return ("rational", max(Fraction(c + m, n) for m, n in self.pair_set()))

    def count_exponent(self) -> Optional[Fraction]:
        c = self.growth_constant()
        return None if c is None else Fraction(c, self.n_min())


@dataclass(frozen=True)
class GeometricStratum(_Tower):
    """Factors S(q^j)^{q^{f(j)}} for j = skip+1, skip+2, ...; field sizes
    diverge geometrically, so any truncation has a finite exact horizon."""

    lie_type: LieType
    q: int
    exponents: object  # anything with f(j) -> int and rate() -> Fraction|None
    simple: bool = True
    pairs: Optional[PairSet] = None
    skip: int = 0
    _pk: Tuple[int, int] = field(init=False, repr=False, compare=False)  # q = p^k as (p, k)
    _hash: int = field(init=False, repr=False, compare=False)
    split_walk = _split_walk

    def __post_init__(self):
        _require_ints(q=self.q, skip=self.skip)
        pk = prime_power(self.q) if self.q >= 2 else None
        if pk is None:
            raise PreconditionError(f"base field size {int_name(self.q)} is not a prime power")
        object.__setattr__(self, "_pk", pk)
        if self.pairs is not None:
            _require_pairs(self.pairs, self.lie_type)
        self._check_skip()

    def _check_skip(self) -> None:
        """The checks that skip enters, then the hash: the only work a
        stratum derived with another skip or simple flag does again."""
        if self.skip < 0:
            raise PreconditionError("skip must be >= 0")
        # Tits exclusions have field size 2 or 3, so only the first factor
        # S(q) of an unskipped tower can be one; q^(skip+1) >= 4 otherwise
        if self.skip == 0 and tits_excluded(self.lie_type, self.q):
            raise PreconditionError(
                f"first factor {self.lie_type.label()}({self.q}) is Tits-excluded; "
                "bump q or the skip prefix"
            )
        fields = (self.lie_type, self.q, self.exponents, self.simple, self.pairs, self.skip)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        """The dataclass hash of the compared fields, formed once when the
        stratum is built: build_diagonal's memo hashes tuples of stage
        strata on every lookup."""
        return self._hash

    def _derive(self, **change) -> "GeometricStratum":
        """replace(self, **change) for skip or simple alone, with no
        prime_power(q) and no check of the pair set, which neither enters."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **change)
        out._check_skip()
        return out

    def with_skip(self, skip: int) -> "GeometricStratum":
        _require_ints(skip=skip)
        return self._derive(skip=skip)

    def with_simple(self, simple: bool) -> "GeometricStratum":
        return self._derive(simple=simple)

    def min_dim_at(self, j: int) -> int:
        """The least nontrivial degree of the factor S(q^j)."""
        return _least_degree(_is_a1(self.lie_type), self.q ** j, self.simple, self.n_min())

    def factors_below(self, bound: int) -> Iterator[Tuple[int, _Factor]]:
        """(min_dim_at(j), S(q^j)^{q^f(j)}) for j = skip+1, skip+2, ...
        while the degree is <= bound, q^j formed once for both.  That degree
        is at least (2^(j*n) - 1)/2, n the least pair exponent, so the walk
        stops with no q^j formed once j*n passes bound.bit_length() + 1.
        No check runs again: every check of FactorSpec holds for each
        S(q^j) once it holds for the stratum.  q^j = p^(k*j); only field
        sizes 2 and 3 are Tits-excluded, and q^j >= 4 from j = 2 on; q^f(j)
        >= 1, since multiplicity(j) refuses f(j) < 0; the pair set is
        checked when the stratum is built."""
        a1 = _is_a1(self.lie_type)
        n = self.n_min()
        cap = bound.bit_length() + 1
        p, k = self._pk
        for j in itertools.count(self.skip + 1):
            if j * n > cap:
                return
            q = self.q ** j
            d = _least_degree(a1, q, self.simple, n)
            if d > bound:
                return
            yield d, _Factor(self.lie_type, q, p, k * j, self.simple, self.multiplicity(j), self.pairs)

    def multiplicity(self, j: int) -> Multiplicity:
        f = self.exponents.f(j)
        if f < 0:  # PolyExponent and Schedule refuse this when built; other rules may not
            raise PreconditionError(f"{self.id_str()}: f({j}) = {f} < 0")
        return self._power(self.q, f)

    def growth_constant(self) -> Optional[Fraction]:
        return self.exponents.rate()

    def id_str(self) -> str:
        return f"geom({self.lie_type.label()},q={self.q})"

    def to_jsonable(self) -> dict:
        out = {
            "index": "geometric",
            "q": self.q,
            "lie_type": self.lie_type.to_jsonable(),
            "flag": "simple" if self.simple else "cover",
            "schedule": self.exponents.to_jsonable(),
        }
        if self.pairs is not None:
            out["pairs"] = self.pairs.to_jsonable()
        if self.skip:
            out["skip"] = self.skip
        return out

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "GeometricStratum":
        lt = LieType.from_jsonable(obj.get("lie_type", {}), pointer + "/lie_type")
        rule = exponent_rule_from_jsonable(obj.get("schedule", {}), pointer + "/schedule")
        pairs = None
        if "pairs" in obj:
            pairs = PairSet.from_jsonable(obj["pairs"], pointer + "/pairs")
        simple = _simple_flag(obj, "simple", pointer)
        q, skip = int_field(obj, "q", pointer), int_field(obj, "skip", pointer, 0)
        return cls(lt, q, rule, simple, pairs, skip)


@dataclass(frozen=True)
class PrimeStratum(_Tower):
    """The prime-indexed A1 family: SL2(p)^{((p^3-p)/2)^E} over primes
    p >= p_min.  Multiplicities grow like p^{3E} (the rate exponent), and
    the primes themselves add one more power: c = 3E + 1."""

    p_min: int = 5
    mult_exponent: int = 1
    simple: bool = False  # cover view by default: factors SL2(p), not PSL2(p)

    def __post_init__(self):
        _require_ints(p_min=self.p_min, mult_exponent=self.mult_exponent)
        if self.p_min < 5:
            raise PreconditionError("p_min must be >= 5 (SL2(2), SL2(3) are excluded)")
        if self.mult_exponent < 0:
            raise PreconditionError("multiplicity exponent must be >= 0")

    lie_type = A1

    def min_dim_at(self, p: int) -> int:
        """The least nontrivial degree h of the factor over the prime p:
        (p +- 1)/2, which never decreases along the primes."""
        return _least_degree(True, p, self.simple, 1)

    def factors_below(self, bound: int) -> Iterator[Tuple[int, _Factor]]:
        """(min_dim_at(p), factor) for the primes p >= p_min whose least
        degree is <= bound; the stratum proves the checks for every p
        primes_from draws (p >= 5 prime, M >= 1).  The walk stops at the
        first prime past the bound."""
        # every prime p >= p_min has minimal dimension >= (p_min - 1) // 2, so
        # a p_min far above the bound needs no sieve window at all
        if (self.p_min - 1) // 2 > bound:
            return
        simple = self.simple
        for p in primes_from(self.p_min):
            h = self.min_dim_at(p)
            if h > bound:
                return
            M = self.multiplicity(p)
            if M != 1 and h * h <= bound:
                # built checked, though proven: the bench tests trace its prime_power
                yield h, FactorSpec(A1, p, simple, M).item
            else:
                yield h, _Factor(A1, p, p, 1, simple, M, None)

    def split_walk(self, N: int) -> Tuple[list, "_PrimeTail"]:
        """(head, tail): the walk to N, the items of min_dim <= r = isqrt(N)
        as the head (its h^2 <= N decides a powered prime), which draws no
        sieve window when empty, and the rest as a _PrimeTail's columns."""
        r = math.isqrt(N)
        walk = self.factors_below(N) if (self.p_min - 1) // 2 <= r else ()
        return list(itertools.takewhile(lambda t: t[0] <= r, walk)), _PrimeTail(self, r, N)

    def with_simple(self, simple: bool) -> "PrimeStratum":
        return replace(self, simple=simple)

    def rate_exponent(self) -> int:
        return 3 * self.mult_exponent

    def multiplicity(self, p: int) -> Multiplicity:
        return self._power((p ** 3 - p) // 2, self.mult_exponent)

    def growth_constant(self) -> int:
        return self.rate_exponent() + 1

    def id_str(self) -> str:
        return f"primes(p>={self.p_min},E={self.mult_exponent})"

    def to_jsonable(self) -> dict:
        return {
            "index": "primes",
            "p_min": self.p_min,
            "rate_exponent": self.rate_exponent(),
            "pairs": [[1, 1]],
            "flag": "simple" if self.simple else "cover",
        }

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "PrimeStratum":
        e = int_field(obj, "rate_exponent", pointer, 3)
        if e % 3 != 0 or e < 0:
            raise SpecFormatError(
                "rate_exponent must be 3*E for the A1 prime family", pointer + "/rate_exponent"
            )
        if "pairs" in obj:
            _require_pairs(PairSet.from_jsonable(obj["pairs"], pointer + "/pairs"), A1)
        p_min = int_field(obj, "p_min", pointer, 5)
        return cls(p_min, e // 3, _simple_flag(obj, "cover", pointer))


class _PrimeTail:
    """The primes of a prime stratum whose least degree h is in (r, N], as
    one column drawn from the sieve: h never decreases along the primes,
    and h <= N puts p <= 2N + 1, h > r puts p >= 2r - 1.  Its items are the
    walk's; its terms are formed as columns, with no item."""

    def __init__(self, stratum: PrimeStratum, r: int, N: int):
        self.stratum = stratum
        lo = max(stratum.p_min, 2 * r - 1)
        ps = [] if lo > 2 * N + 1 else list(itertools.takewhile((2 * N + 1).__ge__, primes_from(lo)))
        h = stratum.min_dim_at
        self.ps = ps[bisect_right(ps, r, key=h):bisect_right(ps, N, key=h)]

    def __iter__(self) -> Iterator[Tuple[int, _Factor]]:
        s = self.stratum
        for p in self.ps:
            yield s.min_dim_at(p), _Factor(A1, p, p, 1, s.simple, s.multiplicity(p), None)

    def __len__(self) -> int:
        return len(self.ps)

    def largest(self) -> Multiplicity:
        """A non-empty tail's largest multiplicity: M(p) grows with p."""
        return self.stratum.multiplicity(self.ps[-1])

    def add_terms(self, S: list, N: int) -> None:
        """Add M(p) times each family of a1_terms at dims <= N into the list
        S indexed by dimension (len(S) = N + 1), a family at a time, for all
        the primes at once, for a non-empty tail (_plan hands over no other)."""
        ps, E = self.ps, self.stratum.mult_exponent
        mult_to_int(self.stratum.multiplicity(ps[-1]))  # RangeOverflow past what materializes
        Ms = list(map(pow, map(floordiv, map(sub, map(pow, ps, repeat(3)), ps), repeat(2)), repeat(E)))
        for ds, ms in a1_term_columns(ps, self.stratum.simple):
            terms = zip(itertools.islice(ds, bisect_right(ds, N)), map(mul, ms, Ms))
            for d, c in compress(terms, ms):
                S[d] += c


@dataclass(frozen=True)
class DiagonalStage:
    rho_m: Fraction
    stratum: GeometricStratum
    n_m: int

    def to_jsonable(self) -> dict:
        return {
            "rho_m": str(self.rho_m),
            "n_m": str(self.n_m),
            "stratum": self.stratum.to_jsonable(),
        }


@dataclass(frozen=True)
class DiagonalStratum:
    """A materialized diagonal construction: limit rho plus the verified
    stages.  The unmaterialized tail only contributes above the last
    checkpoint, so truncations are exact up to stages[-1].n_m.  Built or
    read, it meets what build_diagonal guarantees: rho > 0, stage abscissae
    rho_m increasing strictly below rho, checkpoints n_m increasing strictly
    from above 1, and each stage stratum of abscissa exactly its rho_m."""

    rho: Fraction
    stages: Tuple[DiagonalStage, ...]
    split_walk = _split_walk

    def __post_init__(self):
        if self.rho <= 0:
            raise PreconditionError(f"diagonal limit rho = {self.rho} must be positive")
        rhos = [st.rho_m for st in self.stages] + [self.rho]
        if any(a >= b for a, b in zip(rhos, rhos[1:])):
            raise PreconditionError("stage rho_m must increase strictly and stay below rho")
        ns = [1] + [st.n_m for st in self.stages]
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise PreconditionError("checkpoints n_m must increase strictly from above 1")
        for k, st in enumerate(self.stages):
            kind, rate = st.stratum.abscissa_rate()
            if (kind, rate) != ("rational", st.rho_m):
                shown = rate if kind == "rational" else kind
                raise PreconditionError(
                    f"stage {k}: stratum abscissa {shown} differs from rho_m = {st.rho_m}"
                )

    def exact_horizon(self) -> int:
        return self.stages[-1].n_m if self.stages else 1

    def factors_below(self, bound: int) -> Iterator[Tuple[int, _Factor]]:
        if bound > self.exact_horizon():
            warnings.warn(
                f"{self.id_str()}: truncation {bound} exceeds the materialized horizon "
                f"{self.exact_horizon()}; unbuilt stages could contribute above it",
                TruncationWarning,
                stacklevel=_caller_stacklevel(),
            )
        for st in self.stages:
            yield from st.stratum.factors_below(bound)

    def abscissa_rate(self) -> Tuple[str, Optional[Fraction]]:
        return ("rational", self.rho)

    def count_exponent(self) -> Optional[Fraction]:
        return self.rho  # upper bound across the materialized and asserted tail

    def with_simple(self, simple: bool) -> "DiagonalStratum":
        stages = tuple(replace(st, stratum=st.stratum.with_simple(simple)) for st in self.stages)
        return replace(self, stages=stages)

    def id_str(self) -> str:
        return f"diagonal(rho={self.rho})"

    def to_jsonable(self) -> dict:
        return {
            "index": "diagonal",
            "rho": str(self.rho),
            "stages": [s.to_jsonable() for s in self.stages],
        }

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "DiagonalStratum":
        rho = fraction_field(obj, "rho", pointer)
        stages = []
        for k, st in enumerate(obj.get("stages", [])):
            sp = f"{pointer}/stages/{k}"
            rho_m = fraction_field(st, "rho_m", sp)
            stratum = _stratum_from_jsonable(st["stratum"], sp + "/stratum", _STAGE_KINDS)
            stages.append(DiagonalStage(rho_m, stratum, int_field(st, "n_m", sp)))
        return cls(rho, tuple(stages))


Stratum = Union[FiniteStratum, GeometricStratum, PrimeStratum, DiagonalStratum]
STRATUM_KINDS = {
    "finite": FiniteStratum,
    "geometric": GeometricStratum,
    "primes": PrimeStratum,
    "diagonal": DiagonalStratum,
}
_STAGE_KINDS = {"geometric": GeometricStratum}


def _stratum_from_jsonable(obj, pointer: str, kinds=STRATUM_KINDS) -> Stratum:
    """Parse one stratum by its index.  A missing or mistyped field becomes a
    SpecFormatError at the stratum's pointer; a PreconditionError (a
    well-formed but illegal value) passes through."""
    if not isinstance(obj, dict):
        raise SpecFormatError("stratum must be an object", pointer)
    index = obj.get("index")
    if not isinstance(index, str) or index not in kinds:
        raise SpecFormatError(
            f"stratum index must be one of {', '.join(kinds)}, got {index!r}", pointer + "/index"
        )
    try:
        return kinds[index].from_jsonable(obj, pointer)
    except (SpecFormatError, PreconditionError):
        raise
    except KeyError as e:
        raise SpecFormatError(f"missing field {e}", pointer)
    except (TypeError, AttributeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise SpecFormatError(f"malformed field: {e}", pointer)


@dataclass(frozen=True)
class GroupSpec:
    strata: Tuple[Stratum, ...]

    def to_jsonable(self) -> dict:
        return {"strata": [s.to_jsonable() for s in self.strata]}

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "GroupSpec":
        if not isinstance(obj, dict) or not isinstance(obj.get("strata"), list):
            raise SpecFormatError("spec must be an object with a 'strata' list", pointer)
        return cls(
            tuple(
                _stratum_from_jsonable(s, f"{pointer}/strata/{i}")
                for i, s in enumerate(obj["strata"])
            )
        )


def with_flag(spec: GroupSpec, simple: bool) -> GroupSpec:
    """The same spec with every factor forced to the simple quotient or the
    cover view (the G vs G-tilde comparison)."""
    return GroupSpec(tuple(s.with_simple(simple) for s in spec.strata))


# ---------------------------------------------------------------------------
# contributions below a dimension bound


def _contributions(spec: GroupSpec, bound: int) -> Iterator[Tuple[int, _Factor]]:
    """(min_dim, factor) for the factors whose minimal nontrivial dimension
    min_dim is <= bound.  Within every stratum the minimal dimensions
    diverge, so this is a finite, exact set (a TruncationWarning is issued
    where that cannot be certified)."""
    for s in spec.strata:
        yield from s.factors_below(bound)


def _factor_terms(
    f: _Factor, min_dim: int, N: int, backend: str, top: Optional[int] = None
) -> list:
    """The terms of (1 + x_f)^M - 1 that truncated_zeta applies at dims
    <= N, M = f.multiplicity and min_dim <= N where x_f starts:
    _power_terms(f.x_terms(N, backend), M, N, backend), bit for bit.  A
    linear factor of any type (M = 1 or min_dim^2 > N, so the terms are
    C(M, 1) * x_f) scales the exact terms of x_f in one pass, over
    a1_terms on A1 with no x_f list formed: each nonzero term at a key <=
    N (top when graded) times M, or on the log backend log M + log m, the
    terms _power_terms gives when x^2 passes that key.  Given top =
    floor_log(N, p) on a product graded by p, every term is keyed by the
    exponent of its dimension instead: x_f's from the pairs
    (_Factor.x_terms), each power's by adding them (_power_terms given p),
    the same multiplicities in the same order."""
    M = f.multiplicity
    p = None if top is None else f.p  # a graded factor is past A1
    if M != 1 and min_dim * min_dim <= N:
        return _power_terms(f.x_terms(N, backend, top), M, N, backend, p, top)
    if p is None and _is_a1(f.lie_type):
        terms = a1_terms(f.q, f.simple)[1:]
    else:
        terms = f.x_terms(N, EXACT, top)
    stop = N if p is None else top
    if backend == EXACT:
        Mi = mult_to_int(M)
        return [(d, Mi * m) for d, m in terms if m and d <= stop]
    lc = _log_binomial(M, 1)
    return [(d, lc + math.log(m)) for d, m in terms if m and d <= stop]


@dataclass(frozen=True)
class _Plan:
    """truncated_zeta's run at N as _plan decides it: factors, the walk items
    (min_dim, item) in the order they are applied; tails, the _PrimeTails
    that a dense product applies at once as 1 + S."""

    N: int
    backend: str
    grading: Optional[int]
    dense: bool
    factors: Tuple[Tuple[int, object], ...]
    tails: Tuple[_PrimeTail, ...]


def _plan(spec: GroupSpec, N: int, backend: Optional[str] = None) -> _Plan:
    """truncated_zeta's plan at N from each stratum's split_walk(N), with no
    term formed and no kernel run.  Given no backend, it is exact unless
    some multiplicity is _wide, then log throughout (the exact backend is
    never silently degraded); a prime tail's largest() stands for its
    primes.  The product is graded by p when every item is past A1 over one
    prime p (grading()).  An exact product over dimensions is dense when N
    <= _DENSE_SLOTS_PER_ITEM times its walk items: head items one by one,
    then the prime tails at once; any other applies every item in turn, all
    sorted stably by min_dim, ties in the order of their strata and walks."""
    if N < 1:
        raise PreconditionError("N must be >= 1")
    if backend not in (None, EXACT, LOG):
        raise PreconditionError(f"unknown backend {backend!r}")
    walks = [s.split_walk(N) for s in spec.strata]
    if backend is None:
        mults = [t.largest() for _, t in walks if t] + [f.multiplicity for h, _ in walks for _, f in h]
        wide = (_wide(M.base, M.exponent) if isinstance(M, BigPower) else _wide(M) for M in mults)
        backend = LOG if any(wide) else EXACT
    grades = (f.grading() for h, t in walks for _, f in itertools.chain(h, t))
    p = next(grades, None)
    if p is not None and any(g != p for g in grades):
        p = None
    dense = backend == EXACT and p is None and N <= _DENSE_SLOTS_PER_ITEM * sum(len(h) + len(t) for h, t in walks)
    factors = sorted((item for h, t in walks for item in (h if dense else itertools.chain(h, t))), key=itemgetter(0))
    return _Plan(N, backend, p, dense, tuple(factors), tuple(t for _, t in walks if t) if dense else ())


def truncated_zeta(spec: GroupSpec, N: int, *, backend: Optional[str] = None) -> DirichletSeries:
    """Dirichlet product over every factor that contributes below N, formed
    as _plan(spec, N, backend) decides: backend, key rule, density, split.

    The product is accumulated in place: each factor (1 + x_f)^M has its
    terms formed (_factor_terms) and applied by one kernel (every source
    d1 <= N // min_dim, high to low, adds into d1 * d2) before the next's,
    into a dict (dirichlet._mul_into), or if dense into a list indexed by
    dimension (_dense_product).  A dense product P of the walk items then
    takes every tail prime at once as 1 + S, S the sum of their terms
    formed in columns (_PrimeTail.add_terms).  Below N each tail prime is
    1 + M_f x_f and any two meet only above N; the sources lie below
    sqrt(N), where P is final; integer sums commute: so this is the
    per-factor product to the bit.  The log backend's bits follow the
    order of its log-adds.  Graded by p, keys are the exponents e of p^e
    (top = floor_log(N, p)): the same factors, order and updates, the
    kernel adding keys where it would multiply them, so the same bits.

    Cost: per factor applied one by one, one _factor_terms call on an
    unchecked walk item (a prime stratum still builds a checked FactorSpec
    for each powered prime), then about N * sum(|x_f| / min_dim) kernel
    updates, a slot's add when dense and a dict update when sparse; for a
    prime stratum's tail, a sieve to 2N + 1, a few C-level maps per degree
    family and one slot's add per term of S.  A dense product holds at
    most three lists of N + 1 slots and makes its series from the nonzero
    slots; a sparse one from its dict.
    """
    plan = _plan(spec, N, backend)
    if plan.dense:
        return _dense_product(plan)
    p, exact = plan.grading, plan.backend == EXACT
    graded = p is not None  # keys are exponents of p: 1 = p^0, and d1 * d2 <= N is e1 + e2 <= top
    top = floor_log(N, p) if graded else None
    stop, unit = (top, 0) if graded else (N, 1)
    acc = {unit: 1 if exact else 0.0}
    sources = [unit]  # sorted keys of acc that the current factor can still reach
    for min_dim, f in plan.factors:
        x = _factor_terms(f, min_dim, N, plan.backend, top)
        bound = top - x[0][0] if graded else N // x[0][0]
        del sources[bisect_right(sources, bound):]
        fresh = _mul_into(acc, acc, reversed(sources), x, stop, exact, bound, graded)
        if fresh:
            sources += fresh
            sources.sort()
    return DirichletSeries(N, acc, plan.backend, p)


def _dense_product(plan: _Plan) -> DirichletSeries:
    """A dense plan's product (see truncated_zeta): a walk item's sources
    are the nonzero slots of acc up to N // (its least dimension), read off
    the list high to low by C-level compress; the tails', other than the
    unit source, read S's nonzero columns up to N // (the least of them)."""
    N = plan.N
    acc = [0] * (N + 1)
    acc[1] = 1
    for min_dim, f in plan.factors:
        x = _factor_terms(f, min_dim, N, EXACT)
        bound = N // x[0][0]
        _mul_into_list(acc, compress(range(bound, 0, -1), acc[bound:0:-1]), x, N)
    S = [0] * (N + 1)
    for tail in plan.tails:
        tail.add_terms(S, N)
    lo = next(compress(range(N + 1), S), None)
    if lo is not None:
        bound = N // lo
        k1s = list(compress(range(bound, 1, -1), acc[bound:1:-1]))
        hi = N // k1s[-1] if k1s else 0
        x = _Columns(list(compress(range(lo, hi + 1), S[lo:hi + 1])), list(filter(None, S[lo:hi + 1])))
        acc = list(map(add, acc, S))
        del S
        _mul_into_list(acc, k1s, x, N)
        del x
    return DirichletSeries(N, _Columns(tuple(compress(range(N + 1), acc)), tuple(filter(None, acc))))


def m_n(spec: GroupSpec, n: int):
    """Total multiplicity of simple factors with a nontrivial irreducible
    representation of dimension <= n.  Exact int when materializable; the
    natural log of the count otherwise."""
    return m_ns(spec, [n])[0]


def m_ns(spec: GroupSpec, ns: Iterable[int]) -> List:
    """[m_n(spec, n) for n in ns] from one walk of the contributions at
    max(ns).  Along every tower the minimal dimensions never decrease, so
    the contributions at n are the walk's factors of minimal dimension
    <= n.  Each count is an exact int while each multiplicity materializes,
    the natural log of the sum from the first that does not on."""
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise PreconditionError("n must be >= 1")
    walk = list(_contributions(spec, max(ns, default=1)))
    out = []
    for n in ns:
        total = 0
        for d, f in walk:
            if d > n:
                continue
            m = f.multiplicity
            if isinstance(total, int):
                try:
                    total += mult_to_int(m)
                    continue
                except OverflowError:
                    total = math.log(total) if total else float("-inf")
            total = _logaddexp(total, mult_log(m))
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# exact abscissa / PRG verdicts


@dataclass(frozen=True)
class RateSummary:
    """The abscissa of convergence: an exact rational, +infinity, or the
    finite-group marker, together with the per-stratum rates."""

    kind: str  # "rational" | "infinite" | "finite"
    abscissa: Optional[Fraction]
    per_stratum: Tuple[Tuple[str, str, Optional[Fraction]], ...]

    def to_jsonable(self) -> dict:
        if self.kind == "rational":
            absc = str(self.abscissa)
        else:
            absc = "finite-group" if self.kind == "finite" else "infinity"
        return {
            "abscissa": absc,
            "strata": [
                {"id": sid, "kind": k, "rate": None if r is None else str(r)}
                for sid, k, r in self.per_stratum
            ],
        }

    def to_csv(self) -> str:
        obj = self.to_jsonable()
        lines = ["stratum,kind,rate"]
        for row in obj["strata"]:
            lines.append(f"{row['id']},{row['kind']},{row['rate'] or ''}")
        lines.append(f"abscissa,,{obj['abscissa']}")
        return "\n".join(lines) + "\n"


def exact_abscissa(spec: GroupSpec) -> RateSummary:
    """Max of the stratum rates: geometric strata contribute
    max (c+m)/n over their pair set with c = lim f(j)/j, prime strata
    max (e+m+1)/n, finite strata only the finite-group marker."""
    per = tuple((s.id_str(),) + s.abscissa_rate() for s in spec.strata)
    kinds = {kind for _, kind, _ in per}
    if "infinite" in kinds:
        return RateSummary("infinite", None, per)
    if "rational" not in kinds:
        return RateSummary("finite", None, per)
    return RateSummary("rational", max(r for _, k, r in per if k == "rational"), per)


@dataclass(frozen=True)
class PrgVerdict:
    is_prg: bool
    witness_exponent: Optional[Fraction]  # b with m_n = O(n^b) when PRG
    witness_stratum: Optional[str]        # the diverging stratum otherwise
    per_stratum: Tuple[Tuple[str, Optional[Fraction]], ...]

    def to_jsonable(self) -> dict:
        return {
            "prg": self.is_prg,
            "witness_exponent": None
            if self.witness_exponent is None
            else str(self.witness_exponent),
            "witness_stratum": self.witness_stratum,
            "strata": [
                {"id": sid, "exponent": None if e is None else str(e)}
                for sid, e in self.per_stratum
            ],
        }


def prg_verdict(spec: GroupSpec) -> PrgVerdict:
    """PRG iff every stratum's factor-count exponent is finite: m_n grows
    like n^{c/n_min} on a geometric stratum and n^{(e+1)/n_min} on a prime
    stratum; finite strata are eventually constant (exponent 0)."""
    per = tuple((s.id_str(), s.count_exponent()) for s in spec.strata)
    witness = next((sid for sid, e in per if e is None), None)
    if witness is not None:
        return PrgVerdict(False, None, witness, per)
    return PrgVerdict(True, max([Fraction(0)] + [e for _, e in per]), None, per)


# ---------------------------------------------------------------------------
# empirical slopes


@dataclass(frozen=True)
class SlopePoint:
    n: int
    log10_R: float
    slope: float


@dataclass(frozen=True)
class SlopeReport:
    """Three columns, ns (the dimensions n >= 2), log10_Rs and slopes
    (ln R_n / ln n); `points` rebuilds their SlopePoints on each read."""
    N: int
    window: Tuple[int, int]
    ns: Tuple[int, ...]
    log10_Rs: Tuple[float, ...]
    slopes: Tuple[float, ...]
    windowed_max: float

    @property
    def points(self) -> Tuple[SlopePoint, ...]:
        return tuple(map(SlopePoint, self.ns, self.log10_Rs, self.slopes))

    def to_csv(self) -> str:
        """A header and one row per point, formed in one join with no
        other copy of the text."""
        rows = [f"{n},{lr:.6f},{s:.9f}\n" for n, lr, s in zip(self.ns, self.log10_Rs, self.slopes)]
        rows.insert(0, "n,R_n_log10,slope\n")
        return "".join(rows)

    def to_json(self) -> str:
        """json.dumps of {"N", "window", "windowed_max", "points": [[str(n),
        log10_R, slope], ...]} with indent=2 and sort_keys=True, byte for
        byte, written row by row instead of through the pure-Python encoder,
        each row with the separator before it, in one join as to_csv."""
        seps = itertools.chain(["[\n"], repeat(",\n"))
        rows = [
            f'{sep}    [\n      "{n}",\n      {lr!r},\n      {s!r}\n    ]'
            for sep, n, lr, s in zip(seps, self.ns, self.log10_Rs, self.slopes)
        ]
        lo, hi = self.window
        close = "\n  ]" if rows else "[]"
        rows.insert(0, f'{{\n  "N": {self.N},\n  "points": ')
        rows.append(
            f'{close},\n  "window": [\n    {lo},\n    {hi}\n  ],\n'
            f'  "windowed_max": {self.windowed_max!r}\n}}'
        )
        return "".join(rows)


def empirical_slope(spec: GroupSpec, N: int) -> SlopeReport:
    """Slope sequence log R_n / log n from the truncated series, plus the
    maximum over the window [sqrt(N), N].  Early dimensions are dominated by
    the smallest factor and bias the limsup proxy downward, hence the
    window.  R_n comes from truncated_zeta(spec, N) on its automatic
    backend: the exact count while every multiplicity has at most
    _MATERIALIZE_BITS bits, its logs taken as the prefix sums stream; past
    that the counts and their prefix sums are log-domain.  The columns are
    C-level maps over the prefix sums."""
    series = truncated_zeta(spec, N)
    dims = series.dims
    if series.backend == EXACT:
        lrs = list(map(math.log, itertools.accumulate(series.mults)))
    else:
        lrs = _log_prefix_sums(series.mults)
    # R_n is constant between dimensions, so ln R_n / ln n peaks over the
    # window [lo, N] at lo or at a dimension in it (dims[0] = 1 <= lo)
    lo = max(2, math.isqrt(N - 1) + 1)
    lr_lo = lrs[bisect_right(dims, lo) - 1]
    start = bisect_right(dims, 1)
    del lrs[:start]
    ns = tuple(itertools.islice(dims, start, None))
    slopes = tuple(map(truediv, lrs, map(math.log, ns)))
    # no slope is negative, as R_n >= R_1 = 1
    wmax = max(itertools.islice(slopes, bisect_left(ns, lo), None), default=0.0)
    if lo <= N and lr_lo > 0:
        wmax = max(wmax, lr_lo / math.log(lo))
    log10_Rs = tuple(map(truediv, lrs, itertools.repeat(math.log(10.0))))
    return SlopeReport(N, (lo, N), ns, log10_Rs, slopes, wmax)


# ---------------------------------------------------------------------------
# canned families


def sl2_over_primes_spec(d: int) -> GroupSpec:
    """The d-generated SL2-over-primes family: factors SL2(p)^{((p^3-p)/2)^{d-2}}
    over primes p >= 5, with PRG of degree exactly 3d - 4."""
    if d < 3:
        raise PreconditionError("the family needs d >= 3")
    return GroupSpec((PrimeStratum(5, d - 2, simple=False),))
