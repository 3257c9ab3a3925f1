"""Group specifications and their representation-growth computations.

A spec is a finite union of strata: explicit factor lists, geometric towers
S(q^j)^{q^{f(j)}}, prime-indexed SL2 towers, and materialized diagonal
constructions.  Exact abscissae come from rational rate data per stratum;
truncated series realize the same products numerically below a cutoff N and
are exact there because minimal nontrivial dimensions diverge within every
infinite stratum.  The exponent rules f(j) of geometric strata live here
too: PolyExponent, and the construction's Schedule f(j) = n0*k_j - m0*j.

Every stratum kind has the same five methods, so spec-level computations
are loops over strata and a new kind is one class plus one STRATUM_KINDS
entry: factors_below(bound), a (min_dim, factor) pair for each factor
whose minimal nontrivial degree min_dim is <= bound, min_dim being the
value the stratum's stop test computed, so no caller forms it again;
abscissa_rate(), (kind, rate) with kind "rational", "infinite" or
"finite"; count_exponent(), b with m_n = O(n^b), or None;
with_simple(simple), every factor in the simple or the cover view; and the
classmethod from_jsonable(obj, pointer), the inverse of to_jsonable.  The
two views differ on A1 factors alone: past A1 the model has no centre, so
its series, minimal degrees and counts do not read the flag.
"""
from __future__ import annotations

import itertools
import math
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .char_tables import a1_terms, primes_from, prime_power
from .dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    Multiplicity,
    _logaddexp,
    _mul_into,
    _power_terms,
    convolve,  # noqa: F401  unused here; kept so growth.convolve stays bound (bench/tests)
    mult_bits,
    mult_log,
    mult_to_int,
    power_one_plus,  # noqa: F401  unused here; kept bound for the same reason
)
from .errors import PreconditionError, SpecFormatError, fraction_field, int_field, int_list
from .lie_data import (
    A1,
    LieType,
    PairSet,
    canonical_pair_set,
    require_pair_set,
    tits_excluded,
    xi_terms,
)

LOG_THRESHOLD_BITS = 64.0  # multiplicities above 2^64 push work into the log backend
_MATERIALIZE_BITS = 256    # tower multiplicities stay plain ints while this small
MAX_POLY_COEFFS = 256      # _first_negative holds ~count^2/2 coefficients of size ~count!
# count * the longest coefficient's bit length: _first_negative bisects over
# [1, 2 + max|c_i| // lead] at every derivative level, so its time grows with
# both; the slowest accepted case measured on a 2-core machine,
# j^126 (j - 255) + 254 (128 coefficients of up to 8 bits), takes about 0.23 s
MAX_POLY_BITS = 1024


class TruncationWarning(UserWarning):
    """A truncated computation could not certify exactness below its cutoff."""


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
    is answered before any cut is formed.
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
        if _horner(f, a) < 0:
            return a
        if _horner(f, b) < 0:
            return _first_true(lambda j: _horner(f, j) < 0, a, b)
    return None


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


def _min_dim(
    lie_type: LieType,
    q: int,
    simple: bool,
    pairs: Optional[PairSet],
    e: int = 1,
    bound: Optional[int] = None,
) -> int:
    """Minimal nontrivial irreducible degree of S_lambda(q^e), or of its
    cover when not simple; pairs None means the canonical pair set.  That
    degree is at least (q^(e*n) - 1)/2 >= (2^(e*n) - 1)/2, for n = 1 on A1
    and the least pair exponent otherwise, so given a bound, a degree whose
    exponent e*n passes bound.bit_length() + 1 is returned as bound + 1
    without forming q^e or q^(e*n)."""
    a1 = lie_type == A1
    if not a1 and pairs is None:
        pairs = canonical_pair_set(lie_type)
    n = 1 if a1 else pairs.min_dim_exponent()
    if bound is not None and e * n > bound.bit_length() + 1:
        return bound + 1
    return _least_degree(a1, q ** e, simple, n)


def _least_degree(a1: bool, q: int, simple: bool, n: int) -> int:
    """_min_dim from the field size q itself: (q - 1) or (q +- 1)/2 on A1,
    q^n for the least pair exponent n otherwise."""
    if a1:
        if q % 2 == 0:
            return q - 1
        return (q + 1) // 2 if simple and q % 4 == 1 else (q - 1) // 2
    return q ** n


def _simple_flag(obj: dict, default: str, pointer: str) -> bool:
    """The JSON `flag` field: True for "simple", False for "cover"."""
    flag = obj.get("flag", default)
    if flag not in ("simple", "cover"):
        raise SpecFormatError(f"flag must be simple|cover, got {flag!r}", pointer + "/flag")
    return flag == "simple"


@dataclass(frozen=True)
class FactorSpec:
    """One quasi-simple factor S_lambda(q) or its cover, with multiplicity."""

    lie_type: LieType
    q: int
    simple: bool = True
    multiplicity: Multiplicity = 1
    pairs: Optional[PairSet] = None

    def __post_init__(self):
        if prime_power(self.q) is None:
            raise PreconditionError(f"q = {self.q} is not a prime power")
        if tits_excluded(self.lie_type, self.q):
            raise PreconditionError(
                f"{self.lie_type.label()}({self.q}) is Tits-excluded (not quasi-simple)"
            )
        if isinstance(self.multiplicity, int) and self.multiplicity < 1:
            raise PreconditionError("factor multiplicity must be >= 1")
        if self.pairs is not None:
            require_pair_set(self.pairs, self.lie_type)

    def pair_set(self) -> PairSet:
        return self.pairs if self.pairs is not None else canonical_pair_set(self.lie_type)

    def min_nontrivial_dim(self, bound: Optional[int] = None) -> int:
        """The least nontrivial degree; bound + 1 for one the exponent alone
        puts above a given bound (see _min_dim)."""
        return _min_dim(self.lie_type, self.q, self.simple, self.pairs, bound=bound)

    def x_terms(self, N: int, backend: str) -> List[Tuple[int, object]]:
        """The terms (dim, mult) of x_f = zeta_f - 1 at dims 2..N, sorted by
        dimension; natural-log multiplicities on the log backend."""
        if self.lie_type == A1:
            terms = [(d, m) for d, m in a1_terms(self.q, self.simple)[1:] if m and d <= N]
        else:
            terms = sorted(xi_terms(self.pair_set(), self.q, N).items())
        if backend == LOG:
            return [(d, math.log(m)) for d, m in terms]
        return terms

    def unit_series(self, N: int, backend: str) -> DirichletSeries:
        """The factor's zeta series (constant term included), one copy."""
        one = (1, 1 if backend == EXACT else 0.0)
        return DirichletSeries(N, [one] + self.x_terms(N, backend), backend)

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


@dataclass(frozen=True)
class FiniteStratum:
    factors: Tuple[FactorSpec, ...]

    def factors_below(self, bound: int) -> List[Tuple[int, FactorSpec]]:
        dims = ((f.min_nontrivial_dim(bound), f) for f in self.factors)
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
    """An infinite stratum: factors S(q_i)^{m_i} at the indices i of a tower
    whose field sizes q_i diverge, so every truncation has a finite exact
    horizon.  A subclass supplies the index sequence, the field size
    q_i = q^e (as the pair q, e) and the multiplicity at an index, and the
    growth constant c: the sum of m_i over q_i <= x grows like x^c (None
    when it outgrows every power)."""

    pairs: Optional[PairSet] = None

    def pair_set(self) -> PairSet:
        return self.pairs if self.pairs is not None else canonical_pair_set(self.lie_type)

    def factor_at(self, i: int) -> FactorSpec:
        q, e = self.field(i)
        return FactorSpec(self.lie_type, q ** e, self.simple, self.multiplicity(i), self.pairs)

    def min_dim_at(self, i: int, bound: Optional[int] = None) -> int:
        """The least nontrivial degree at index i; bound + 1 for one the
        exponents alone put above a given bound (see _min_dim)."""
        q, e = self.field(i)
        return _min_dim(self.lie_type, q, self.simple, self.pairs, e, bound)

    @staticmethod
    def _power(base: int, e: int) -> Multiplicity:
        """base**e, kept unexpanded once it passes _MATERIALIZE_BITS bits."""
        if e * math.log2(base) <= _MATERIALIZE_BITS:
            return base ** e
        return BigPower(base, e)

    def n_min(self) -> int:
        return self.pair_set().min_dim_exponent()

    def factors_below(self, bound: int) -> Iterator[Tuple[int, FactorSpec]]:
        """(min_dim_at(i, bound), factor_at(i)) along the indices while the
        degree is <= bound, from one field(i) per index: q^e is formed once
        and serves both."""
        a1 = self.lie_type == A1
        n = 1 if a1 else self.n_min()
        cap = bound.bit_length() + 1
        for i in self.indices():
            q, e = self.field(i)
            if e * n > cap:
                return
            q **= e
            d = _least_degree(a1, q, self.simple, n)
            if d > bound:
                return
            yield d, FactorSpec(self.lie_type, q, self.simple, self.multiplicity(i), self.pairs)

    def abscissa_rate(self) -> Tuple[str, Optional[Fraction]]:
        c = self.growth_constant()
        if c is None:
            return ("infinite", None)
        return ("rational", max(Fraction(c + m, n) for m, n in self.pair_set()))

    def count_exponent(self) -> Optional[Fraction]:
        c = self.growth_constant()
        return None if c is None else Fraction(c, self.n_min())

    def with_simple(self, simple: bool) -> "_Tower":
        return replace(self, simple=simple)


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

    def __post_init__(self):
        if self.q < 2 or prime_power(self.q) is None:
            raise PreconditionError(f"base field size {self.q} is not a prime power")
        if self.skip < 0:
            raise PreconditionError("skip must be >= 0")
        if self.pairs is not None:
            require_pair_set(self.pairs, self.lie_type)
        # Tits exclusions have field size 2 or 3, so only the first factor
        # S(q) of an unskipped tower can be one; q^(skip+1) >= 4 otherwise
        if self.skip == 0 and tits_excluded(self.lie_type, self.q):
            raise PreconditionError(
                f"first factor {self.lie_type.label()}({self.q}) is Tits-excluded; "
                "bump q or the skip prefix"
            )

    def indices(self) -> Iterator[int]:
        return itertools.count(self.skip + 1)

    def field(self, j: int) -> Tuple[int, int]:
        return self.q, j

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
        if self.p_min < 5:
            raise PreconditionError("p_min must be >= 5 (SL2(2), SL2(3) are excluded)")
        if self.mult_exponent < 0:
            raise PreconditionError("multiplicity exponent must be >= 0")

    lie_type = A1

    def factors_below(self, bound: int) -> Iterator[Tuple[int, FactorSpec]]:
        # every prime p >= p_min has minimal dimension >= (p_min - 1) // 2, so
        # a p_min far above the bound needs no sieve window at all
        if (self.p_min - 1) // 2 > bound:
            return iter(())
        return super().factors_below(bound)

    def rate_exponent(self) -> int:
        return 3 * self.mult_exponent

    def indices(self) -> Iterator[int]:
        return primes_from(self.p_min)

    def field(self, p: int) -> Tuple[int, int]:
        return p, 1

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
        p_min = int_field(obj, "p_min", pointer, 5)
        return cls(p_min, e // 3, _simple_flag(obj, "cover", pointer))


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

    def factors_below(self, bound: int) -> Iterator[Tuple[int, FactorSpec]]:
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


def _contributions(spec: GroupSpec, bound: int) -> Iterator[Tuple[int, FactorSpec]]:
    """(min_dim, factor) for the factors whose minimal nontrivial dimension
    min_dim is <= bound.  Within every stratum the minimal dimensions
    diverge, so this is a finite, exact set (a TruncationWarning is issued
    where that cannot be certified)."""
    for s in spec.strata:
        yield from s.factors_below(bound)


def truncated_zeta(
    spec: GroupSpec,
    N: int,
    *,
    backend: Optional[str] = None,
) -> DirichletSeries:
    """Dirichlet product over every factor that contributes below N.

    The backend is chosen automatically: once any factor multiplicity
    exceeds LOG_THRESHOLD_BITS (2^64), the whole computation runs in the
    log domain; the exact backend is never silently degraded.

    Each factor's powered series is 1 + x_f with x_f on dims >= 2, and the
    product is accumulated in place in one dict keyed by dimension: factors
    sorted stably by minimal nontrivial dimension (where x_f starts), ties
    kept in enumeration order, and for each one every source
    d1 <= N // min_dim(x_f), high to low, adds acc[d1] * m2 into
    acc[d1 * d2].  Targets exceed their sources, so no source is updated
    before it is read.  The fixed order keeps log-domain output
    deterministic.  Each factor's terms are formed, applied and dropped
    before the next factor's; only the factor list is held throughout,
    since the automatic backend reads every multiplicity before the first
    update and the order spans strata.

    Cost: per factor, one validation (FactorSpec's checks, prime_power
    among them), its terms x_f from a closed form (A1, filtered in one pass
    with no mass identity summed) or the pair set, and one binomial times
    each of them, with no per-factor series; its minimal dimension comes
    with it from factors_below, which forms a tower index's field size once
    for both.  A factor with a power x_f^k, k >= 2 and min_dim^k <= N (none
    once min_dim^2 > N, as for every prime p > 2 sqrt(N) + 1 in the
    SL2-over-primes family) forms each such power as one term, with no
    series, when x_f has one term at dims <= N (as on a one-pair set), and
    otherwise (the A1 degrees) adds one series for x_f and one convolve per
    such power.  Then about N * sum(|x_f| / min_dim(x_f)) dict updates for
    the product, for dense and sparse (huge-N) cutoffs alike, each a
    multiply-add or, on the log backend, a log-add written out in line
    with no call.  Every one of them, in the binomial sums and in convolve
    too, runs through one kernel, dirichlet._mul_into; the result series is
    made from the accumulator dict with no merged copy on the exact
    backend.
    """
    if N < 1:
        raise PreconditionError("N must be >= 1")
    if backend not in (None, EXACT, LOG):
        raise PreconditionError(f"unknown backend {backend!r}")
    factors = list(_contributions(spec, N))
    if backend is None:
        big = any(mult_bits(f.multiplicity) > LOG_THRESHOLD_BITS for _, f in factors)
        backend = LOG if big else EXACT
    exact = backend == EXACT
    factors.sort(key=itemgetter(0))

    acc = {1: 1 if exact else 0.0}
    sources = [1]  # sorted keys of acc that the current factor can still reach
    for _, f in factors:
        x = _power_terms(f.x_terms(N, backend), f.multiplicity, N, backend)
        bound = N // x[0][0]
        del sources[bisect_right(sources, bound):]
        fresh = _mul_into(acc, acc, reversed(sources), x, N, exact, bound)
        if fresh:
            sources += fresh
            sources.sort()
    return DirichletSeries(N, acc, backend)


def m_n(spec: GroupSpec, n: int):
    """Total multiplicity of simple factors with a nontrivial irreducible
    representation of dimension <= n.  Exact int when materializable; the
    natural log of the count otherwise."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
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
    N: int
    window: Tuple[int, int]
    points: Tuple[SlopePoint, ...]
    windowed_max: float

    def to_csv(self) -> str:
        lines = ["n,R_n_log10,slope"]
        for p in self.points:
            lines.append(f"{p.n},{p.log10_R:.6f},{p.slope:.9f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """json.dumps of {"N", "window", "windowed_max", "points": [[str(n),
        log10_R, slope], ...]} with indent=2 and sort_keys=True, byte for
        byte, written row by row instead of through the pure-Python encoder."""
        rows = [
            f'    [\n      "{p.n}",\n      {p.log10_R!r},\n      {p.slope!r}\n    ]'
            for p in self.points
        ]
        points = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        lo, hi = self.window
        return (
            f'{{\n  "N": {self.N},\n  "points": {points},\n  "window": [\n    {lo},\n'
            f'    {hi}\n  ],\n  "windowed_max": {self.windowed_max!r}\n}}'
        )


def empirical_slope(spec: GroupSpec, N: int) -> SlopeReport:
    """Slope sequence log R_n / log n from the truncated series (log-domain
    counts), plus the maximum over the window [sqrt(N), N].  Early
    dimensions are dominated by the smallest factor and bias the limsup
    proxy downward, hence the window."""
    series = truncated_zeta(spec, N, backend=LOG)
    dims = series.dims
    prefix = list(itertools.accumulate(series.mults, _logaddexp))
    points = []
    for i, d in enumerate(dims):
        if d < 2:
            continue
        lr = prefix[i]
        points.append(SlopePoint(d, lr / math.log(10.0), lr / math.log(d)))
    # R_n is constant between dimensions, so ln R_n / ln n peaks over the
    # window [lo, N] at lo or at a dimension in it (dims[0] = 1 <= lo)
    lo = max(2, math.isqrt(N - 1) + 1)
    wmax = max([0.0] + [p.slope for p in points if p.n >= lo])
    lr = prefix[bisect_right(dims, lo) - 1]
    if lo <= N and lr > 0:
        wmax = max(wmax, lr / math.log(lo))
    return SlopeReport(N, (lo, N), tuple(points), wmax)


# ---------------------------------------------------------------------------
# canned families


def sl2_over_primes_spec(d: int) -> GroupSpec:
    """The d-generated SL2-over-primes family: factors SL2(p)^{((p^3-p)/2)^{d-2}}
    over primes p >= 5, with PRG of degree exactly 3d - 4."""
    if d < 3:
        raise PreconditionError("the family needs d >= 3")
    return GroupSpec((PrimeStratum(5, d - 2, simple=False),))
