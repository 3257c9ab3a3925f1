"""Group specifications and their representation-growth computations.

A spec is a finite union of strata: explicit factor lists, geometric towers
S(q^j)^{q^{f(j)}}, prime-indexed SL2 towers, and materialized diagonal
constructions.  Exact abscissae come from rational rate data per stratum;
truncated series realize the same products numerically below a cutoff N and
are exact there because minimal nontrivial dimensions diverge within every
infinite stratum.

Every stratum kind has the same five methods, so spec-level computations
are loops over strata and a new kind is one class plus one STRATUM_KINDS
entry: factors_below(bound, J), the factors with a nontrivial irreducible of
dimension <= bound; abscissa_rate(), (kind, rate) with kind "rational",
"infinite" or "finite"; count_exponent(), b with m_n = O(n^b), or None;
with_simple(simple), every factor in the simple or the cover view; and the
classmethod from_jsonable(obj, pointer), the inverse of to_jsonable.
"""
from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .char_tables import a1_degrees, primes_from, prime_power
from .dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    Multiplicity,
    _logaddexp,
    _power_terms,
    convolve,  # noqa: F401  unused here; kept so growth.convolve stays bound (bench/tests)
    evaluate,
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
_MATERIALIZE_BITS = 256    # q^f kept as a plain int while it stays this small


class TruncationWarning(UserWarning):
    """A truncated computation could not certify exactness below its cutoff."""


# ---------------------------------------------------------------------------
# exponent rules for geometric strata


@dataclass(frozen=True)
class PolyExponent:
    """f(j) as an integer polynomial; degree >= 2 means superlinear
    multiplicity growth (the spec's NotPRG witness shape)."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise PreconditionError("empty coefficient list")
        lead = max((i for i, c in enumerate(self.coeffs) if c != 0), default=0)
        if lead > 0 and self.coeffs[lead] < 0:
            raise PreconditionError("leading coefficient must be positive")
        for j in range(1, 10_001):
            if self.f(j) < 0:
                raise PreconditionError(f"f({j}) < 0")

    def f(self, j: int) -> int:
        return sum(c * j ** i for i, c in enumerate(self.coeffs))

    def rate(self) -> Optional[Fraction]:
        deg = max((i for i, c in enumerate(self.coeffs) if c != 0), default=0)
        if deg <= 1:
            return Fraction(self.coeffs[1] if len(self.coeffs) > 1 else 0)
        return None  # superlinear: the tower's abscissa diverges

    def to_jsonable(self) -> dict:
        return {"kind": "poly", "coeffs": list(self.coeffs)}


def exponent_rule_from_jsonable(obj: dict, pointer: str = ""):
    kind = obj.get("kind")
    if kind == "poly":
        return PolyExponent(int_list(obj["coeffs"], pointer + "/coeffs"))
    if kind == "schedule":
        from .constructor import Schedule  # deferred: constructor imports growth

        return Schedule.from_jsonable(obj, pointer)
    raise SpecFormatError(f"unknown schedule kind {kind!r}", pointer)


# ---------------------------------------------------------------------------
# factors and strata


def _min_dim(lie_type: LieType, q: int, simple: bool, pairs: Optional[PairSet]) -> int:
    """Minimal nontrivial irreducible degree of S_lambda(q), or of its cover
    when not simple; pairs None means the canonical pair set."""
    if lie_type == A1:
        if q % 2 == 0:
            return q - 1
        return (q + 1) // 2 if simple and q % 4 == 1 else (q - 1) // 2
    if pairs is None:
        pairs = canonical_pair_set(lie_type)
    return q ** pairs.min_dim_exponent()


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

    def min_nontrivial_dim(self) -> int:
        return _min_dim(self.lie_type, self.q, self.simple, self.pairs)

    def x_terms(self, N: int, backend: str) -> List[Tuple[int, object]]:
        """The terms (dim, mult) of x_f = zeta_f - 1 at dims 2..N, sorted by
        dimension; natural-log multiplicities on the log backend."""
        if self.lie_type == A1:
            terms = [(d, m) for d, m in a1_degrees(self.q, self.simple)[1:] if d <= N]
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
        simple = _simple_flag(obj, "simple", pointer)
        try:
            return cls(lt, q, simple, mult, pairs)
        except PreconditionError as e:
            raise SpecFormatError(str(e), pointer)


@dataclass(frozen=True)
class FiniteStratum:
    factors: Tuple[FactorSpec, ...]

    def factors_below(self, bound: int, J: Optional[int]) -> List[FactorSpec]:
        return [f for f in self.factors if f.min_nontrivial_dim() <= bound]

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
    horizon.  A subclass supplies the (position, index) sequence, where J
    caps the position, the field size and multiplicity at an index, and the
    growth constant c: the sum of m_i over q_i <= x grows like x^c (None
    when it outgrows every power)."""

    pairs: Optional[PairSet] = None

    def pair_set(self) -> PairSet:
        return self.pairs if self.pairs is not None else canonical_pair_set(self.lie_type)

    def factor_at(self, i: int) -> FactorSpec:
        return FactorSpec(
            self.lie_type, self.field_size(i), self.simple, self.multiplicity(i), self.pairs
        )

    def min_dim_at(self, i: int) -> int:
        return _min_dim(self.lie_type, self.field_size(i), self.simple, self.pairs)

    def n_min(self) -> int:
        return self.pair_set().min_dim_exponent()

    def factors_below(self, bound: int, J: Optional[int]) -> Iterator[FactorSpec]:
        for k, i in self.positions():
            if self.min_dim_at(i) > bound:
                return
            if J is not None and k > J:
                warnings.warn(
                    f"{self.id_str()}: horizon J={J} truncates below the exact horizon; "
                    f"entries <= {bound} may be incomplete",
                    TruncationWarning,
                    stacklevel=4,  # past _contributions to the caller of truncated_zeta
                )
                return
            yield self.factor_at(i)

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

    def positions(self) -> Iterator[Tuple[int, int]]:
        return ((j, j) for j in itertools.count(self.skip + 1))

    def field_size(self, j: int) -> int:
        return self.q ** j

    def multiplicity(self, j: int) -> Multiplicity:
        f = self.exponents.f(j)
        if f < 0:  # a PolyExponent checks f only up to j = 10^4
            raise PreconditionError(f"{self.id_str()}: f({j}) = {f} < 0")
        if f == 0:
            return 1
        if f * math.log2(self.q) <= _MATERIALIZE_BITS:
            return self.q ** f
        return BigPower(self.q, f)

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

    def factors_below(self, bound: int, J: Optional[int]) -> Iterator[FactorSpec]:
        # every prime p >= p_min has minimal dimension >= (p_min - 1) // 2, so
        # a p_min far above the bound needs no sieve window at all
        if (self.p_min - 1) // 2 > bound:
            return iter(())
        return super().factors_below(bound, J)

    def rate_exponent(self) -> int:
        return 3 * self.mult_exponent

    def positions(self) -> Iterator[Tuple[int, int]]:
        return enumerate(primes_from(self.p_min), start=1)

    def field_size(self, p: int) -> int:
        return p

    def multiplicity(self, p: int) -> int:
        return ((p ** 3 - p) // 2) ** self.mult_exponent

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
    checkpoint, so truncations are exact up to stages[-1].n_m."""

    rho: Fraction
    stages: Tuple[DiagonalStage, ...]

    def exact_horizon(self) -> int:
        return self.stages[-1].n_m if self.stages else 1

    def factors_below(self, bound: int, J: Optional[int]) -> Iterator[FactorSpec]:
        # not a generator: the stage walkers then run right under
        # _contributions, as any tower's does, so their stacklevel holds
        if bound > self.exact_horizon():
            warnings.warn(
                f"{self.id_str()}: truncation {bound} exceeds the materialized horizon "
                f"{self.exact_horizon()}; unbuilt stages could contribute above it",
                TruncationWarning,
                stacklevel=4,  # past _contributions to the caller of truncated_zeta
            )
        return itertools.chain.from_iterable(
            st.stratum.factors_below(bound, J) for st in self.stages
        )

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

    def union(self, other: "GroupSpec") -> "GroupSpec":
        return GroupSpec(self.strata + other.strata)

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


def _contributions(spec: GroupSpec, bound: int, J: Optional[int] = None) -> Iterator[FactorSpec]:
    """Factors whose minimal nontrivial dimension is <= bound.  Within every
    stratum the minimal dimensions diverge, so this is a finite, exact set
    (a TruncationWarning is issued where that cannot be certified)."""
    for s in spec.strata:
        yield from s.factors_below(bound, J)


def truncated_zeta(
    spec: GroupSpec,
    N: int,
    J: Optional[int] = None,
    backend: Optional[str] = None,
) -> DirichletSeries:
    """Dirichlet product over every factor that contributes below N.

    The backend is chosen automatically: once any factor multiplicity
    exceeds LOG_THRESHOLD_BITS (2^64), the whole computation runs in the
    log domain; the exact backend is never silently degraded.

    Each factor's powered series is 1 + x_f with x_f on dims >= 2, and the
    product is accumulated in place in one dict keyed by dimension: factors
    taken by (min dim of x_f, enumeration order), and for each one every
    source d1 <= N // min_dim(x_f), high to low, adds acc[d1] * m2 into
    acc[d1 * d2].  Targets exceed their sources, so no source is updated
    before it is read.  The fixed order keeps log-domain output
    deterministic.

    Cost: per factor, one validation (FactorSpec's checks), its terms x_f
    from a closed form (A1) or the pair set, and one binomial times each of
    them, with no per-factor series; a factor with a power x_f^k, k >= 2
    and min_dim^k <= N (none once min_dim^2 > N, as for every prime
    p > 2 sqrt(N) + 1 in the SL2-over-primes family) adds one series for
    x_f and one convolve per such power.  Then about
    N * sum(|x_f| / min_dim(x_f)) dict updates for the product, for dense
    and sparse (huge-N) cutoffs alike.
    """
    if N < 1 or (J is not None and J < 1):
        raise PreconditionError("N and J must be >= 1")
    factors = list(_contributions(spec, N, J))
    if backend is None:
        big = any(mult_bits(f.multiplicity) > LOG_THRESHOLD_BITS for f in factors)
        backend = LOG if big else EXACT
    exact = backend == EXACT

    terms = []
    for i, f in enumerate(factors):
        x = _power_terms(f.x_terms(N, backend), f.multiplicity, N, backend)
        if x:
            terms.append((x[0][0], i, x))
    terms.sort(key=lambda t: t[:2])

    acc = {1: 1 if exact else 0.0}
    sources = [1]  # sorted keys of acc that the current factor can still reach
    for min_dim, _, x in terms:
        bound = N // min_dim
        del sources[bisect_right(sources, bound):]
        fresh = []
        for d1 in reversed(sources):
            m1 = acc[d1]
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
    total = 0  # the natural log of the count once a multiplicity overflows
    for f in _contributions(spec, n):
        m = f.multiplicity
        if isinstance(total, int):
            try:
                total += mult_to_int(m)
                continue
            except OverflowError:
                total = math.log(total) if total else float("-inf")
        total = _logaddexp(total, mult_log(m))
    return total


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


def empirical_slope(spec: GroupSpec, N: int, J: Optional[int] = None) -> SlopeReport:
    """Slope sequence log R_n / log n from the truncated series (log-domain
    counts), plus the maximum over the window [sqrt(N), N].  Early
    dimensions are dominated by the smallest factor and bias the limsup
    proxy downward, hence the window."""
    series = truncated_zeta(spec, N, J, backend=LOG)
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
# the ~_C comparison


@dataclass(frozen=True)
class SimCPoint:
    label: str
    ok_fg: bool
    margin_fg: float
    ok_gf: bool
    margin_gf: float

    @property
    def ok(self) -> bool:
        return self.ok_fg and self.ok_gf


@dataclass(frozen=True)
class SimCReport:
    passed: bool
    C: float
    points: Tuple[SimCPoint, ...]

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "C": self.C,
            "points": [
                {
                    "at": p.label,
                    "ok": p.ok,
                    "margin_fg": p.margin_fg,
                    "margin_gf": p.margin_gf,
                }
                for p in self.points
            ],
        }


def _min_term(s: DirichletSeries) -> Tuple[float, float]:
    """(ln mult, ln dim) of the minimal-dimension term."""
    d = s.dims[0]
    m = s.mults[0]
    lm = m if s.backend == LOG else math.log(m)
    return lm, math.log(d)


def sim_C_check(
    f: DirichletSeries,
    g: DirichletSeries,
    C: float,
    grid: Sequence[float],
    probe_sigma: float = 16.0,
) -> SimCReport:
    """Check f(s) <= C^{1+s} g(s) and the reverse at each grid sigma, plus
    the two asymptotic regimes: at sigma -> 0+ the inequalities reduce to
    the total masses (within factor C), and at sigma -> infinity to the
    minimal dimensions with their multiplicities, probed at a large finite
    exponent (default 16).  A pass certifies the relation on the grid and
    these regime probes only; margins are reported per point."""
    if C < 1:
        raise PreconditionError("C must be >= 1")
    if not f or not g:
        raise PreconditionError("both series must be nonzero")
    lC = math.log(C)
    points: List[SimCPoint] = []

    def cap_exp(x: float) -> float:
        if x > 700.0:
            return float("inf")
        return math.exp(x) if x > -745.0 else 0.0

    def add(label: str, lf: float, lg: float, slack: float):
        # inequality in logs: lf <= slack + lg (and symmetrically)
        diff_fg = slack + lg - lf
        diff_gf = slack + lf - lg
        points.append(
            SimCPoint(label, diff_fg >= 0.0, cap_exp(diff_fg), diff_gf >= 0.0, cap_exp(diff_gf))
        )

    for sigma in grid:
        lf = math.log(evaluate(f, sigma))
        lg = math.log(evaluate(g, sigma))
        add(f"sigma={sigma}", lf, lg, (1.0 + sigma) * lC)

    mf, mg = f.total_mass(), g.total_mass()
    lmf = mf if f.backend == LOG else math.log(mf)
    lmg = mg if g.backend == LOG else math.log(mg)
    add("sigma->0+ (total masses)", lmf, lmg, lC)

    (lmin_f, ldim_f) = _min_term(f)
    (lmin_g, ldim_g) = _min_term(g)
    add(
        f"sigma->inf (min dims, probe {probe_sigma})",
        lmin_f - probe_sigma * ldim_f,
        lmin_g - probe_sigma * ldim_g,
        (1.0 + probe_sigma) * lC,
    )
    return SimCReport(all(p.ok for p in points), float(C), tuple(points))


# ---------------------------------------------------------------------------
# cover vs quotient multiplicity counts


@dataclass(frozen=True)
class CoverMnReport:
    n: int
    m_simple_at_n_squared: object
    m_cover_at_n: object
    passed: bool


def cover_mn_comparison(spec: GroupSpec, n: int) -> CoverMnReport:
    """m_{n^2} of the simple view must dominate m_n of the cover view (each
    cover character of degree d yields a simple-quotient character of degree
    at most d^2 - 1)."""
    lhs = m_n(with_flag(spec, simple=True), n * n)
    rhs = m_n(with_flag(spec, simple=False), n)
    if isinstance(lhs, float) or isinstance(rhs, float):
        ok = float(lhs if isinstance(lhs, float) else math.log(max(lhs, 1))) >= float(
            rhs if isinstance(rhs, float) else math.log(max(rhs, 1))
        )
    else:
        ok = lhs >= rhs
    return CoverMnReport(n, lhs, rhs, ok)


# ---------------------------------------------------------------------------
# canned families


def sl2_over_primes_spec(d: int) -> GroupSpec:
    """The d-generated SL2-over-primes family: factors SL2(p)^{((p^3-p)/2)^{d-2}}
    over primes p >= 5, with PRG of degree exactly 3d - 4."""
    if d < 3:
        raise PreconditionError("the family needs d >= 3")
    return GroupSpec((PrimeStratum(5, d - 2, simple=False),))
