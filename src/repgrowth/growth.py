"""Group specifications and their representation-growth computations.

A spec is a finite union of strata: explicit factor lists, geometric towers
S(q^j)^{q^{f(j)}}, prime-indexed SL2 towers, and materialized diagonal
constructions.  Exact abscissae come from rational rate data per stratum;
truncated series realize the same products numerically below a cutoff N and
are exact there because minimal nontrivial dimensions diverge within every
infinite stratum.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .char_tables import primes_from, prime_power, psl2_table, sl2_table, zeta_series
from .dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    Multiplicity,
    _logaddexp,
    _logsumexp,
    convolve,  # noqa: F401  unused here; kept so growth.convolve stays bound (bench/tests)
    evaluate,
    mult_bits,
    mult_log,
    mult_to_int,
    power_one_plus,
)
from .errors import PreconditionError, SpecFormatError
from .lie_data import (
    LieType,
    PairSet,
    canonical_pair_set,
    model_xi,
    tits_excluded,
    validate_pair_set,
)

LOG_THRESHOLD_BITS = 64.0  # multiplicities above 2^64 push work into the log backend
_MATERIALIZE_BITS = 256    # q^f kept as a plain int while it stays this small


class TruncationWarning(UserWarning):
    """A truncated computation could not certify exactness below its cutoff."""


def _fraction_str(x: Fraction) -> str:
    return str(x)


def _parse_fraction(text, pointer: str = "") -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise SpecFormatError(f"not a rational: {text!r}", pointer)


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
        return PolyExponent(tuple(int(c) for c in obj["coeffs"]))
    if kind == "schedule":
        from .constructor import Schedule  # deferred: constructor imports growth

        return Schedule.from_jsonable(obj, pointer)
    raise SpecFormatError(f"unknown schedule kind {kind!r}", pointer)


# ---------------------------------------------------------------------------
# factors and strata


def _a1_min_degree(q: int, simple: bool) -> int:
    if q % 2 == 0:
        return q - 1
    if not simple:
        return (q - 1) // 2
    return (q + 1) // 2 if q % 4 == 1 else (q - 1) // 2


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
            report = validate_pair_set(self.pairs, self.lie_type)
            if not report.ok:
                raise PreconditionError(f"pair set rejected: {report.violations}")

    def is_a1(self) -> bool:
        return self.lie_type.family == "A" and self.lie_type.rank == 1

    def pair_set(self) -> PairSet:
        return self.pairs if self.pairs is not None else canonical_pair_set(self.lie_type)

    def min_nontrivial_dim(self) -> int:
        if self.is_a1():
            return _a1_min_degree(self.q, self.simple)
        return self.q ** self.pair_set().min_dim_exponent()

    def unit_series(self, N: int, backend: str) -> DirichletSeries:
        """The factor's zeta series (constant term included), one copy."""
        if self.is_a1():
            table = sl2_table(self.q) if not self.simple else psl2_table(self.q)
            return zeta_series(table, N, backend)
        xi = model_xi(self.pair_set(), self.q, N, EXACT)
        one = DirichletSeries(N, {1: 1}, EXACT)
        s = DirichletSeries(N, list(one.items()) + list(xi.items()), EXACT)
        return s.to_log() if backend == LOG else s

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
        if "q" not in obj:
            raise SpecFormatError("missing q", pointer)
        mult = obj.get("multiplicity", 1)
        if isinstance(mult, dict):
            mult = BigPower(int(mult["base"]), int(mult["exponent"]))
        else:
            mult = int(mult)
        pairs = None
        if "pairs" in obj:
            pairs = PairSet.from_jsonable(obj["pairs"], pointer + "/pairs")
        flag = obj.get("flag", "simple")
        if flag not in ("simple", "cover"):
            raise SpecFormatError(f"flag must be simple|cover, got {flag!r}", pointer + "/flag")
        try:
            return cls(lt, int(obj["q"]), flag == "simple", mult, pairs)
        except PreconditionError as e:
            raise SpecFormatError(str(e), pointer)


@dataclass(frozen=True)
class FiniteStratum:
    factors: Tuple[FactorSpec, ...]

    def id_str(self) -> str:
        return f"finite[{len(self.factors)}]"

    def to_jsonable(self) -> dict:
        return {"index": "finite", "factors": [f.to_jsonable() for f in self.factors]}


@dataclass(frozen=True)
class GeometricStratum:
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
            report = validate_pair_set(self.pairs, self.lie_type)
            if not report.ok:
                raise PreconditionError(f"pair set rejected: {report.violations}")
        first = self.q ** (self.skip + 1)
        if tits_excluded(self.lie_type, first):
            raise PreconditionError(
                f"first factor {self.lie_type.label()}({first}) is Tits-excluded; "
                "bump q or the skip prefix"
            )

    def pair_set(self) -> PairSet:
        return self.pairs if self.pairs is not None else canonical_pair_set(self.lie_type)

    def _multiplicity(self, j: int) -> Multiplicity:
        f = self.exponents.f(j)
        if f == 0:
            return 1
        if f * math.log2(self.q) <= _MATERIALIZE_BITS:
            return self.q ** f
        return BigPower(self.q, f)

    def factor_at(self, j: int) -> FactorSpec:
        return FactorSpec(
            self.lie_type, self.q ** j, self.simple, self._multiplicity(j), self.pairs
        )

    def min_dim_at(self, j: int) -> int:
        if self.lie_type.family == "A" and self.lie_type.rank == 1:
            return _a1_min_degree(self.q ** j, self.simple)
        return (self.q ** j) ** self.pair_set().min_dim_exponent()

    def n_min(self) -> int:
        if self.lie_type.family == "A" and self.lie_type.rank == 1:
            return 1
        return self.pair_set().min_dim_exponent()

    def rate(self) -> Optional[Fraction]:
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


@dataclass(frozen=True)
class PrimeStratum:
    """The prime-indexed A1 family: SL2(p)^{((p^3-p)/2)^E} over primes
    p >= p_min.  Multiplicities grow like p^{3E} (the rate exponent)."""

    p_min: int = 5
    mult_exponent: int = 1
    simple: bool = False  # cover view by default: factors SL2(p), not PSL2(p)

    def __post_init__(self):
        if self.p_min < 5:
            raise PreconditionError("p_min must be >= 5 (SL2(2), SL2(3) are excluded)")
        if self.mult_exponent < 0:
            raise PreconditionError("multiplicity exponent must be >= 0")

    lie_type = LieType("A", 1)

    def rate_exponent(self) -> int:
        return 3 * self.mult_exponent

    def multiplicity(self, p: int) -> int:
        return ((p ** 3 - p) // 2) ** self.mult_exponent

    def factor_at(self, p: int) -> FactorSpec:
        return FactorSpec(self.lie_type, p, self.simple, self.multiplicity(p))

    def min_dim_at(self, p: int) -> int:
        return _a1_min_degree(p, self.simple)

    def n_min(self) -> int:
        return 1

    def pair_set(self) -> PairSet:
        return canonical_pair_set(self.lie_type)

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


@dataclass(frozen=True)
class DiagonalStage:
    rho_m: Fraction
    stratum: GeometricStratum
    n_m: int

    def to_jsonable(self) -> dict:
        return {
            "rho_m": _fraction_str(self.rho_m),
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

    def rate(self) -> Fraction:
        return self.rho

    def id_str(self) -> str:
        return f"diagonal(rho={self.rho})"

    def to_jsonable(self) -> dict:
        return {
            "index": "diagonal",
            "rho": _fraction_str(self.rho),
            "stages": [s.to_jsonable() for s in self.stages],
        }


Stratum = Union[FiniteStratum, GeometricStratum, PrimeStratum, DiagonalStratum]


@dataclass(frozen=True)
class GroupSpec:
    strata: Tuple[Stratum, ...]

    def union(self, other: "GroupSpec") -> "GroupSpec":
        return GroupSpec(self.strata + other.strata)

    def to_jsonable(self) -> dict:
        return {"strata": [s.to_jsonable() for s in self.strata]}

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "GroupSpec":
        if not isinstance(obj, dict) or "strata" not in obj:
            raise SpecFormatError("spec must be an object with a 'strata' list", pointer)
        strata: List[Stratum] = []
        for i, sobj in enumerate(obj["strata"]):
            ptr = f"{pointer}/strata/{i}"
            index = sobj.get("index")
            if index == "finite":
                factors = tuple(
                    FactorSpec.from_jsonable(f, f"{ptr}/factors/{k}")
                    for k, f in enumerate(sobj.get("factors", []))
                )
                strata.append(FiniteStratum(factors))
            elif index == "geometric":
                lt = LieType.from_jsonable(sobj.get("lie_type", {}), ptr + "/lie_type")
                rule = exponent_rule_from_jsonable(sobj.get("schedule", {}), ptr + "/schedule")
                pairs = (
                    PairSet.from_jsonable(sobj["pairs"], ptr + "/pairs")
                    if "pairs" in sobj
                    else None
                )
                try:
                    strata.append(
                        GeometricStratum(
                            lt,
                            int(sobj["q"]),
                            rule,
                            sobj.get("flag", "simple") == "simple",
                            pairs,
                            int(sobj.get("skip", 0)),
                        )
                    )
                except KeyError as e:
                    raise SpecFormatError(f"missing field {e}", ptr)
            elif index == "primes":
                e = int(sobj.get("rate_exponent", 3))
                if e % 3 != 0 or e < 0:
                    raise SpecFormatError(
                        "rate_exponent must be 3*E for the A1 prime family", ptr + "/rate_exponent"
                    )
                strata.append(
                    PrimeStratum(
                        int(sobj.get("p_min", 5)),
                        e // 3,
                        sobj.get("flag", "cover") == "simple",
                    )
                )
            elif index == "diagonal":
                rho = _parse_fraction(sobj.get("rho"), ptr + "/rho")
                stages = []
                for k, st in enumerate(sobj.get("stages", [])):
                    sp = f"{ptr}/stages/{k}"
                    sub = cls.from_jsonable({"strata": [st["stratum"]]}, sp).strata[0]
                    if not isinstance(sub, GeometricStratum):
                        raise SpecFormatError("diagonal stages must be geometric strata", sp)
                    stages.append(
                        DiagonalStage(
                            _parse_fraction(st.get("rho_m"), sp + "/rho_m"),
                            sub,
                            int(st["n_m"]),
                        )
                    )
                strata.append(DiagonalStratum(rho, tuple(stages)))
            else:
                raise SpecFormatError(f"unknown stratum index {index!r}", ptr + "/index")
        return cls(tuple(strata))


def with_flag(spec: GroupSpec, simple: bool) -> GroupSpec:
    """The same spec with every factor forced to the simple quotient or the
    cover view (the G vs G-tilde comparison)."""
    out: List[Stratum] = []
    for s in spec.strata:
        if isinstance(s, FiniteStratum):
            out.append(FiniteStratum(tuple(replace(f, simple=simple) for f in s.factors)))
        elif isinstance(s, GeometricStratum):
            out.append(replace(s, simple=simple))
        elif isinstance(s, PrimeStratum):
            out.append(replace(s, simple=simple))
        else:
            out.append(
                DiagonalStratum(
                    s.rho,
                    tuple(
                        DiagonalStage(st.rho_m, replace(st.stratum, simple=simple), st.n_m)
                        for st in s.stages
                    ),
                )
            )
    return GroupSpec(tuple(out))


# ---------------------------------------------------------------------------
# contributions below a dimension bound


def _geometric_contributions(s: GeometricStratum, bound: int, J: Optional[int]):
    j = s.skip + 1
    while s.min_dim_at(j) <= bound:
        if J is not None and j > J:
            warnings.warn(
                f"{s.id_str()}: horizon J={J} truncates below the exact horizon; "
                f"entries <= {bound} may be incomplete",
                TruncationWarning,
                stacklevel=4,
            )
            return
        yield s.factor_at(j)
        j += 1


def _prime_contributions(s: PrimeStratum, bound: int, J: Optional[int]):
    count = 0
    for p in primes_from(s.p_min):
        if s.min_dim_at(p) > bound:
            return
        count += 1
        if J is not None and count > J:
            warnings.warn(
                f"{s.id_str()}: horizon J={J} truncates below the exact horizon",
                TruncationWarning,
                stacklevel=4,
            )
            return
        yield s.factor_at(p)


def _contributions(spec: GroupSpec, bound: int, J: Optional[int] = None) -> Iterator[FactorSpec]:
    """Factors whose minimal nontrivial dimension is <= bound.  Within every
    stratum the minimal dimensions diverge, so this is a finite, exact set
    (a TruncationWarning is issued where that cannot be certified)."""
    for s in spec.strata:
        if isinstance(s, FiniteStratum):
            for f in s.factors:
                if f.min_nontrivial_dim() <= bound:
                    yield f
        elif isinstance(s, GeometricStratum):
            yield from _geometric_contributions(s, bound, J)
        elif isinstance(s, PrimeStratum):
            yield from _prime_contributions(s, bound, J)
        else:
            if bound > s.exact_horizon():
                warnings.warn(
                    f"{s.id_str()}: truncation {bound} exceeds the materialized horizon "
                    f"{s.exact_horizon()}; unbuilt stages could contribute above it",
                    TruncationWarning,
                    stacklevel=3,
                )
            for st in s.stages:
                yield from _geometric_contributions(st.stratum, bound, J)


def truncated_zeta(
    spec: GroupSpec,
    N: int,
    J: Optional[int] = None,
    backend: Optional[str] = None,
    log_threshold_bits: float = LOG_THRESHOLD_BITS,
) -> DirichletSeries:
    """Dirichlet product over every factor that contributes below N.

    The backend is chosen automatically: once any factor multiplicity
    exceeds the threshold (default 2^64), the whole computation runs in the
    log domain; the exact backend is never silently degraded.

    Each factor's powered series is 1 + x_f with x_f on dims >= 2, and the
    product is accumulated in place in one dict keyed by dimension: factors
    taken by (min dim of x_f, enumeration order), and for each one every
    source d1 <= N // min_dim(x_f), high to low, adds acc[d1] * m2 into
    acc[d1 * d2].  Targets exceed their sources, so no source is updated
    before it is read.  That is about N * sum(|x_f| / min_dim(x_f)) dict
    updates, for dense and sparse (huge-N) cutoffs alike.  The fixed order
    keeps log-domain output deterministic.
    """
    if N < 1 or (J is not None and J < 1):
        raise PreconditionError("N and J must be >= 1")
    factors = list(_contributions(spec, N, J))
    if backend is None:
        big = any(mult_bits(f.multiplicity) > log_threshold_bits for f in factors)
        backend = LOG if big else EXACT
    exact = backend == EXACT

    terms = []
    for i, f in enumerate(factors):
        s = f.unit_series(N, backend)
        if not (isinstance(f.multiplicity, int) and f.multiplicity == 1):
            s = power_one_plus(s, f.multiplicity, N)
        x = [(d, m) for d, m in s.items() if d != 1]
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
    total = 0
    logs: List[float] = []
    use_log = False
    for f in _contributions(spec, n):
        m = f.multiplicity
        if not use_log:
            try:
                total += mult_to_int(m)
                continue
            except OverflowError:
                use_log = True
                if total:
                    logs.append(math.log(total))
        logs.append(mult_log(m))
    return _logsumexp(logs) if use_log else total


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
            absc = _fraction_str(self.abscissa)
        else:
            absc = "finite-group" if self.kind == "finite" else "infinity"
        return {
            "abscissa": absc,
            "strata": [
                {"id": sid, "kind": k, "rate": None if r is None else _fraction_str(r)}
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


def _stratum_rate(s: Stratum) -> Tuple[str, Optional[Fraction]]:
    """(kind, rate): kind "finite" has no rate, "infinite" has rate None."""
    if isinstance(s, FiniteStratum):
        return ("finite", None)
    if isinstance(s, GeometricStratum):
        c = s.rate()
        if c is None:
            return ("infinite", None)
        return ("rational", max(Fraction(c + m, n) for m, n in s.pair_set()))
    if isinstance(s, PrimeStratum):
        e = s.rate_exponent()
        return ("rational", max(Fraction(e + m + 1, n) for m, n in s.pair_set()))
    return ("rational", s.rate())


def exact_abscissa(spec: GroupSpec) -> RateSummary:
    """Max of the stratum rates: geometric strata contribute
    max (c+m)/n over their pair set with c = lim f(j)/j, prime strata
    max (e+m+1)/n, finite strata only the finite-group marker."""
    per = []
    rates: List[Fraction] = []
    infinite = False
    for s in spec.strata:
        kind, rate = _stratum_rate(s)
        per.append((s.id_str(), kind, rate))
        if kind == "infinite":
            infinite = True
        elif kind == "rational":
            rates.append(rate)
    if infinite:
        return RateSummary("infinite", None, tuple(per))
    if not rates:
        return RateSummary("finite", None, tuple(per))
    return RateSummary("rational", max(rates), tuple(per))


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
            else _fraction_str(self.witness_exponent),
            "witness_stratum": self.witness_stratum,
            "strata": [
                {"id": sid, "exponent": None if e is None else _fraction_str(e)}
                for sid, e in self.per_stratum
            ],
        }


def prg_verdict(spec: GroupSpec) -> PrgVerdict:
    """PRG iff every stratum's factor-count exponent is finite: m_n grows
    like n^{c/n_min} on a geometric stratum and n^{(e+1)/n_min} on a prime
    stratum; finite strata are eventually constant (exponent 0)."""
    per = []
    exps: List[Fraction] = [Fraction(0)]
    witness = None
    for s in spec.strata:
        if isinstance(s, FiniteStratum):
            e: Optional[Fraction] = Fraction(0)
        elif isinstance(s, GeometricStratum):
            c = s.rate()
            e = None if c is None else c / s.n_min()
        elif isinstance(s, PrimeStratum):
            e = Fraction(s.rate_exponent() + 1, s.n_min())
        else:
            e = s.rho  # upper bound across the materialized and asserted tail
        per.append((s.id_str(), e))
        if e is None:
            witness = witness or s.id_str()
        else:
            exps.append(e)
    if witness is not None:
        return PrgVerdict(False, None, witness, tuple(per))
    return PrgVerdict(True, max(exps), None, tuple(per))


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
    run = float("-inf")
    prefix: List[float] = []
    for lm in series.mults:
        run = lm if run == float("-inf") else _logaddexp(run, lm)
        prefix.append(run)

    def ln_R(n: int) -> float:
        i = bisect_right(dims, n) - 1
        return prefix[i] if i >= 0 else float("-inf")

    points = []
    for i, d in enumerate(dims):
        if d < 2:
            continue
        lr = prefix[i]
        points.append(SlopePoint(d, lr / math.log(10.0), lr / math.log(d)))
    lo = max(2, math.isqrt(N - 1) + 1)
    window_candidates = [n for n in (lo, N) if 2 <= n <= N] + [
        p.n for p in points if lo <= p.n <= N
    ]
    wmax = 0.0
    for n in window_candidates:
        lr = ln_R(n)
        if lr > 0:
            wmax = max(wmax, lr / math.log(n))
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

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "m_simple(n^2)": str(self.m_simple_at_n_squared),
            "m_cover(n)": str(self.m_cover_at_n),
            "passed": self.passed,
        }


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
