"""The two explicit constructions: fixed-type towers of prescribed abscissa
via the multiplicity schedule f(j) = n0*k_j - m0*j, and the diagonal
growing-rank construction with a machine-checkable certificate.

rho is always an exact rational: the rounding k_j = round(rho*j) must be
deterministic, and rationals are dense in the positive reals, which is all
the headline statements need.  Round-half-up is fixed for reproducibility.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .char_tables import is_prime, prime_power
from .dirichlet import EXACT, DirichletSeries, cumulative
from .errors import BudgetExceededError, InvariantError, PreconditionError, fraction_field, int_field
from .growth import (
    DiagonalStage,
    DiagonalStratum,
    GeometricStratum,
    GroupSpec,
    exact_abscissa,
    truncated_zeta,
    with_flag,
)
from .lie_data import (
    LieType,
    PairSet,
    canonical_pair_set,
    require_pair_set,
    rho0,
    tits_excluded,
)

_F_NONNEG_HORIZON = 10_000


def prec_less(p1: Tuple[int, int], p2: Tuple[int, int], rho: Fraction) -> bool:
    """The schedule order: (m,n) precedes (m',n') when m - n*rho is larger,
    ties broken by smaller n.  A strict linear order on any pair set."""
    m1, n1 = p1
    m2, n2 = p2
    v1 = m1 - n1 * rho
    v2 = m2 - n2 * rho
    return v1 > v2 or (v1 == v2 and n1 < n2)


def prec_min(a: PairSet, rho: Fraction) -> Tuple[int, int]:
    """The order-minimal pair: the one no other pair precedes."""
    if a.is_empty():
        raise PreconditionError("empty pair set")
    best = None
    for pair in a:
        if best is None or prec_less(pair, best, rho):
            best = pair
    return best


@dataclass(frozen=True)
class Schedule:
    """The multiplicity-exponent schedule: k_j = round(rho*j) half-up,
    f(j) = n0*k_j - m0*j from the first active index j0 on, zero before."""

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
        """A spec's schedule, held to a bound that proves f(j) >= 0 for every
        j >= j0: with k_j >= rho*j - 1/2, f(j) >= j*(n0*rho - m0) - n0/2, so
        2*j0*(n0*rho - m0) >= n0 suffices.  make_schedule's schedules meet
        it, since m0 <= n0*rho0 and j0*(rho - rho0) >= 1 there."""
        rho, rho0 = (fraction_field(obj, key, pointer) for key in ("rho", "rho0"))
        m0, n0, j0 = (int_field(obj, key, pointer) for key in ("m0", "n0", "j0"))
        sched = cls(rho, rho0, m0, n0, j0)
        if 2 * j0 * sched.rate() < n0:
            raise PreconditionError("schedule needs 2*j0*(n0*rho - m0) >= n0 to keep f(j) >= 0")
        return sched


def _check_nonnegative(sched: Schedule) -> None:
    """Raise InvariantError at the first j <= 10^4 with f(j) < 0.  f(j) = 0
    below j0, so the scan starts there, in plain ints: f(j) >= 0 is
    n0 * k_j >= m0 * j with k_j = (2*num*j + den) // (2*den)."""
    num2, den = 2 * sched.rho.numerator, sched.rho.denominator
    den2, m0, n0 = 2 * den, sched.m0, sched.n0
    for j in range(sched.j0, _F_NONNEG_HORIZON + 1):
        if n0 * ((num2 * j + den) // den2) < m0 * j:
            raise InvariantError(f"schedule violates f({j}) >= 0")


def make_schedule(rho: Fraction, t: LieType, a: Optional[PairSet] = None) -> Schedule:
    """Schedule for the type's admissibility threshold rho0 = rk/|Phi+|.

    Nonnegativity of f is an exact proof obligation: checked pointwise to
    j = 10^4, and for every j by the closed-form bound f(j) >=
    n0*(j*(rho-rho0) - 1/2), positive from j0 = ceil(1/(rho-rho0)) on
    since every pair (m, n) of a valid set has m <= n*rho0.
    """
    rho = Fraction(rho)
    r0 = rho0(t)
    if rho <= r0:
        raise PreconditionError(
            f"rho = {rho} is inadmissible for {t.label()}: need rho > rk/|Phi+| = {r0}"
        )
    if a is None:
        a = canonical_pair_set(t)
    require_pair_set(a, t)
    m0, n0 = prec_min(a, rho)
    j0 = math.ceil(1 / (rho - r0))
    sched = Schedule(rho, r0, m0, n0, j0)
    _check_nonnegative(sched)
    return sched


def build_fixed_type(
    rho: Fraction, t: LieType, p: int, q: Optional[int] = None
) -> GroupSpec:
    """A one-stratum spec with semisimple part prod_j S(q^j)^{q^{f(j)}} whose
    exact abscissa is rho (asserted before returning)."""
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if q is None:
        q = p
    pk = prime_power(q)
    if pk is None or pk[0] != p:
        raise PreconditionError(f"q = {q} is not a power of p = {p}")
    while tits_excluded(t, q):
        q *= p  # bump past SL2(2), SL2(3) and friends
    sched = make_schedule(Fraction(rho), t)
    spec = GroupSpec((GeometricStratum(t, q, sched, simple=True),))
    got = exact_abscissa(spec)
    if got.kind != "rational" or got.abscissa != Fraction(rho):
        raise InvariantError(f"postcondition failed: abscissa {got.abscissa} != {rho}")
    return spec


# ---------------------------------------------------------------------------
# termwise convergence certificates for the schedule sum


@dataclass(frozen=True)
class ConvergenceReport:
    """Exact termwise evidence for sum_j q^{f(j)} sum_{(m,n)} q^{j(m - n*sigma)}:
    past j_settle every per-j log-slope clears the stated bound."""

    sigma: Fraction
    verdict: str  # "converges" | "diverges"
    j_settle: int
    horizon: int
    bound: Fraction
    ok: bool


def termwise_log_slope(sched: Schedule, pairs: PairSet, sigma: Fraction, j: int) -> Fraction:
    """(1/j) log_q of the j-th term: f(j)/j + max over pairs of (m - n*sigma)."""
    return Fraction(sched.f(j), j) + max(m - n * sigma for m, n in pairs)


def convergence_certificate(
    sched: Schedule, pairs: PairSet, sigma: Fraction, horizon: int = 200
) -> ConvergenceReport:
    """Certify the two-sided behaviour around rho in exact rational
    arithmetic: at sigma = rho + eps slopes settle below -n0*eps/2 (geometric
    decay), at sigma = rho - eps the (m0, n0)-term slopes settle at >= 0."""
    sigma = Fraction(sigma)
    if sigma == sched.rho:
        raise PreconditionError("termwise test is two-sided around rho, not at it")
    if sigma > sched.rho:
        eps = sigma - sched.rho
        j_settle = max(sched.j0, math.ceil(2 / eps))
        bound = Fraction(-sched.n0 * eps, 2)
        ok = all(
            termwise_log_slope(sched, pairs, sigma, j) <= bound
            for j in range(j_settle, horizon + 1)
        )
        return ConvergenceReport(sigma, "converges", j_settle, horizon, bound, ok)
    eps = sched.rho - sigma
    j_settle = max(sched.j0, math.ceil(1 / eps))
    minimal = Fraction(sched.m0) - sched.n0 * sigma
    ok = all(
        Fraction(sched.f(j), j) + minimal >= 0 for j in range(j_settle, horizon + 1)
    )
    return ConvergenceReport(sigma, "diverges", j_settle, horizon, Fraction(0), ok)


# ---------------------------------------------------------------------------
# the diagonal construction


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    evidence: str
    detail: dict

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "evidence": self.evidence,
            **self.detail,
        }


@dataclass(frozen=True)
class StageRecord:
    m: int
    rho_m: Fraction
    lie_type: LieType
    p: int
    dropped: int
    n_m: int
    checks: Tuple[CheckRecord, ...]

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "rho_m": str(self.rho_m),
            "lie_type": self.lie_type.to_jsonable(),
            "p": self.p,
            "dropped": self.dropped,
            "n_m": str(self.n_m),
            "checks": [c.to_jsonable() for c in self.checks],
        }


@dataclass(frozen=True)
class DiagonalCertificate:
    rho: Fraction
    stages: Tuple[StageRecord, ...]
    complete: bool

    def __post_init__(self):
        ns = [1] + [s.n_m for s in self.stages]
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise InvariantError("checkpoints n(m) must be strictly increasing")

    def to_jsonable(self) -> dict:
        return {
            "rho": str(self.rho),
            "complete": self.complete,
            "stages": [s.to_jsonable() for s in self.stages],
        }


def _slope_leq(R: int, n: int, tau: Fraction) -> bool:
    """log R / log n <= tau, decided exactly: R^den <= n^num."""
    if R <= 1:
        return True
    if tau < 0:
        return False
    return R ** tau.denominator <= n ** tau.numerator


def _slope_geq(R: int, n: int, tau: Fraction) -> bool:
    if tau <= 0:
        return True
    if R <= 1:
        return False
    return R ** tau.denominator >= n ** tau.numerator


def build_diagonal(
    rho: Fraction,
    targets: Sequence[Tuple[Fraction, LieType, int]],
    n_budget: int = 10 ** 9,
) -> Tuple[GroupSpec, DiagonalCertificate]:
    """Assemble a growing-rank spec from fixed-type stages H_m with
    alpha(H_m) = rho_m increasing to rho.

    Per stage the leading factors are dropped until (i) nothing new appears
    at dimensions <= n(m-1) (exact, since minimal dimensions are computable)
    and (ii) no slope in the exact sweep exceeds rho; then n(m) is searched
    as the first checkpoint with slope >= rho_m - 1/m.  n_budget caps the
    total series entries materialized by the sweeps and searches.
    """
    rho = Fraction(rho)
    if not targets:
        raise PreconditionError("need at least one stage target")
    ranks = [t.rank for _, t, _ in targets]
    rhos = [Fraction(r) for r, _, _ in targets]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise PreconditionError("stage ranks must be strictly increasing")
    if any(a >= b for a, b in zip(rhos, rhos[1:])):
        raise PreconditionError("stage abscissae must be strictly increasing")
    if any(r >= rho for r in rhos):
        raise PreconditionError("every rho_m must stay below the limit rho")

    used = 0  # series entries materialized so far, against n_budget
    stages: List[DiagonalStage] = []
    records: List[StageRecord] = []
    built: List[GeometricStratum] = []
    n_prev = 1

    def union_series(strata: Sequence[GeometricStratum], N: int, simple: bool) -> DirichletSeries:
        nonlocal used
        spec = with_flag(GroupSpec(tuple(strata)), simple=simple)
        s = truncated_zeta(spec, N, backend=EXACT)
        used += len(s)
        if used > n_budget:
            partial = DiagonalCertificate(rho, tuple(records), complete=False)
            raise BudgetExceededError(f"work budget {n_budget} exhausted", partial=partial)
        return s

    for m, (rho_m, t_m, p_m) in enumerate(targets, start=1):
        rho_m = Fraction(rho_m)
        base = build_fixed_type(rho_m, t_m, p_m).strata[0]

        # condition (i): drop every factor already visible at n(m-1)
        skip = 0
        while base.min_dim_at(skip + 1) <= n_prev:
            skip += 1

        # condition (ii): extend the drop prefix until the exact sweep is
        # clean.  Onset slopes run up to k_j/j <= rho_m + 1/(2j), so only
        # factor indices j <= 1/(2(rho - rho_m)) can spike past rho; the
        # sweep window covers all of them.
        j_star = math.ceil(Fraction(1, 2) / (rho - rho_m)) + 1
        swept_to = n_prev
        while True:
            stratum = replace(base, skip=skip)
            onset = stratum.min_dim_at(skip + 1)
            sweep_N = stratum.min_dim_at(max(skip + 4, j_star))
            series = union_series(built + [stratum], sweep_N, simple=False)
            violation = None
            running = 0
            for d, mult in series.items():
                running += mult
                if d > n_prev and not _slope_leq(running, d, rho):
                    violation = d
                    break
            if violation is None:
                swept_to = sweep_N
                break
            if violation >= onset:
                skip += 1
                continue
            raise InvariantError(
                f"stage {m}: slope exceeds rho at {violation}, below this stage's onset"
            )

        built.append(stratum)
        checks = []

        # (i) exact cumulative equality at n(m-1) on the cover view
        lhs = cumulative(union_series(built, max(n_prev, 1), simple=False), n_prev)
        if len(built) > 1:
            rhs = cumulative(union_series(built[:-1], max(n_prev, 1), simple=False), n_prev)
        else:
            rhs = 1  # the empty product: only the trivial representation
        if lhs != rhs:
            raise InvariantError(f"stage {m}: new representations at or below {n_prev}")
        checks.append(
            CheckRecord(
                "no-new-small-reps",
                "pass",
                "exact",
                {"at": str(n_prev), "cumulative": str(lhs)},
            )
        )
        checks.append(
            CheckRecord(
                "never-larger-than-rho",
                "pass",
                "rate-bound+exact-sweep",
                {
                    "rate": str(rho_m),
                    "rho": str(rho),
                    "swept_to": str(swept_to),
                    "dropped": skip,
                },
            )
        )

        # (iii): first checkpoint above n(m-1) with slope >= rho_m - 1/m
        target = rho_m - Fraction(1, m)
        n_m = None
        N_try = stratum.min_dim_at(skip + 1)
        while n_m is None:
            series = union_series(built, N_try, simple=True)
            running = 0
            for d, mult in series.items():
                running += mult
                if d > n_prev and _slope_geq(running, d, target):
                    n_m = d
                    break
            if n_m is None:
                N_try = N_try * N_try
        slope_val = math.log(running) / math.log(n_m) if n_m > 1 else 0.0
        checks.append(
            CheckRecord(
                "close-to-rho-m",
                "pass",
                "exact",
                {"n_m": str(n_m), "target": str(target), "slope": f"{slope_val:.6f}"},
            )
        )
        stages.append(DiagonalStage(rho_m, stratum, n_m))
        records.append(StageRecord(m, rho_m, t_m, p_m, skip, n_m, tuple(checks)))
        n_prev = n_m

    spec = GroupSpec((DiagonalStratum(rho, tuple(stages)),))
    got = exact_abscissa(spec)
    if got.kind != "rational" or got.abscissa != rho:
        raise InvariantError("diagonal postcondition failed")
    return spec, DiagonalCertificate(rho, tuple(records), complete=True)


def default_diagonal_targets(
    rho: Fraction, stages: int, p: int, family: str = "A"
) -> List[Tuple[Fraction, LieType, int]]:
    """The canonical instance: rho_m = rho - 1/m with types of growing rank
    (A_{m+1} by default)."""
    rho = Fraction(rho)
    if stages < 1:
        raise PreconditionError("need at least one stage")
    out = []
    for m in range(1, stages + 1):
        rho_m = rho - Fraction(1, m)
        t = LieType(family, m + 1)
        r0 = rho0(t)
        if rho_m <= r0:
            raise PreconditionError(
                f"stage {m}: rho - 1/m = {rho_m} is inadmissible for {t.label()} (rho0 = {r0})"
            )
        out.append((rho_m, t, p))
    return out
