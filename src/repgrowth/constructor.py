"""The two explicit constructions: fixed-type towers of prescribed abscissa
via the multiplicity schedule f(j) = n0*k_j - m0*j, and the diagonal
growing-rank construction with a machine-checkable certificate.

rho is always an exact rational: the rounding k_j = round(rho*j) must be
deterministic, and rationals are dense in the positive reals, which is all
the headline statements need.  Round-half-up is fixed for reproducibility.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from typing import List, Optional, Sequence, Tuple

from .char_tables import is_prime, prime_power
from .dirichlet import EXACT, DirichletSeries, convolve, cumulative
from .errors import BudgetExceededError, InvariantError, PreconditionError, int_name
from .growth import (
    DiagonalStage,
    DiagonalStratum,
    GeometricStratum,
    GroupSpec,
    Schedule,
    exact_abscissa,
    truncated_zeta,
)
from .lie_data import (
    A1,
    LieType,
    PairSet,
    canonical_pair_set,
    require_pair_set,
    rho0,
    tits_excluded,
)

def _prec_key(pair: Tuple[int, int], rho: Fraction) -> Tuple[Fraction, int]:
    m, n = pair
    return (n * rho - m, n)


def prec_less(p1: Tuple[int, int], p2: Tuple[int, int], rho: Fraction) -> bool:
    """The schedule order: (m,n) precedes (m',n') when m - n*rho is larger,
    ties broken by smaller n.  A strict linear order on any pair set."""
    return _prec_key(p1, rho) < _prec_key(p2, rho)


def prec_min(a: PairSet, rho: Fraction) -> Tuple[int, int]:
    """The order-minimal pair: the one no other pair precedes."""
    if a.is_empty():
        raise PreconditionError("empty pair set")
    return min(a, key=lambda pair: _prec_key(pair, rho))


def make_schedule(rho: Fraction, t: LieType, a: Optional[PairSet] = None) -> Schedule:
    """Schedule for the type's admissibility threshold rho0 = rk/|Phi+|.

    Nonnegativity of f is an exact proof obligation, discharged by
    Schedule's bound: j0 = ceil(1/(rho-rho0)), and every pair (m, n) of a
    valid set has m <= n*rho0.
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
    return Schedule(rho, r0, m0, n0, j0)


def build_fixed_type(
    rho: Fraction, t: LieType, p: int, q: Optional[int] = None
) -> GroupSpec:
    """A one-stratum spec with semisimple part prod_j S(q^j)^{q^{f(j)}} whose
    exact abscissa is rho (asserted before returning)."""
    if not is_prime(p):
        raise PreconditionError(f"p = {int_name(p)} is not prime")
    if q is None:
        q = p
    pk = prime_power(q)
    if pk is None or pk[0] != p:
        raise PreconditionError(f"q = {int_name(q)} is not a power of p = {p}")
    while tits_excluded(t, q):
        q *= p  # bump past SL2(2), SL2(3) and friends
    sched = make_schedule(Fraction(rho), t)
    spec = GroupSpec((GeometricStratum(t, q, sched, simple=True),))
    got = exact_abscissa(spec)
    if got.kind != "rational" or got.abscissa != Fraction(rho):
        raise InvariantError(f"postcondition failed: abscissa {got.abscissa} != {rho}")
    return spec


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


def _slope_test(tau: Fraction, strict: bool):
    """test(R, n): whether log R / log n > tau when strict, >= tau
    otherwise, for a count R >= 1 and n >= 2, decided exactly by comparing
    R^den with n^num, tau = num/den.  Formed once per scan, so that no
    Fraction operation runs per entry: tau < 0 is settled here, since the
    slope of a count R >= 1 is never negative, and num and den are plain
    ints."""
    if tau < 0:
        return lambda R, n: True
    num, den = tau.numerator, tau.denominator
    if strict:
        return lambda R, n: R ** den > n ** num
    return lambda R, n: R ** den >= n ** num


def _first_past(series: DirichletSeries, n_prev: int, test) -> Tuple[Optional[int], int]:
    """The first dimension d > n_prev of series with test(R_d, d), R_d the
    running count of the entries at dims <= d, and R_d there; (None, the
    total count) when there is none."""
    i = bisect_right(series.dims, n_prev)
    running = sum(series.mults[:i])
    for d, mult in zip(series.dims[i:], series.mults[i:]):
        running += mult
        if test(running, d):
            return d, running
    return None, running


def _product(memo: dict, strata: tuple, N: int) -> DirichletSeries:
    """The exact series of the product of the nonempty strata at N, each in
    its own view: the convolve of its head strata[:-1]'s product with the
    last stratum's series, formed by truncated_zeta.  When the strata are
    graded by one prime p (every stage past A1, over powers of p), both
    series are GradedSeries, so that convolve runs on the exponents of p,
    with the updates of dimension keys in their order, and the product is
    graded again.  memo holds each tuple of strata at the largest
    cutoff formed so far, and a smaller N gets its entries <= N, which are
    the product truncated at N.  A stale entry leaves memo before it is
    formed again, and forming a product drops its head's head: that was
    formed with the head, at the head's cutoff, so a call that needs it
    again needs it past that cutoff."""
    have = memo.pop(strata, None)
    if have is None or have.cutoff < N:
        have = truncated_zeta(GroupSpec(strata[-1:]), N, backend=EXACT)
        if len(strata) > 1:
            have = convolve(_product(memo, strata[:-1], N), have, N)
            memo.pop(strata[:-2], None)
    memo[strata] = have
    return have if have.cutoff == N else have.prefix(N)


class _Unions:
    """The union series of one diagonal build: _product's memo, and the
    entries of every union formed so far, memo hits included, against a
    budget."""

    def __init__(self, budget: int):
        self.memo, self.used, self.budget = {}, 0, budget

    def series(self, strata: tuple, N: int) -> DirichletSeries:
        s = _product(self.memo, strata, N)
        self.used += len(s)
        if self.used > self.budget:
            raise BudgetExceededError(f"work budget {self.budget} exhausted")
        return s

    def first_past(
        self, strata: tuple, n_prev: int, tau: Fraction, strict: bool, cap: Optional[int] = None
    ) -> Tuple[Optional[int], int]:
        """The first d > n_prev of the union whose slope passes tau,
        strictly when strict, and the count there: _first_past on prefixes
        at C = max(n_prev, 2)^2, squared at each step and capped at cap
        (unbounded when None).  Entries <= C do not depend on the cutoff,
        so the hit is the one a full-cutoff scan finds.  The slope test is
        formed once (_slope_test), so no Fraction operation runs per entry,
        and the running count starts past n_prev with one sum."""
        test = _slope_test(tau, strict)
        C = max(n_prev, 2) ** 2
        while True:
            if cap is not None:
                C = min(C, cap)
            hit = _first_past(self.series(strata, C), n_prev, test)
            if hit[0] is not None or C == cap:
                return hit
            C *= C


def _decide(
    unions: _Unions, built: tuple, stratum, rho: Fraction, n_prev: int, j_star: int
) -> Optional[int]:
    """Check (ii) for one candidate stratum on top of the stages built,
    both in the cover view: the exact sweep of their union finds no slope
    past rho above n(m-1) = n_prev.  Onset slopes run up to k_j/j <=
    rho_m + 1/(2j), so only factor indices j <= 1/(2(rho - rho_m)) < j_star
    can spike past rho; the simple view's sweep window, which on A1 ends
    at or past the cover view's, covers all of them.

    Returns the evidence that accepts, swept_to, the end of that window.
    A violation at or past the candidate's onset rejects it: its union
    leaves the memo and the result is None.  A violation below the onset
    is built's, which was accepted under rho: an InvariantError (exit 5)
    that names the stage m = len(built) + 1."""
    union = (*built, stratum)
    swept_to = stratum.with_simple(True).min_dim_at(max(stratum.skip + 4, j_star))
    violation, _ = unions.first_past(union, n_prev, rho, True, swept_to)
    if violation is None:
        return swept_to
    if violation >= stratum.min_dim_at(stratum.skip + 1):
        del unions.memo[union]
        return None
    raise InvariantError(
        f"stage {len(built) + 1}: slope exceeds rho at {violation}, below this stage's onset"
    )


def build_diagonal(
    rho: Fraction,
    targets: Sequence[Tuple[Fraction, LieType, int]],
    n_budget: int = 10 ** 9,
) -> Tuple[GroupSpec, DiagonalCertificate]:
    """Assemble a growing-rank spec from fixed-type stages H_m with
    alpha(H_m) = rho_m increasing to rho.

    Per stage the leading factors are dropped until (i) nothing new appears
    at dimensions <= n(m-1) (exact, since minimal dimensions are computable)
    and (ii) no slope in the exact sweep exceeds rho (_decide); then n(m) is
    searched as the first checkpoint with slope >= rho_m - 1/m.  n_budget
    caps the total entries of the union series formed, every prefix cutoff
    of a scan included; it must be >= 0.

    On the exact backend the Dirichlet product is associative and
    commutative, so a union series is _product's, memoized per tuple of
    strata.  Past A1 both views are one series, so every scan reads the
    cover view, but the (iii) search reads an A1 stage, which increasing
    ranks allow only first, in the simple view.  The memo evicts what is not
    read again as it goes: forming a product pops its head's head, and a
    rejected candidate leaves it.  The cover product of built, the last
    sweep union of the stage before, serves the early sweep cutoffs and the
    (iii) search as prefixes; nothing older is read again, since the sweep
    window and the (iii) scan, which starts at max(n(m-1), 2)^2, pass every
    cutoff of the stage before.  The four benchmark cases take 62/63/54/51
    truncated_zeta and 49/50/41/38 convolve calls.  Budgets count every
    union formed, memo hits included.

    When every stage is past A1 over powers of one prime p, each stage
    stratum is graded by p, so its truncated_zeta and every convolve of a
    product run on the exponents of p (dirichlet.GradedSeries, whose keys
    the one kernel _mul_into adds) instead of on dimensions of hundreds of
    bits, with the updates of dimension keys in their order: the same
    series, the same certificate.  Each factor's terms are formed on those
    exponents too, from the k of q = p^k each stage stratum proved when it
    was built, and no dimension is formed for them.  An A1 stage, or
    stages over two primes, keep dimension keys for every product they
    enter.  A stage stratum's hash is formed once, when it is built, so a
    memo lookup hashes no Fraction of its schedule.
    """
    rho = Fraction(rho)
    if n_budget < 0:
        raise PreconditionError(f"work budget {n_budget} must be >= 0")
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

    unions = _Unions(n_budget)
    stages: List[DiagonalStage] = []
    records: List[StageRecord] = []
    built: Tuple[GeometricStratum, ...] = ()  # the accepted stages, cover view
    shown: Tuple[GeometricStratum, ...] = ()  # the same, but an A1 stage simple
    n_prev = 1
    try:
        for m, (rho_m, t_m, p_m) in enumerate(targets, start=1):
            rho_m = Fraction(rho_m)
            base = build_fixed_type(rho_m, t_m, p_m).strata[0].with_simple(False)
            # condition (i): drop every factor already visible at n(m-1)
            skip = 0
            while base.min_dim_at(skip + 1) <= n_prev:
                skip += 1
            # condition (ii): extend the drop prefix until _decide accepts
            j_star = math.ceil(Fraction(1, 2) / (rho - rho_m)) + 1
            for skip in count(skip):
                stratum = replace(base, skip=skip)
                window = _decide(unions, built, stratum, rho, n_prev, j_star)
                if window is not None:
                    break

            # (i) exact cumulative equality at n(m-1) on the cover view
            union = (*built, stratum)
            lhs = cumulative(unions.series(union, n_prev), n_prev)
            # the empty product holds only the trivial representation
            rhs = cumulative(unions.series(built, n_prev), n_prev) if built else 1
            if lhs != rhs:
                raise InvariantError(f"stage {m}: new representations at or below {n_prev}")
            built = union
            shown = (*shown, stratum.with_simple(t_m == A1))

            # (iii): first checkpoint above n(m-1) with slope >= rho_m - 1/m
            target = rho_m - Fraction(1, m)
            n_m, running = unions.first_past(shown, n_prev, target, False)
            slope_val = math.log(running) / math.log(n_m) if n_m > 1 else 0.0
            small = {"at": str(n_prev), "cumulative": str(lhs)}
            sweep = {"rate": str(rho_m), "rho": str(rho), "swept_to": str(window), "dropped": skip}
            close = {"n_m": str(n_m), "target": str(target), "slope": f"{slope_val:.6f}"}
            checks = (
                CheckRecord("no-new-small-reps", "pass", "exact", small),
                CheckRecord("never-larger-than-rho", "pass", "rate-bound+exact-sweep", sweep),
                CheckRecord("close-to-rho-m", "pass", "exact", close),
            )
            stages.append(DiagonalStage(rho_m, stratum.with_simple(True), n_m))
            records.append(StageRecord(m, rho_m, t_m, p_m, skip, n_m, checks))
            n_prev = n_m
    except BudgetExceededError as e:
        e.partial = DiagonalCertificate(rho, tuple(records), complete=False)
        raise

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
