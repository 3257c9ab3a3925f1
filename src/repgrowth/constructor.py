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
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .char_tables import is_prime, prime_power
from .dirichlet import EXACT, DirichletSeries, convolve, cumulative, floor_log, mult_to_int
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
from .lie_data import A1, LieType, PairSet, canonical_pair_set, rho0, tits_excluded

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


def make_schedule(rho: Fraction, t: LieType) -> Schedule:
    """Schedule for the type's admissibility threshold rho0 = rk/|Phi+|,
    from the order-minimal pair of the canonical pair set.

    Nonnegativity of f is an exact proof obligation, discharged by
    Schedule's bound: j0 = ceil(1/(rho-rho0)), and the canonical pair
    (rk, |Phi+|) has m = n*rho0.
    """
    rho = Fraction(rho)
    r0 = rho0(t)
    if rho <= r0:
        raise PreconditionError(
            f"rho = {rho} is inadmissible for {t.label()}: need rho > rk/|Phi+| = {r0}"
        )
    m0, n0 = prec_min(canonical_pair_set(t), rho)
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


def _first_past(
    series: DirichletSeries, n_prev: int, test, running: Optional[int] = None
) -> Tuple[Optional[int], int]:
    """The first dimension d > n_prev of series with test(R_d, d), R_d the
    running count of the entries at dims <= d, and R_d there; (None, the
    total count) when there is none.  running, when given, is the count at
    dims <= n_prev, summed otherwise.  A series graded by p is scanned on
    its keys e, each tested at p**e, so no tuple of its dimensions is
    formed for a prefix that is read once."""
    p = series.grading
    i = bisect_right(series.keys, n_prev if p is None else floor_log(n_prev, p))
    if running is None:
        running = sum(series.mults[:i])
    for k, mult in zip(series.keys[i:], series.mults[i:]):
        running += mult
        d = k if p is None else p ** k
        if test(running, d):
            return d, running
    return None, running


class _StageRun:
    """One stage stratum's exact series, kept for one build: the power
    series F = prod_f (1 + x_f)^M_f in t = p^-s, run by the first-order
    recurrence n * F_n = sum_k c_k * F_(n-k), with c = t F'/F = sum_f M_f *
    t x_f'/(1 + x_f) (J. C. P. Miller's; Knuth, TAOCP vol. 2, section 4.7),
    to each larger cutoff a build asks.  Every stage stratum has the
    canonical pair set, so each x_f is one term a * t^e, which adds M_f * e
    * (-1)^(i-1) * a^i to c at i * e, and which a larger top leaves as it is.

    Every exponent applied is a multiple of their gcd g, so c and F run on
    the K = top // g + 1 exponents 0, g, ..., top.  Each F_n is then one
    exact divmod by n, about K^2/2 multiply-adds in all, whatever the number
    of factors or the support of F; a nonzero remainder raises
    InvariantError.  F holds exact counts, so its nonzero entries are the
    keys and values of truncated_zeta's kernel: the same series graded by p
    to the bit.  The cutoffs a build asks of a stratum rise by squares from
    its onset, so K stays within a few times its factor count.

    The state is g, c, F, the (M_f, e, a) applied and the top reached.  A
    factor first applied past a cutoff N has every exponent above
    floor_log(N, p), so a larger top on the same grid leaves every c_j and
    F_n below the old one as it is and forms only the new ones; a finer
    grid forms every exponent again."""

    def __init__(self, p: int):
        self.p, self.g, self.top, self.xs, self.c, self.F = p, 1, 0, [], [0], [1]

    def extend(self, factors: list, N: int, top: int) -> DirichletSeries:
        """The product at N, top = floor_log(N, p), once the factors (M_f,
        e, a), e <= top, past the last cutoff are applied (every one, from
        empty); a prefix at a top already reached; and truncated_zeta's
        plain unit series where no factor lies at or below N.  A factor
        with no multiple of its exponent past the old top adds nothing and
        is passed over, and the series is formed from F's nonzero slots as
        they stand, through the check of DirichletSeries._init_sorted."""
        if top > self.top and (self.xs or factors):
            xs = self.xs + factors
            g = math.gcd(*(e for _, e, _ in xs))
            K = top // g + 1
            T0 = self.top if g == self.g else 0  # the first grid, or a finer one: every exponent again
            if not T0:
                self.c, self.F = [0], [1]
            self.g, self.top, self.xs = g, top, xs
            c = self.c
            c += [0] * (K - len(c))  # c[j]: the coefficient at exponent j * g
            for M, e, a in xs:
                m = T0 // e + 1  # the first multiple of e past T0
                if m * e > top:
                    continue  # no exponent of this factor past T0
                v = M * e * a * (-a) ** (m - 1)
                for j in range(m * e // g, K, e // g):
                    c[j] += v
                    v *= -a
            F = self.F
            for n in range(len(F), K):
                F.append(0)  # times c_0 = 0, so the sum starts at c_1 * F_(n-1)
                Fn, r = divmod(sum(map(mul, c, reversed(F))), n * g)
                if r:
                    raise InvariantError(f"graded product over p = {self.p}: {n * g} * F_{n * g} has remainder {r}")
                F[n] = Fn
        F = self.F[: top // self.g + 1]
        keys, mults = tuple(compress(range(0, top + 1, self.g), F)), tuple(filter(None, F))
        if len(keys) == 1:
            return DirichletSeries(N, {1: 1})
        out = object.__new__(DirichletSeries)
        if out._init_sorted(N, EXACT, self.p, keys, mults):
            return out
        return DirichletSeries(N, dict(zip(keys, mults)), EXACT, self.p)  # raises on a slot that is no count


class _Unions:
    """The union series of one diagonal build: product's memo, the
    _StageRun of each stage stratum past A1, which forms every series of
    that stratum, and the entries of every union formed so far, memo hits
    included, against a budget."""

    def __init__(self, budget: int):
        self.memo, self.runs, self.used, self.budget = {}, {}, 0, budget

    def product(self, strata: tuple, N: int) -> DirichletSeries:
        """The exact series of the product of the nonempty strata at N,
        each in its own view: the convolve of its head strata[:-1]'s
        product with the last stratum's series (stage).  When that series
        is the unit {1: 1} (no factor of the last stratum at or below N, as
        for a candidate scanned below its onset), the product is the
        head's, with no convolve.  When every factor the two apply is past
        A1 over one prime p, both series are graded by p, so that convolve
        runs on the exponents of p, with the updates of dimension keys in
        their order, and the product is graded again.  memo holds each
        tuple of strata at the largest cutoff formed so far, and a smaller
        N gets its entries <= N, which are the product truncated at N.

        A graded entry that N passes is extended: convolve forms only the
        pairs past its cutoff (have) and appends their entries, so a build
        forms each pair of a tuple once.  memo keeps the prefixes of the
        tuple, which the extension of its head reads at N.  An entry keyed
        by dimensions (an A1 stage, stages over two primes) leaves memo
        before it is formed again from nothing, and forming it drops its
        head's head, as that head was formed at the head's cutoff: those
        unions run to 10^5 entries of hundreds of bits, and an extension
        would hold the stale entry and its extension at once."""
        memo = self.memo
        have = memo.get(strata)
        if have is None or have.cutoff < N:
            if have is not None and have.grading is None:  # keyed by dimensions
                del memo[strata]
                have = None
            series = self.stage(strata[-1], N)
            if len(strata) > 1:
                head = self.product(strata[:-1], N)
                series = head if len(series) == 1 else convolve(head, series, N, have=have)
                if series.grading is None:
                    memo.pop(strata[:-2], None)
            memo[strata] = have = series
        return have if have.cutoff == N else have.prefix(N)

    def stage(self, stratum: GeometricStratum, N: int) -> DirichletSeries:
        """The exact series of one stage stratum at N.  Past A1 it comes
        from the stratum's _StageRun, graded by the p of q = p^k: a prefix
        at a top the run has reached, and past it the run extended by the
        triple (M_j, k*n*j, q^(m*j)) of each S(q^j), j past the len(run.xs)
        applied, while min_dim_at(j) <= N: its one term q_j^m at q_j^n, for
        the canonical pair (m, n).  truncated_zeta forms an A1 stage."""
        if stratum.lie_type == A1:
            return truncated_zeta(GroupSpec((stratum,)), N, backend=EXACT)
        run = self.runs.get(stratum)
        if run is None:
            if stratum.pairs is not None:
                raise PreconditionError("a stage run applies only factors of the canonical pair set")
            run = self.runs[stratum] = _StageRun(stratum._pk[0])
        top, factors = floor_log(N, run.p), []
        if top > run.top:
            (m, n), = stratum.pair_set()  # the canonical pair (rk, |Phi+|)
            k, q = stratum._pk[1], stratum.q
            j = stratum.skip + len(run.xs) + 1
            while stratum.min_dim_at(j) <= N:
                factors.append((mult_to_int(stratum.multiplicity(j)), k * n * j, q ** (m * j)))
                j += 1
        return run.extend(factors, N, top)

    def charge(self, entries: int) -> None:
        """Count entries read against the budget: BudgetExceededError once
        the total passes it."""
        self.used += entries
        if self.used > self.budget:
            raise BudgetExceededError(f"work budget {self.budget} exhausted")

    def series(self, strata: tuple, N: int) -> DirichletSeries:
        s = self.product(strata, N)
        self.charge(len(s))
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
        and the running count starts past n_prev with one sum; each larger
        C resumes past the last one from the count there."""
        test = _slope_test(tau, strict)
        C, running = max(n_prev, 2) ** 2, None
        while True:
            if cap is not None:
                C = min(C, cap)
            hit, running = _first_past(self.series(strata, C), n_prev, test, running)
            if hit is not None or C == cap:
                return hit, running
            n_prev, C = C, C * C


def _decide(
    unions: _Unions, built: tuple, stratum, rho: Fraction, n_prev: int, j_star: int,
    r_prev: Optional[int] = None, clean_to: Optional[int] = None,
) -> Optional[int]:
    """Check (ii) for one candidate stratum on top of the stages built,
    both in the cover view: the exact sweep of their union finds no slope
    past rho above n(m-1) = n_prev.  Onset slopes run up to k_j/j <=
    rho_m + 1/(2j), so only factor indices j <= 1/(2(rho - rho_m)) < j_star
    can spike past rho; the simple view's sweep window, which on A1 ends
    at or past the cover view's, covers all of them.

    Given r_prev, built's count at n_prev, one exact count decides first
    (with None, the sweep alone decides).  The candidate's count at its
    onset d0 > n_prev, its least nontrivial dimension, is c = sum M_f *
    |terms of x_f at or below d0| over its factors at or below d0, and
    every other entry of the union lies at built's dims or at 2 * d0 or
    past, so the union's count at d0 is at least r_prev + c.  When that
    passes rho and built is clean on (n_prev, d0] (nothing built, or d0 <=
    clean_to, the window of the stage accepted last), the sweep's first
    violation is d0: the candidate is rejected with no stage series and
    no union formed.  The terms of x_f read for c, at least the one at d0,
    are charged to the budget like a union's entries, so a run of onset
    rejections ends in BudgetExceededError too.

    Returns the evidence that accepts, swept_to, the end of that window.
    A violation at or past the candidate's onset rejects it: its union
    leaves the memo and the result is None.  A violation below the onset
    is built's, which was accepted under rho: an InvariantError (exit 5)
    that names the stage m = len(built) + 1."""
    d0 = stratum.min_dim_at(stratum.skip + 1)
    if r_prev is not None and n_prev < d0 and (not built or d0 <= clean_to):
        xs = [(mult_to_int(f.multiplicity), f.x_terms(d0, EXACT)) for _, f in stratum.factors_below(d0)]
        unions.charge(sum(len(x) for _, x in xs))
        c = sum(M * sum(m for _, m in x) for M, x in xs)
        if _slope_test(rho, True)(r_prev + c, d0):
            return None
    union = (*built, stratum)
    swept_to = stratum.with_simple(True).min_dim_at(max(stratum.skip + 4, j_star))
    violation, _ = unions.first_past(union, n_prev, rho, True, swept_to)
    if violation is None:
        return swept_to
    if violation >= d0:
        del unions.memo[union]
        unions.runs.pop(stratum, None)
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
    searched as the first checkpoint with slope >= rho_m - 1/m.  Built's
    count at n(m-1), check (i)'s right side, is formed before the
    candidates for _decide's onset test, which forms no union.  n_budget
    caps the total entries of the union series formed, every prefix cutoff
    of a scan included; it must be >= 0.

    On the exact backend the Dirichlet product is associative and
    commutative, so a union series is _Unions.product's, memoized per
    tuple of strata.  Past A1 both views are one series, so every scan
    reads the cover view, but the (iii) search reads an A1 stage, which
    increasing ranks allow only first, in the simple view.  The cover
    product of built, the last sweep union of the stage before, serves the
    early sweep cutoffs and the (iii) search as prefixes.  A larger cutoff
    extends a graded union past the one it was formed at, so each of its
    pairs is formed once, and the memo keeps every prefix of the union's
    tuple for that; a union keyed by dimensions is formed again at each
    larger cutoff and pops its head's head, which nothing reads again, as
    the sweep window and the (iii) scan, which starts at max(n(m-1), 2)^2,
    pass every cutoff of the stage before.  A rejected candidate's union
    leaves the memo.  Budgets count every union formed, memo hits
    included.

    When every factor a product applies is past A1 over one prime p, as
    when every stage is past A1 over powers of p, its convolve runs on the
    exponents of p (series graded by p, whose keys its kernel
    _mul_terms adds) instead of on dimensions of hundreds of bits, with the
    updates of dimension keys in their order: the same series, the same
    certificate.  Each factor's terms are formed on those exponents too,
    from the k of q = p^k each stage stratum proved when it was built, and
    no dimension is formed for them.  An A1 stage or stages
    over two primes keep dimension keys for every product they enter.

    Each stage stratum past A1 is graded by its own prime, whatever the
    other stages, and keeps one run of the recurrence n * F_n = sum_k c_k
    * F_(n-k) on its exponents (_StageRun) for the call, which forms every
    series of the stratum: each larger cutoff forms only its new exponents
    and factors, each three ints read off the stratum (_Unions.stage), and
    a smaller one is a prefix; truncated_zeta forms an A1 stage series.  A
    stage stratum's hash is formed once, when it is built or derived with
    another skip (with_skip), from the hash its Schedule formed once, so a
    memo lookup hashes no Fraction.
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
    n_prev, window = 1, None
    try:
        for m, (rho_m, t_m, p_m) in enumerate(targets, start=1):
            rho_m = Fraction(rho_m)
            base = build_fixed_type(rho_m, t_m, p_m).strata[0].with_simple(False)
            # condition (i): drop every factor already visible at n(m-1)
            skip = 0
            while base.min_dim_at(skip + 1) <= n_prev:
                skip += 1
            # (i)'s right side, which _decide's onset test reads too; the
            # empty product holds only the trivial representation
            rhs = cumulative(unions.series(built, n_prev), n_prev) if built else 1
            # condition (ii): extend the drop prefix until _decide accepts
            j_star = math.ceil(Fraction(1, 2) / (rho - rho_m)) + 1
            for skip in count(skip):
                stratum = base.with_skip(skip)
                swept_to = _decide(unions, built, stratum, rho, n_prev, j_star, rhs, window)
                if swept_to is not None:
                    break
            window = swept_to

            # (i) exact cumulative equality at n(m-1) on the cover view
            union = (*built, stratum)
            lhs = cumulative(unions.series(union, n_prev), n_prev)
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
