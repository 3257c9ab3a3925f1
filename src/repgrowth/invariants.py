"""The invariant suite, shared by `repgrowth check` (one line per check of
`suite()`) and the acceptance tests (the same checks, more random cases).
Each check returns True when every case holds; `sim_C` instead names the
inequalities that fail.  Besides the algebra of series and schedules, the
suite runs the paper's centre theorem: zeta(SL2(q)) - 1 ~_2 q^(1-s), and
m_{n^2}(G/Z) >= m_n(G) with the same abscissa and PRG verdict for G and G/Z.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Iterable, Iterator, List, Sequence, Tuple

from . import growth
from .char_tables import min_nontrivial_degree, prime_power, psl2_table, sl2_table
from .constructor import build_fixed_type, make_schedule, prec_less
from .dirichlet import (
    EXACT,
    LOG,
    DirichletSeries,
    _log_prefix_sums,
    convolve,
    cumulative,
    evaluate,
    power_one_plus,
)
from .errors import PreconditionError
from .lie_data import A1, LieType, PairSet, rho0

FIELD_SIZES = [q for q in range(4, 82) if prime_power(q)]
_POWER_BASE = {1: 1, 2: 1, 3: 2, 5: 1}


def character_tables(qs: Iterable[int]) -> Iterator[Tuple[str, bool]]:
    """Class number, cover degrees and minimal degree of SL2(q); building the
    tables asserts their mass identities."""
    for q in qs:
        sl2 = sl2_table(q)
        psl2_table(q)
        expect = q + 4 if q % 2 else q + 1
        yield f"SL2({q}) class number {expect}", sl2.num_characters() == expect
        yield f"cover degree check q={q}", cover_degree_check(q)
        want = q - 1 if q % 2 == 0 else (q - 1) // 2
        yield f"SL2({q}) minimal degree closed form", min_nontrivial_degree(sl2) == want


def cover_degree_check(q: int) -> bool:
    """The covering-degree inequality at A1 scale: the simple quotient has a
    nontrivial character of degree <= (cover's minimal degree)^2 - 1."""
    d_cover = min_nontrivial_degree(sl2_table(q))
    return min_nontrivial_degree(psl2_table(q)) <= d_cover * d_cover - 1


def cover_quotient(spec: growth.GroupSpec, ns: Iterable[int]) -> bool:
    """m_{n^2} of the simple view dominates m_n of the cover view for each n
    in ns: a cover character of degree d yields a simple-quotient character
    of degree at most d^2 - 1.  Two integer counts compare exactly; logs are
    compared only when m_n returned one."""
    ns = list(ns)
    simple = growth.m_ns(growth.with_flag(spec, True), [n * n for n in ns])
    cover = growth.m_ns(growth.with_flag(spec, False), ns)
    ok = True
    for lhs, rhs in zip(simple, cover):
        if isinstance(lhs, float) or isinstance(rhs, float):
            lhs, rhs = (x if isinstance(x, float) else math.log(x) if x else -math.inf
                        for x in (lhs, rhs))
        ok &= lhs >= rhs
    return ok


def centre_blind() -> bool:
    """The centre theorem: m_{n^2}(G/Z) >= m_n(G) on the mixed A1 family (n <= 20),
    SL2 over primes at d = 3 (n <= 60) and a fixed-type A1 tower; the same
    exact_abscissa and prg_verdict in both views of SL2 over primes, d <= 5."""
    mixed = growth.FiniteStratum(tuple(growth.FactorSpec(A1, q) for q in (5, 7, 9, 11, 13)))
    ok = cover_quotient(growth.GroupSpec((mixed,)), range(1, 21))
    ok &= cover_quotient(growth.sl2_over_primes_spec(3), range(1, 61))
    ok &= cover_quotient(build_fixed_type(Fraction(2), A1, 5), range(1, 61))
    for d in (3, 4, 5):
        spec = growth.sl2_over_primes_spec(d)
        simple, cover = growth.with_flag(spec, True), growth.with_flag(spec, False)
        ok &= growth.exact_abscissa(simple) == growth.exact_abscissa(cover)
        ok &= growth.prg_verdict(simple) == growth.prg_verdict(cover)
    return ok


def sim_C(f: DirichletSeries, g: DirichletSeries, C: float, grid: Sequence[float]) -> List[str]:
    """The inequalities of f ~_C g that fail, none when the relation holds:
    f(s) <= C^(1+s) g(s) and the reverse at each grid sigma, and in the two
    regimes sigma -> 0+ (the total masses, within factor C) and sigma -> inf
    (the minimal terms, probed at sigma = 16).  A pass certifies these only."""
    if C < 1:
        raise PreconditionError("C must be >= 1")
    if not f or not g:
        raise PreconditionError("both series must be nonzero")

    def logs(s: DirichletSeries) -> List[float]:
        ln = (lambda m: m) if s.backend == LOG else math.log  # log counts are logs
        return [math.log(evaluate(s, sigma)) for sigma in grid] + [
            ln(cumulative(s, s.cutoff)),
            ln(s.mults[0]) - 16.0 * math.log(s.dims[0]),
        ]

    labels = [f"sigma={sigma}" for sigma in grid] + ["sigma->0+", "sigma->inf"]
    fails = []
    for label, sigma, lf, lg in zip(labels, [*grid, 0.0, 16.0], logs(f), logs(g)):
        slack = (1.0 + sigma) * math.log(C)
        if lf > slack + lg:
            fails.append(f"{label}: f <= C^(1+s) g")
        if lg > slack + lf:
            fails.append(f"{label}: g <= C^(1+s) f")
    return fails


def sl2_model(q: int) -> List[str]:
    """sim_C of zeta(SL2(q)) - 1 against the model q^(1-s), a single term of
    dimension q and multiplicity q, with C = 2 on the grid {0.5, 1, 2, 4}."""
    f = DirichletSeries(q + 1, [(d, m) for d, m in sl2_table(q).degrees if d > 1])
    g = DirichletSeries(q + 1, {q: q})
    return sim_C(f, g, 2.0, [0.5, 1.0, 2.0, 4.0])


def termwise_two_sided(sched: growth.Schedule, pairs: PairSet, eps: Fraction) -> bool:
    """The schedule sum sum_j q^{f(j)} sum_{(m,n)} q^{j(m - n*sigma)} term by term,
    in exact rationals for j <= 200: at sigma = rho + eps every per-j log-slope
    f(j)/j + max (m - n*sigma) is <= -n0*eps/2 from max(j0, ceil(2/eps)) on, and
    at rho - eps the (m0, n0) term's slope is >= 0 from max(j0, ceil(1/eps)) on."""
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("the termwise test is two-sided around rho: need eps > 0")
    up, down = sched.rho + eps, sched.rho - eps
    converges = all(
        Fraction(sched.f(j), j) + max(m - n * up for m, n in pairs) <= -sched.n0 * eps / 2
        for j in range(max(sched.j0, math.ceil(2 / eps)), 201)
    )
    diverges = all(
        Fraction(sched.f(j), j) + sched.m0 - sched.n0 * down >= 0
        for j in range(max(sched.j0, math.ceil(1 / eps)), 201)
    )
    return converges and diverges


def _random_series(rng: random.Random, N: int = 40) -> DirichletSeries:
    entries = {}
    for _ in range(rng.randint(1, 8)):
        entries[rng.randint(1, N)] = rng.randint(1, 50)
    return DirichletSeries(N, entries)


def convolution_algebra(rng: random.Random, cases: int) -> bool:
    """Convolution is associative and commutative."""
    ok = True
    for _ in range(cases):
        a, b, c = _random_series(rng), _random_series(rng), _random_series(rng)
        ok &= convolve(convolve(a, b, 40), c, 40) == convolve(a, convolve(b, c, 40), 40)
        ok &= convolve(a, b, 40) == convolve(b, a, 40)
    return ok


def power_additivity(rng: random.Random, cases: int) -> bool:
    """(1+x)^(m1+m2) = (1+x)^m1 * (1+x)^m2."""
    base = DirichletSeries(64, _POWER_BASE)
    ok = True
    for _ in range(cases):
        m1, m2 = rng.randint(1, 40), rng.randint(1, 40)
        lhs = power_one_plus(base, m1 + m2, 64)
        rhs = convolve(power_one_plus(base, m1, 64), power_one_plus(base, m2, 64), 64)
        ok &= lhs == rhs
    return ok


def backend_agreement(rng: random.Random, cases: int) -> bool:
    """The log backend has the exact backend's dimensions and its counts
    within relative 1e-9, for powers M <= 10^6."""
    base = DirichletSeries(64, _POWER_BASE)
    ok = True
    for _ in range(cases):
        M = rng.randint(2, 10 ** 6)
        exact = power_one_plus(base, M, 64)
        logd = power_one_plus(base.to_log(), M, 64)
        ok &= logd.dims == exact.dims
        for d, m in exact.items():
            ok &= abs(math.exp(logd.mult_at(d)) - m) / m < 1e-9
    return ok


def order_axioms(rng: random.Random, cases: int) -> bool:
    """prec_less is a strict total order on random pair sets."""
    ok = True
    for _ in range(cases):
        pairs = [(rng.randint(0, 6), rng.randint(1, 8)) for _ in range(rng.randint(2, 6))]
        rho = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        less = {(a, b): prec_less(a, b, rho) for a, b in product(pairs, repeat=2)}
        ok &= not any(less[a, a] for a in pairs)  # irreflexive
        ok &= all(less[a, b] != less[b, a] for a, b in less if a != b)  # total, asymmetric
        ok &= all(less[a, c] for a, b, c in product(pairs, repeat=3) if less[a, b] and less[b, c])
    return ok


def schedule_nonnegativity() -> bool:
    """f(j) >= 0 for j <= 10^4 on three schedules."""
    schedules = [
        make_schedule(Fraction(2), A1),
        make_schedule(Fraction(3, 2), LieType("A", 2)),
        make_schedule(Fraction(1, 15) + Fraction(1, 100), LieType("E8")),
    ]
    return all(s.f(j) >= 0 for s in schedules for j in range(1, 10 ** 4 + 1))


def fixed_type_postcondition(rng: random.Random, cases: int) -> bool:
    """A fixed-type tower built for rho has exact abscissa rho, and its
    schedule sum converges at rho + 1/4 and diverges at rho - 1/4."""
    families = [LieType("A", r) for r in (1, 2, 3)] + [LieType("B", 2), LieType("G2")]
    ok = True
    for _ in range(cases):
        t = rng.choice(families)
        rho = rho0(t) + Fraction(rng.randint(1, 20), 4)
        spec = build_fixed_type(rho, t, rng.choice([5, 7, 11]))
        ok &= growth.exact_abscissa(spec).abscissa == rho
        stratum = spec.strata[0]
        ok &= termwise_two_sided(stratum.exponents, stratum.pair_set(), Fraction(1, 4))
    return ok


def union_factorization(rng: random.Random, cases: int) -> bool:
    """On the exact backend the series of a union of strata is the convolve
    of the strata's own series (what build_diagonal's memo rests on): two
    fixed-type towers over q in {5, 7}, a finite stratum and, at a dense
    N <= 2000, the prime stratum; at the sparse N = 2^200 the towers and
    the finite stratum, as the prime stratum has no sparse truncation."""
    types = [LieType("A", 2), LieType("A", 3), LieType("B", 2), LieType("G2")]
    ok = True
    for _ in range(cases):
        towers = [
            build_fixed_type(rho0(t) + Fraction(rng.randint(1, 8), 4), t, rng.choice([5, 7]))
            .strata[0]
            .with_simple(rng.random() < 0.5)
            for t in rng.sample(types, 2)
        ]
        factor = growth.FactorSpec(A1, rng.choice([4, 5, 7, 8, 9]), rng.random() < 0.5, 2)
        finite = growth.FiniteStratum((factor,))
        primes = growth.PrimeStratum(5, 1, simple=rng.random() < 0.5)
        for N, strata in (
            (rng.randint(500, 2000), towers + [primes, finite]),
            (2 ** 200, towers + [finite]),
        ):
            whole = growth.truncated_zeta(growth.GroupSpec(tuple(strata)), N, backend=EXACT)
            parts = (
                growth.truncated_zeta(growth.GroupSpec((s,)), N, backend=EXACT) for s in strata
            )
            ok &= whole == reduce(lambda a, b: convolve(a, b, N), parts)
    return ok


def prefix_truncation(rng: random.Random, cases: int) -> bool:
    """For N <= N', the exact truncated_zeta at N is the entries <= N of the
    one at N' (what build_diagonal's memo across stages rests on): each of
    two random fixed-type towers in both flags and the prime stratum at a
    dense N' <= 2000; the towers alone at the sparse N' = 2^200, with N of
    random bit length, as the prime stratum has no sparse truncation."""
    types = [LieType("A", 2), LieType("A", 3), LieType("B", 2), LieType("G2")]
    ok = True
    for _ in range(cases):
        towers = [
            build_fixed_type(rho0(t) + Fraction(rng.randint(1, 8), 4), t, rng.choice([5, 7]))
            .strata[0]
            for t in rng.sample(types, 2)
        ]
        towers = [s.with_simple(simple) for s in towers for simple in (True, False)]
        primes = growth.PrimeStratum(5, 1, simple=rng.random() < 0.5)
        top = rng.randint(500, 2000)
        for big_N, N, strata in (
            (top, rng.randint(1, top), towers + [primes]),
            (2 ** 200, rng.randint(1, 2 ** rng.randint(1, 200)), towers),
        ):
            for s in strata:
                spec = growth.GroupSpec((s,))
                big = growth.truncated_zeta(spec, big_N, backend=EXACT)
                head = DirichletSeries(N, [(d, m) for d, m in big.items() if d <= N])
                ok &= growth.truncated_zeta(spec, N, backend=EXACT) == head
    return ok


def tail_agreement(rng: random.Random, cases: int) -> bool:
    """The exact truncated_zeta, which applies a prime stratum's factors
    past sqrt(N) as one linear factor, has the dimensions of the log backend's, which
    applies them one by one, and its counts within relative 1e-9: on
    PrimeStratum(5, E, simple) for E in {0, 1} in both views, per case at
    h^2 - 1 and h^2 for the least degree h of a random prime below 90,
    where that prime leaves the tail, and at a random N <= 2000."""
    ok = True
    for _ in range(cases):
        for E, simple in product((0, 1), (False, True)):
            s = growth.PrimeStratum(5, E, simple)
            h = s.min_dim_at(rng.choice([p for p in range(5, 90) if prime_power(p) == (p, 1)]))
            for N in (h * h - 1, h * h, rng.randint(1, 2000)):
                spec = growth.GroupSpec((s,))
                exact = growth.truncated_zeta(spec, N, backend=EXACT)
                logd = growth.truncated_zeta(spec, N, backend=LOG)
                ok &= logd.dims == exact.dims
                ok &= all(abs(math.expm1(l - math.log(m))) < 1e-9 for l, m in zip(logd.mults, exact.mults))
    return ok


def slope_agreement(rng: random.Random, cases: int) -> bool:
    """empirical_slope, which reads the exact counts wherever every
    multiplicity materializes, has the ns and window of the slopes formed
    from the log backend's prefix sums, and every slope and the windowed
    max within relative 1e-9: on PrimeStratum(5, E, simple) for E in
    {1, 2} in both views, per case at a random N <= 2000."""
    ok = True
    for _ in range(cases):
        for E, simple in product((1, 2), (False, True)):
            spec = growth.GroupSpec((growth.PrimeStratum(5, E, simple),))
            N = rng.randint(2, 2000)
            rep = growth.empirical_slope(spec, N)
            logd = growth.truncated_zeta(spec, N, backend=LOG)
            lrs = _log_prefix_sums(logd.mults)
            slopes = [lr / math.log(n) for lr, n in zip(lrs[1:], logd.dims[1:])]
            lo = max(2, math.isqrt(N - 1) + 1)
            at_lo = lrs[bisect_right(logd.dims, lo) - 1] / math.log(lo)
            wmax = max([at_lo] + slopes[bisect_left(logd.dims, lo) - 1:])
            ok &= rep.ns == logd.dims[1:] and rep.window == (lo, N)
            ok &= all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(rep.slopes, slopes))
            ok &= math.isclose(rep.windowed_max, wmax, rel_tol=1e-9)
    return ok


def suite() -> Iterator[Tuple[str, bool]]:
    """The named checks of `repgrowth check`, in order, with fixed seeds."""
    yield from character_tables(FIELD_SIZES)
    rng = random.Random(7)
    name = "convolution associative and commutative (100 random cases)"
    yield name, convolution_algebra(rng, 100)
    yield "power additivity (50 random cases)", power_additivity(rng, 50)
    yield "exact vs log backend agreement within 1e-9 (M <= 1e6)", backend_agreement(rng, 20)
    yield "schedule order axioms (200 random pair sets)", order_axioms(random.Random(11), 200)
    yield "schedule nonnegativity f(j) >= 0 for j <= 10^4", schedule_nonnegativity()
    name = "fixed-type construction postcondition (10 random triples)"
    yield name, fixed_type_postcondition(random.Random(13), 10)
    name = "union series = convolve of per-stratum series, N <= 2000 and 2^200 (4 cases)"
    yield name, union_factorization(random.Random(17), 4)
    name = "truncated_zeta at N = its entries <= N at N' >= N, N' <= 2000 and 2^200 (4 cases)"
    yield name, prefix_truncation(random.Random(19), 4)
    name = "exact tail product = log per-factor product within 1e-9, prime strata, N <= 2000 (2 cases)"
    yield name, tail_agreement(random.Random(23), 2)
    name = "empirical slopes from exact counts = log-path slopes within 1e-9"
    yield name, slope_agreement(random.Random(29), 2)
    yield "SL2-over-primes family abscissa 3d-4", all(
        growth.exact_abscissa(growth.sl2_over_primes_spec(d)).abscissa == 3 * d - 4
        for d in (3, 4, 5)
    )
    name = "zeta(SL2(q)) - 1 ~_2 q^(1-s) for prime powers 17 <= q <= 81"
    yield name, not any(sl2_model(q) for q in FIELD_SIZES if q >= 17)
    name = "m_{n^2}(G/Z) >= m_n(G), abscissa and PRG verdict the same in both views"
    yield name, centre_blind()
