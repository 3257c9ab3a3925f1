"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated limit.  Run with -s to see the lines."""
import random
import time
from fractions import Fraction

import pytest

from repgrowth import invariants
from repgrowth.char_tables import (
    prime_power,
    psl2_order,
    psl2_table,
    sl2_order,
    sl2_table,
)
from repgrowth.constructor import (
    build_diagonal,
    build_fixed_type,
    default_diagonal_targets,
)
from repgrowth.dirichlet import cumulative
from repgrowth.growth import (
    FactorSpec,
    FiniteStratum,
    GroupSpec,
    PrimeStratum,
    exact_abscissa,
    m_n,
    sl2_over_primes_spec,
    truncated_zeta,
    with_flag,
)
from repgrowth.lie_data import LieType, PairSet, canonical_pair_set, rho0

A1 = LieType("A", 1)
PRIME_POWERS_4_81 = [q for q in range(4, 82) if prime_power(q) is not None]


def run_criterion(number, description, limit_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_s else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.2f}s < {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its runtime limit"


def test_criterion_1_example_family_closed_form():
    def body():
        for d in (3, 4, 5):
            summary = exact_abscissa(sl2_over_primes_spec(d))
            assert summary.kind == "rational"
            assert summary.abscissa == Fraction(3 * d - 4)

    run_criterion(1, "SL2-over-primes abscissa equals 3d-4 for d in {3,4,5}", 1.0, body)


def test_criterion_2_schedule_realization():
    families = (
        [LieType("A", r) for r in range(1, 9)]
        + [LieType("B", r) for r in range(2, 9)]
        + [LieType("C", r) for r in range(3, 9)]
        + [LieType("D", r) for r in range(4, 9)]
        + [LieType("E6"), LieType("E7"), LieType("E8"), LieType("F4"), LieType("G2")]
        + [LieType("A", r, twisted=True) for r in range(2, 9)]
        + [LieType("D", r, twisted=True) for r in range(4, 9)]
        + [LieType("E6", twisted=True)]
    )

    def body():
        rng = random.Random(20240817)
        quarter = Fraction(1, 4)
        for _ in range(100):
            t = rng.choice(families)
            rho = rho0(t) + Fraction(rng.randint(1, 200), 40)  # in (rho0, rho0 + 5]
            p = rng.choice([5, 7, 11])
            spec = build_fixed_type(rho, t, p)
            assert exact_abscissa(spec).abscissa == rho
            sched = spec.strata[0].exponents
            pairs = spec.strata[0].pair_set()
            assert invariants.termwise_two_sided(sched, pairs, quarter)

    run_criterion(
        2, "100 random schedules hit their abscissa, with termwise certificates", 30.0, body
    )


def test_criterion_3_character_table_identities():
    def body():
        for q in PRIME_POWERS_4_81:
            assert sum(m * d * d for d, m in sl2_table(q).degrees) == sl2_order(q)
            assert sum(m * d * d for d, m in psl2_table(q).degrees) == psl2_order(q)
        # class numbers, cover degree checks and minimal degrees
        for name, ok in invariants.character_tables(PRIME_POWERS_4_81):
            assert ok, name

    run_criterion(3, "mass identities, cover checks, minimal degrees for q <= 81", 1.0, body)


def _brute_product(degree_lists, N):
    out = {1: 1}
    for degrees in degree_lists:
        nxt = {}
        for d0, m0 in out.items():
            for d in degrees:
                if d0 * d <= N:
                    nxt[d0 * d] = nxt.get(d0 * d, 0) + m0
        out = nxt
    return out


def _degrees(table):
    out = []
    for d, m in table.degrees:
        out.extend([d] * m)
    return out


def test_criterion_4_convolution_oracle_equivalence():
    def body():
        spec = GroupSpec((FiniteStratum((FactorSpec(A1, 5, simple=True, multiplicity=3),)),))
        got = truncated_zeta(spec, 125)
        a5 = _degrees(psl2_table(5))
        assert dict(got.items()) == _brute_product([a5] * 3, 125)

        spec = GroupSpec(
            (FiniteStratum((FactorSpec(A1, 5, simple=False), FactorSpec(A1, 7, simple=True))),)
        )
        got = truncated_zeta(spec, 100)
        oracle = _brute_product([_degrees(sl2_table(5)), _degrees(psl2_table(7))], 100)
        assert dict(got.items()) == oracle

    run_criterion(4, "truncated products match brute-force degree enumeration", 1.0, body)


def test_criterion_5_generator_counts():
    from repgrowth.finite_groups import (
        automorphism_count,
        generating_tuple_count,
        get_group,
        min_generators_power,
    )

    def body():
        A5 = get_group("A5")
        phi2 = generating_tuple_count(A5, 2)
        aut = automorphism_count(A5)
        assert phi2 == 2280 and aut == 120  # frozen from the exhaustive oracles
        k_star = phi2 // aut
        assert min_generators_power(A5, k_star) == 2
        assert min_generators_power(A5, k_star + 1) == 3
        assert min_generators_power(A5, 60) == 3  # Wiegold's b+2 at b=1

    run_criterion(5, "phi_2(A5), Aut(A5) and the 2->3 generator transition", 60.0, body)


def test_criterion_6_product_rule():
    def body():
        rng = random.Random(4242)
        pool = []
        for t in (A1, LieType("A", 2), LieType("B", 2), LieType("G2"), LieType("A", 3)):
            for num in (1, 2, 5, 9):
                pool.append(build_fixed_type(rho0(t) + Fraction(num, 4), t, rng.choice([5, 7])))
        for E in (0, 1, 2, 3):
            pool.append(GroupSpec((PrimeStratum(5, E),)))
        pool.append(GroupSpec((FiniteStratum((FactorSpec(A1, 9, simple=True, multiplicity=3),)),)))

        def value(s):
            summary = exact_abscissa(s)
            return Fraction(-1) if summary.kind == "finite" else summary.abscissa

        for _ in range(50):
            a, b = rng.choice(pool), rng.choice(pool)
            got = exact_abscissa(GroupSpec(a.strata + b.strata))
            expected = max(value(a), value(b))
            if expected == Fraction(-1):
                assert got.kind == "finite"
            else:
                assert got.abscissa == expected

    run_criterion(6, "abscissa of a union is the max of the parts (50 random pairs)", 5.0, body)


def test_criterion_7_diagonal_construction():
    def body():
        targets = default_diagonal_targets(Fraction(2), 4, 5)
        spec, cert = build_diagonal(Fraction(2), targets, 10 ** 9)
        assert cert.complete and len(cert.stages) == 4
        for record in cert.stages:
            assert all(c.status == "pass" for c in record.checks)
        # condition (i): exact cumulative equality at each checkpoint
        stages = spec.strata[0].stages
        for m in range(1, len(stages)):
            n_prev = stages[m - 1].n_m
            upto = with_flag(GroupSpec(tuple(s.stratum for s in stages[: m + 1])), False)
            before = with_flag(GroupSpec(tuple(s.stratum for s in stages[:m])), False)
            lhs = cumulative(truncated_zeta(upto, n_prev, backend="exact"), n_prev)
            rhs = cumulative(truncated_zeta(before, n_prev, backend="exact"), n_prev)
            assert lhs == rhs
        assert exact_abscissa(spec).abscissa == Fraction(2)

    run_criterion(7, "diagonal certificate verifies and the union hits degree 2", 120.0, body)


def test_criterion_8_sim2_model_check():
    def body():
        for q in [q for q in PRIME_POWERS_4_81 if q >= 17]:
            fails = invariants.sl2_model(q)
            assert not fails, f"q={q}: {fails}"

    run_criterion(8, "zeta(SL2(q))-1 ~_2 q^(1-s) on the grid plus regime probes", 1.0, body)


def test_criterion_9_cover_quotient_inequality():
    def body():
        spec = GroupSpec(
            (FiniteStratum(tuple(FactorSpec(A1, q) for q in (5, 7, 9, 11, 13))),)
        )
        assert invariants.cover_quotient(spec, range(1, 21))

    run_criterion(9, "m_{n^2}(simple) >= m_n(cover) over the mixed A1 family", 1.0, body)


def test_criterion_10_property_suites():
    def body():
        rng = random.Random(1001)
        assert invariants.order_axioms(rng, 1000)  # strict total order, 1000 pair sets
        assert invariants.convolution_algebra(rng, 150)  # associative, commutative
        assert invariants.power_additivity(rng, 60)
        # exact vs log: same dims, counts within relative 1e-9, M <= 1e6
        assert invariants.backend_agreement(rng, 25)
        assert invariants.schedule_nonnegativity()  # f(j) >= 0 to j = 10^4
        # a union's exact series is the convolve of its strata's series
        assert invariants.union_factorization(rng, 12)
        # truncated_zeta at N is the prefix <= N of it at any N' >= N
        assert invariants.prefix_truncation(rng, 12)

    run_criterion(10, "order axioms, series algebra, backend agreement, schedules", 60.0, body)
