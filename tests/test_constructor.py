import gc
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repgrowth
from repgrowth import constructor, dirichlet
from repgrowth.constructor import (
    DiagonalCertificate,
    Schedule,
    _Unions,
    _decide,
    _first_past,
    _slope_test,
    build_diagonal,
    build_fixed_type,
    default_diagonal_targets,
    make_schedule,
    prec_less,
    prec_min,
)
from repgrowth.dirichlet import cumulative
from repgrowth.errors import BudgetExceededError, InvariantError, PreconditionError
from repgrowth.growth import GroupSpec, exact_abscissa, truncated_zeta, with_flag
from repgrowth.invariants import termwise_two_sided
from repgrowth.lie_data import LieType, PairSet, canonical_pair_set, rho0

A1 = LieType("A", 1)


# -- the schedule order ------------------------------------------------------


def test_prec_min_examples():
    assert prec_min(PairSet([(1, 1)]), Fraction(7, 3)) == (1, 1)
    # 1 - 2 = -1 beats 2 - 6 = -4
    assert prec_min(PairSet([(1, 1), (2, 3)]), Fraction(2)) == (1, 1)
    # tie on the value, broken by smaller n
    assert prec_min(PairSet([(1, 1), (2, 2)]), Fraction(1)) == (1, 1)


def test_prec_min_empty():
    with pytest.raises(PreconditionError):
        prec_min(PairSet([]), Fraction(1))


pair = st.tuples(st.integers(0, 8), st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(pair, min_size=2, max_size=6, unique=True),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10)),
)
def test_prec_is_a_strict_total_order(pairs, rho):
    for p in pairs:
        assert not prec_less(p, p, rho)  # irreflexive
    for p in pairs:
        for q in pairs:
            if p != q:
                assert prec_less(p, q, rho) != prec_less(q, p, rho)  # total
            for r in pairs:
                if prec_less(p, q, rho) and prec_less(q, r, rho):
                    assert prec_less(p, r, rho)  # transitive


@settings(max_examples=200, deadline=None)
@given(
    st.lists(pair, min_size=1, max_size=6, unique=True),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10)),
)
def test_prec_min_is_minimal(pairs, rho):
    a = PairSet(pairs)
    m0 = prec_min(a, rho)
    assert all(not prec_less(p, m0, rho) for p in a)


# -- schedules ---------------------------------------------------------------


def test_schedule_rho2_a1():
    sched = make_schedule(Fraction(2), A1)
    assert (sched.m0, sched.n0, sched.j0) == (1, 1, 1)
    for j in range(1, 50):
        assert sched.k(j) == 2 * j
        assert sched.f(j) == j
    assert sched.rate() == Fraction(1)


def test_schedule_rho_three_halves_a1():
    sched = make_schedule(Fraction(3, 2), A1)
    assert sched.j0 == 2
    assert sched.f(1) == 0
    assert sched.f(2) == 1
    assert sched.f(3) == 2  # round-half-up(4.5) = 5
    assert sched.f(4) == 2


def test_schedule_rejects_inadmissible_rho():
    with pytest.raises(PreconditionError):
        make_schedule(Fraction(1, 2), A1)
    with pytest.raises(PreconditionError):
        make_schedule(rho0(LieType("A", 2)), LieType("A", 2))


def test_schedule_k_approximates_rho():
    for rho in (Fraction(2), Fraction(3, 2), Fraction(7, 5)):
        sched = make_schedule(rho, A1)
        for j in range(1, 200):
            assert abs(Fraction(sched.k(j), j) - rho) <= Fraction(1, j)


def test_schedule_rate_limit():
    sched = make_schedule(Fraction(3, 2), LieType("A", 2))
    target = sched.rate()
    bound = Fraction(sched.n0 + sched.m0)
    for j in range(sched.j0, 10 ** 4 + 1, 97):
        assert abs(Fraction(sched.f(j), j) - target) <= bound / j


def test_schedule_nonnegativity_everywhere():
    for rho, t in [
        (Fraction(2), A1),
        (Fraction(3, 2), LieType("A", 2)),
        (Fraction(1, 15) + Fraction(1, 100), LieType("E8")),
    ]:
        sched = make_schedule(rho, t)
        assert all(sched.f(j) >= 0 for j in range(1, 10 ** 4 + 1))


# the (rho, stages, p) cases of the benchmark's diagonal_certificate workload
DIAGONAL_CASES = [(Fraction(2), 7, 5), (Fraction(3), 7, 5), (Fraction(5, 2), 6, 7), (Fraction(2), 6, 7)]


def _f_scan(rho, m0, n0, j0, stop):
    """f(j) = n0*k_j - m0*j pointwise for j0 <= j < stop, k_j = round(rho*j)
    half up, with no Schedule built."""
    num, den = rho.numerator, rho.denominator
    return [n0 * ((2 * num * j + den) // (2 * den)) - m0 * j for j in range(j0, stop)]


def _nonnegative_everywhere(rho, m0, n0, j0):
    """The exact decision: k_{j+den} = k_j + num, so f(j + den) = f(j) +
    n0*num - m0*den, and f >= 0 for every j >= j0 iff that step is >= 0
    and f >= 0 on one period j0 .. j0 + den - 1."""
    step = n0 * rho.numerator - m0 * rho.denominator
    return step >= 0 and min(_f_scan(rho, m0, n0, j0, j0 + rho.denominator)) >= 0


def test_nonnegativity_scan_agrees_with_schedule_f():
    schedules = [
        make_schedule(rho_m, t)
        for rho, stages, p in DIAGONAL_CASES
        for rho_m, t, _ in default_diagonal_targets(rho, stages, p)
    ]
    assert len(schedules) == 26
    # each stage schedule, then variants on which f(j) >= 0 may fail
    cases = [
        v
        for s in schedules
        for v in ((s.rho, s.m0, s.n0, s.j0), (s.rho, s.m0 + 1, s.n0, s.j0),
                  (s.rho, s.m0 + 1, s.n0, 1), (s.rho0 + Fraction(1, 10 ** 5), s.m0, s.n0, s.j0))
    ]
    # f(1) = k_1 - 2 = 0 only because 3/2 rounds half up; f(2) = 3 - 4
    cases.append((Fraction(3, 2), 2, 1, 1))
    failing = 0
    for rho, m0, n0, j0 in cases:
        exact = _nonnegative_everywhere(rho, m0, n0, j0)
        assert exact == (min(_f_scan(rho, m0, n0, j0, 10 ** 4 + 1)) >= 0)
        failing += not exact
        try:
            sched = Schedule(rho, Fraction(1, 10 ** 6), m0, n0, j0)
        except PreconditionError:
            continue
        assert exact  # the bound accepts no schedule with a negative f
        assert [sched.f(j) for j in range(j0, 10 ** 4 + 1)] == _f_scan(rho, m0, n0, j0, 10 ** 4 + 1)
    assert failing >= 20  # 23 of the 105 cases have a negative f


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 60), st.integers(1, 12), st.integers(0, 20), st.integers(1, 10), st.integers(1, 30)
)
def test_schedule_bound_accepts_only_nonnegative_f(num, den, m0, n0, j0):
    rho = Fraction(num, den)
    try:
        sched = Schedule(rho, rho / 2, m0, n0, j0)
    except PreconditionError as e:
        assert "to keep f(j) >= 0" in str(e)
        return
    assert n0 * rho.numerator - m0 * rho.denominator >= 0
    assert min(sched.f(j) for j in range(j0, j0 + rho.denominator)) >= 0


def test_schedule_with_a_small_rate_is_accepted():
    # rho = 5/4, m0 = n0 = j0 = 1: f(j) = round(5j/4) - j = round(j/4) >= 0,
    # though 2*j0*(n0*rho - m0) = 1/2 < n0
    sched = Schedule.from_jsonable(
        {"kind": "schedule", "rho": "5/4", "rho0": "1", "m0": 1, "n0": 1, "j0": 1}
    )
    assert [sched.f(j) for j in range(1, 9)] == [0, 1, 1, 1, 1, 2, 2, 2]


@pytest.mark.parametrize(
    "fields",
    [
        {"rho": "1", "rho0": "1/2", "m0": 5, "n0": 1, "j0": 1},  # f(j) = k_j - 5j < 0
        {"rho": "3/2", "rho0": "1", "m0": 2, "n0": 1, "j0": 1},  # f(2) = 3 - 4
        {"rho": "7/5", "rho0": "1", "m0": 6, "n0": 5, "j0": 1},  # rate 1, but f(1) = 5 - 6
    ],
)
def test_json_schedule_without_the_positivity_bound_is_refused(fields):
    with pytest.raises(PreconditionError, match=r"2\*j0\*D > n0\*\(den - 1\) - 2\*den"):
        Schedule.from_jsonable({"kind": "schedule", **fields})


def test_schedule_is_one_class_under_every_name():
    assert repgrowth.Schedule is repgrowth.constructor.Schedule is repgrowth.growth.Schedule


def test_schedule_json_round_trip():
    sched = make_schedule(Fraction(3, 2), LieType("A", 2))
    assert Schedule.from_jsonable(sched.to_jsonable()) == sched
    # every stage schedule passes Schedule's bound, for the reason given there
    for rho, stages, p in DIAGONAL_CASES:
        for rho_m, t, _ in default_diagonal_targets(rho, stages, p):
            sched = make_schedule(rho_m, t)
            assert sched.m0 <= sched.n0 * sched.rho0 and sched.j0 * (sched.rho - sched.rho0) >= 1
            assert Schedule.from_jsonable(sched.to_jsonable()) == sched


# -- fixed-type construction -------------------------------------------------


def test_build_fixed_type_examples():
    assert exact_abscissa(build_fixed_type(Fraction(2), A1, 5)).abscissa == 2
    spec = build_fixed_type(Fraction(3, 2), LieType("A", 2), 5)
    assert exact_abscissa(spec).abscissa == Fraction(3, 2)
    near = Fraction(1, 15) + Fraction(1, 100)
    spec = build_fixed_type(near, LieType("E8"), 7)
    assert exact_abscissa(spec).abscissa == near


def test_build_fixed_type_bumps_tits_exclusions():
    spec = build_fixed_type(Fraction(2), A1, 2)
    assert spec.strata[0].q == 4
    spec = build_fixed_type(Fraction(2), A1, 3)
    assert spec.strata[0].q == 9
    spec = build_fixed_type(Fraction(1), LieType("G2"), 2)
    assert spec.strata[0].q == 4


def test_build_fixed_type_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        build_fixed_type(Fraction(2), A1, 6)  # not prime
    with pytest.raises(PreconditionError):
        build_fixed_type(Fraction(2), A1, 5, q=10)  # not a power of p
    with pytest.raises(PreconditionError):
        build_fixed_type(Fraction(1, 2), A1, 5)  # inadmissible


ALL_FAMILIES_RANK_LE_8 = (
    [LieType("A", r) for r in range(1, 9)]
    + [LieType("B", r) for r in range(2, 9)]
    + [LieType("C", r) for r in range(3, 9)]
    + [LieType("D", r) for r in range(4, 9)]
    + [LieType("E6"), LieType("E7"), LieType("E8"), LieType("F4"), LieType("G2")]
    + [LieType("A", r, twisted=True) for r in range(2, 9)]
    + [LieType("D", r, twisted=True) for r in range(4, 9)]
    + [LieType("E6", twisted=True)]
)


def test_build_fixed_type_random_admissible_triples():
    rng = random.Random(1234)
    for _ in range(100):
        t = rng.choice(ALL_FAMILIES_RANK_LE_8)
        rho = rho0(t) + Fraction(rng.randint(1, 200), 40)
        p = rng.choice([5, 7, 11])
        spec = build_fixed_type(rho, t, p)
        assert exact_abscissa(spec).abscissa == rho


# -- termwise convergence certificates ---------------------------------------


def test_termwise_two_sided_around_rho():
    sched = make_schedule(Fraction(2), A1)
    assert termwise_two_sided(sched, canonical_pair_set(A1), Fraction(1, 4))
    # a pair (3, 1) outgrows the schedule: the sum no longer converges at rho + 1/4
    assert not termwise_two_sided(sched, PairSet([(1, 1), (3, 1)]), Fraction(1, 4))


def test_termwise_exact_slope_signs():
    # the two-sided proof, checked in rational arithmetic over j <= 500
    sched = make_schedule(Fraction(2), A1)
    eps = Fraction(1, 8)
    for j in range(max(sched.j0, 16), 501):
        up = Fraction(sched.f(j), j) + (sched.m0 - sched.n0 * (sched.rho + eps))
        assert up <= -sched.n0 * eps / 2
        down = Fraction(sched.f(j), j) + (sched.m0 - sched.n0 * (sched.rho - eps))
        assert down >= 0


def test_termwise_rejects_nonpositive_eps():
    sched = make_schedule(Fraction(2), A1)
    for eps in (Fraction(0), Fraction(-1, 4)):
        with pytest.raises(PreconditionError):
            termwise_two_sided(sched, canonical_pair_set(A1), eps)


# -- the diagonal construction -----------------------------------------------


def slope_leq(R, n, tau):
    """Reference: log R / log n <= tau, decided exactly: R^den <= n^num."""
    if tau < 0:
        return False
    if R <= 1:
        return True
    return R ** tau.denominator <= n ** tau.numerator


def slope_geq(R, n, tau):
    """Reference: log R / log n >= tau, decided exactly: R^den >= n^num."""
    if tau <= 0:
        return True
    if R <= 1:
        return False
    return R ** tau.denominator >= n ** tau.numerator


def test_slope_cmp_is_both_one_sided_slope_tests():
    # each scan forms its test once, tau < 0 settled there; the strict test
    # is "slope > tau", the other "slope >= tau"
    taus = [Fraction(-3), Fraction(-1, 2), Fraction(0)]
    taus += [Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(7, 3)]
    for tau in taus:
        above, at_least = _slope_test(tau, True), _slope_test(tau, False)
        for R in range(1, 201):
            for n in range(2, 61):
                assert above(R, n) == (not slope_leq(R, n, tau)), (R, n, tau)
                assert at_least(R, n) == slope_geq(R, n, tau), (R, n, tau)
    # the slope of a count R >= 1 is >= 0, so above any negative tau
    assert _slope_test(Fraction(-1, 2), True)(1, 2) and _slope_test(Fraction(-3), True)(200, 60)
    # at tau = 0 a count of 1 has slope exactly 0: at least tau, not above it
    assert _slope_test(Fraction(0), False)(1, 7) and not _slope_test(Fraction(0), True)(1, 7)
    assert _slope_test(Fraction(0), True)(2, 7)


def test_a_formed_slope_test_runs_no_fraction_operation(monkeypatch):
    taus = (Fraction(-1), Fraction(0), Fraction(7, 3))
    tests = [_slope_test(tau, strict) for tau in taus for strict in (True, False)]

    def refuse(*args):
        raise AssertionError("a Fraction operation ran")

    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(refuse) if name.endswith("ator") else refuse)
    assert [t(8, 2) for t in tests] == [True] * 6  # 8^3 > 2^7
    assert [t(2, 5) for t in tests] == [True, True, True, True, False, False]


def test_default_targets():
    targets = default_diagonal_targets(Fraction(2), 4, 5)
    assert [t[0] for t in targets] == [Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)]
    assert [t[1].rank for t in targets] == [2, 3, 4, 5]


def test_build_diagonal_acceptance_instance():
    targets = default_diagonal_targets(Fraction(2), 4, 5)
    spec, cert = build_diagonal(Fraction(2), targets, 10 ** 9)
    assert cert.complete and len(cert.stages) == 4
    assert exact_abscissa(spec).abscissa == Fraction(2)
    # checkpoints strictly increase
    ns = [s.n_m for s in cert.stages]
    assert ns == sorted(set(ns))
    for record in cert.stages:
        assert all(c.status == "pass" for c in record.checks)


def test_build_diagonal_condition_i_exact_equality():
    targets = default_diagonal_targets(Fraction(2), 3, 5)
    spec, cert = build_diagonal(Fraction(2), targets, 10 ** 9)
    stages = spec.strata[0].stages
    for m in range(1, len(stages)):
        n_prev = stages[m - 1].n_m
        upto = GroupSpec(tuple(s.stratum for s in stages[: m + 1]))
        before = GroupSpec(tuple(s.stratum for s in stages[:m]))
        lhs = cumulative(truncated_zeta(with_flag(upto, False), n_prev, backend="exact"), n_prev)
        rhs = cumulative(truncated_zeta(with_flag(before, False), n_prev, backend="exact"), n_prev)
        assert lhs == rhs


def test_build_diagonal_single_stage_reduces_to_fixed_type():
    targets = [(Fraction(1), LieType("A", 2), 5)]
    spec, cert = build_diagonal(Fraction(2), targets, 10 ** 8)
    assert cert.stages[0].dropped == 0  # nothing to delete below dimension 1
    assert exact_abscissa(spec).abscissa == Fraction(2)


def test_build_diagonal_rejects_bad_targets():
    with pytest.raises(PreconditionError):
        build_diagonal(Fraction(2), [(Fraction(2), LieType("A", 2), 5)])  # rho_m >= rho
    with pytest.raises(PreconditionError):
        build_diagonal(
            Fraction(2),
            [(Fraction(1), LieType("A", 3), 5), (Fraction(3, 2), LieType("A", 3), 5)],
        )  # ranks not strictly increasing
    with pytest.raises(PreconditionError):
        build_diagonal(
            Fraction(2),
            [(Fraction(3, 2), LieType("A", 2), 5), (Fraction(1), LieType("A", 3), 5)],
        )  # rho_m not increasing


def test_build_diagonal_budget_exhaustion_reports_partial():
    targets = default_diagonal_targets(Fraction(2), 4, 5)
    with pytest.raises(BudgetExceededError) as info:
        build_diagonal(Fraction(2), targets, 40)
    partial = info.value.partial
    assert isinstance(partial, DiagonalCertificate)
    assert not partial.complete


def test_tight_budgets_raise_the_partial_certificate_of_the_stages_done():
    targets = default_diagonal_targets(Fraction(2), 4, 5)
    _, full = build_diagonal(Fraction(2), targets)
    done = set()
    for budget in range(1, 400, 3):
        try:
            build_diagonal(Fraction(2), targets, budget)
        except BudgetExceededError as e:
            assert str(e) == f"work budget {budget} exhausted"
            k = len(e.partial.stages)
            assert e.partial == DiagonalCertificate(Fraction(2), full.stages[:k], complete=False)
            done.add(k)
    assert done == {0, 1, 2, 3}


# the (rho, stages, p) cases of the diagonal_certificate benchmark workload
BENCHMARK_CASES = [
    (Fraction(2), 7, 5),
    (Fraction(3), 7, 5),
    (Fraction(5, 2), 6, 7),
    (Fraction(2), 6, 7),
]


def _stages_done(rho, targets, budget):
    """len(partial.stages) when the budget runs out, None when it does not."""
    try:
        build_diagonal(rho, targets, budget)
    except BudgetExceededError as e:
        return len(e.partial.stages)
    return None


def test_budgets_run_out_at_the_same_union():
    # every union formed counts its entries, memo hits included, so budgets
    # run out at the same union: on the grid of the test above, edges holds
    # the last budget with k stages done; in the (3, 7, 5) benchmark case
    # stage k ends once `used` union entries have been formed.  Check (i)'s
    # count of built is formed before the candidates, and a candidate
    # rejected at its onset forms no union
    targets = default_diagonal_targets(Fraction(2), 4, 5)
    edges = [(16, 0), (55, 1), (127, 2), (262, 3)]
    want = {b: next((k for top, k in edges if b <= top), None) for b in range(1, 400, 3)}
    assert {b: _stages_done(Fraction(2), targets, b) for b in want} == want
    targets = default_diagonal_targets(Fraction(3), 7, 5)
    for k, used in enumerate([17, 52, 141, 275, 489, 883, 1427], start=1):
        assert _stages_done(Fraction(3), targets, used - 1) == k - 1
        assert _stages_done(Fraction(3), targets, used) == (k if k < 7 else None)


@pytest.mark.parametrize("rho, stages, p", BENCHMARK_CASES)
def test_build_diagonal_leaves_no_reference_cycles(rho, stages, p):
    # the memos live in one call and hold no cycle, so nothing waits for the
    # cyclic collector once build_diagonal returns
    gc.collect()
    gc.disable()
    try:
        build_diagonal(rho, default_diagonal_targets(rho, stages, p))
        assert gc.collect() == 0
    finally:
        gc.enable()


# the most stage series, truncated_zeta and convolve calls of each benchmark
# case: every stage is past A1 over one prime, so every stage series comes
# from its stratum's run, and truncated_zeta forms none; a candidate
# rejected at its onset by one exact count forms neither
BENCHMARK_CALLS = [(48, 0, 29), (49, 0, 30), (49, 0, 31), (40, 0, 22)]
# kernel updates of every convolve in the build: the pairs of each union
# tuple at the largest cutoff it is read at, each formed at most once
BENCHMARK_UPDATES = [6179, 6181, 2746, 3299]


@pytest.mark.parametrize("case, most", list(zip(BENCHMARK_CASES, BENCHMARK_CALLS)))
def test_build_diagonal_forms_each_product_once_per_cutoff(monkeypatch, case, most):
    # one memo of the product of each tuple of strata: the last sweep union
    # serves its stage's n(m) search and the next stage's early cutoffs with
    # no convolve, and with no A1 stage no series is formed in the simple
    # view, by a stratum's run or by truncated_zeta
    calls = dict.fromkeys(["stage", "truncated_zeta", "convolve"], 0)
    simple = []

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            if name == "stage":
                simple.append(args[1].simple)
            elif name == "truncated_zeta":
                simple.extend(s.simple for s in args[0].strata)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(_Unions, "stage")
    counted(constructor, "truncated_zeta")
    counted(constructor, "convolve")
    rho, stages, p = case
    build_diagonal(rho, default_diagonal_targets(rho, stages, p))
    assert calls["stage"] <= most[0]
    assert calls["truncated_zeta"] <= most[1]
    assert calls["convolve"] <= most[2]
    assert simple and not any(simple)


@pytest.mark.parametrize(
    "case, most", list(zip(BENCHMARK_CASES, BENCHMARK_UPDATES)), ids=[f"case{i}" for i in range(len(BENCHMARK_CASES))]
)
def test_a_union_extended_to_a_larger_cutoff_forms_only_its_new_pairs(monkeypatch, case, most):
    # every kernel update assigns one key of its accumulator
    updates = []

    class Tally(dict):
        def __setitem__(self, key, value):
            updates.append(key)
            super().__setitem__(key, value)

    real = dirichlet._mul_into

    def counted(acc, *args):
        tally = Tally(acc)
        fresh = real(tally, *args)
        acc.update(tally)
        return fresh

    monkeypatch.setattr(dirichlet, "_mul_into", counted)
    rho, stages, p = case
    build_diagonal(rho, default_diagonal_targets(rho, stages, p))
    assert 0 < len(updates) <= most


@pytest.mark.parametrize(
    "rho, rhos, want",
    [
        (Fraction(2), (Fraction(15, 8), Fraction(31, 16)), [(4, 30517578125), (8, 5 ** 18)]),
        (Fraction(3), (Fraction(23, 8), Fraction(47, 16)), [(4, 30517578125), (8, 5 ** 18)]),
    ],
)
def test_rejected_candidates_in_the_first_stage_and_later(rho, rhos, want):
    # rho_m close to rho makes both stages reject candidates, the first one
    # while nothing is built yet; (dropped, n_m) as a memo of one series per
    # stratum found them
    targets = [(r, LieType("A", rank), 5) for r, rank in zip(rhos, (2, 3))]
    _, cert = build_diagonal(rho, targets)
    assert [(st.dropped, st.n_m) for st in cert.stages] == want


@pytest.mark.parametrize("rho, stages, p", BENCHMARK_CASES)
def test_prefix_scans_find_the_full_cutoff_hit(rho, stages, p):
    # build_diagonal scans prefixes at C = max(n(m-1), 2)^2, squared at each
    # step; a hit <= C must be the hit at the full cutoff, and none below it
    spec, cert = build_diagonal(rho, default_diagonal_targets(rho, stages, p))
    strata = GroupSpec(tuple(st.stratum for st in spec.strata[0].stages))
    full = cert.stages[-1].n_m ** 2
    n_prev = 1
    for m, record in enumerate(cert.stages, start=1):
        target = record.rho_m - Fraction(1, m)
        scans = [
            (True, _slope_test(target, False)),
            (False, _slope_test(rho, True)),
        ]
        for simple, test in scans:
            union = with_flag(strata, simple)
            at_full = _first_past(truncated_zeta(union, full, backend="exact"), n_prev, test)
            if simple:  # later stages add nothing at or below n(m)
                assert at_full[0] == record.n_m
            C = max(n_prev, 2) ** 2
            while C < full:
                at_C = _first_past(truncated_zeta(union, C, backend="exact"), n_prev, test)
                if at_full[0] is not None and at_full[0] <= C:
                    assert at_C == at_full
                else:
                    assert at_C[0] is None
                C *= C
        n_prev = record.n_m


def _j_star(rho, rho_m):
    return math.ceil(Fraction(1, 2) / (rho - rho_m)) + 1


@pytest.mark.parametrize("rho, stages, p", BENCHMARK_CASES)
def test_decide_replays_each_stage_of_the_certificate(rho, stages, p):
    # check (ii) at each stage's recorded skip, on a fresh union source,
    # accepts with the recorded sweep window, and one factor fewer dropped
    # is rejected, unless that skip is below the (i) walk's start
    spec, cert = build_diagonal(rho, default_diagonal_targets(rho, stages, p))
    built, n_prev, rejected = (), 1, 0
    for stage, record in zip(spec.strata[0].stages, cert.stages):
        stratum = stage.stratum.with_simple(False)
        j_star = _j_star(rho, record.rho_m)
        swept_to = int(record.checks[1].detail["swept_to"])
        assert _decide(_Unions(10 ** 9), built, stratum, rho, n_prev, j_star) == swept_to
        start = next(s for s in range(record.dropped + 1) if stratum.min_dim_at(s + 1) > n_prev)
        if record.dropped > start:
            unions = _Unions(10 ** 9)
            fewer = replace(stratum, skip=record.dropped - 1)
            assert _decide(unions, built, fewer, rho, n_prev, j_star) is None
            assert (*built, fewer) not in unions.memo and fewer not in unions.runs
            rejected += 1
        built, n_prev = (*built, stratum), record.n_m
    assert rejected


def test_a_violation_below_the_onset_is_an_invariant_error():
    # built stages are accepted under rho, so no public input reaches this:
    # a built stratum of rate 3 > rho = 2 passes rho below the onset of
    # every early A3 candidate
    rho = Fraction(2)
    built = (build_fixed_type(Fraction(3), LieType("A", 2), 5).strata[0].with_simple(False),)
    base = build_fixed_type(Fraction(3, 2), LieType("A", 3), 5).strata[0].with_simple(False)
    for skip in range(4):
        candidate = replace(base, skip=skip)
        with pytest.raises(InvariantError, match="stage 2: slope exceeds rho at 125, below"):
            _decide(_Unions(10 ** 9), built, candidate, rho, 1, _j_star(rho, Fraction(3, 2)))


def _a(rank):
    return LieType("A", rank)


# the builds the onset test is checked on: the benchmark cases, 12 stages at
# p = 5, and the golden corpus's diagonal-p7, diagonal-two-primes and
# diagonal-a1-first-onset builds
ONSET_CASES = [
    *(pytest.param(rho, default_diagonal_targets(rho, n, p), id=f"case{i}") for i, (rho, n, p) in enumerate(BENCHMARK_CASES)),
    pytest.param(Fraction(2), default_diagonal_targets(Fraction(2), 12, 5), id="12-stages"),
    pytest.param(
        Fraction(5, 2),
        [(Fraction(3, 2), _a(2), 7), (Fraction(2), LieType("C", 3), 7), (Fraction(9, 4), _a(5), 7)],
        id="p7",
    ),
    pytest.param(
        Fraction(2), [(Fraction(2 * m - 1, m), _a(m + 1), 7 if m % 2 == 0 else 5) for m in range(1, 9)], id="two-primes"
    ),
    pytest.param(Fraction(2), [(Fraction(3, 2), A1, 5), (Fraction(7, 4), _a(2), 5)], id="a1-first"),
]


@pytest.mark.parametrize("rho, targets", ONSET_CASES)
def test_the_onset_test_decides_each_candidate_as_the_sweep_does(rho, targets):
    # every candidate from the (i) walk's start to the recorded skip, decided
    # with the onset test (built's count at n(m-1) and the last stage's sweep
    # window, as the build passes them) and by the sweep alone: the same
    # verdict.  An onset rejection forms nothing, lies in built's clean
    # window, and is a sweep violation exactly at the onset d0; and on these
    # builds every sweep violation at an onset inside that window is one
    spec, cert = build_diagonal(rho, targets)
    sweeps = _Unions(10 ** 9)
    built, n_prev, window, at_onset = (), 1, None, 0
    for stage, record in zip(spec.strata[0].stages, cert.stages):
        stratum = stage.stratum.with_simple(False)
        j_star = _j_star(rho, record.rho_m)
        r_prev = int(record.checks[0].detail["cumulative"])
        swept_to = int(record.checks[1].detail["swept_to"])
        start = next(s for s in range(record.dropped + 1) if stratum.min_dim_at(s + 1) > n_prev)
        for skip in range(start, record.dropped + 1):
            candidate = replace(stratum, skip=skip)
            d0 = candidate.min_dim_at(skip + 1)
            unions = _Unions(10 ** 9)
            verdict = _decide(unions, built, candidate, rho, n_prev, j_star, r_prev, window)
            assert verdict == _decide(sweeps, built, candidate, rho, n_prev, j_star)
            assert verdict == (swept_to if skip == record.dropped else None)
            if verdict is None:
                hit, _ = sweeps.first_past((*built, candidate), n_prev, rho, True, d0)
                tier = unions.used == 0
                assert tier == (hit == d0 and (not built or d0 <= window))
                if tier:
                    assert not unions.memo and not unions.runs
                    at_onset += 1
        built, n_prev, window = (*built, stratum), record.n_m, swept_to
    assert at_onset


def test_the_onset_test_reads_built_only_inside_its_clean_window():
    # the onset count bounds the union's count at d0 from below, but a
    # verdict at d0 also needs built clean on (n(m-1), d0): this built
    # passes rho at 125, past the window 124 it is given, so the sweep, not
    # the onset test, decides the A3 candidate, whose onset count passes
    # rho at 15625, and finds built's violation
    rho = Fraction(2)
    built = (build_fixed_type(Fraction(3), _a(2), 5).strata[0].with_simple(False),)
    candidate = build_fixed_type(Fraction(3, 2), _a(3), 5).strata[0].with_simple(False)
    j_star = _j_star(rho, Fraction(3, 2))
    with pytest.raises(InvariantError, match="stage 2: slope exceeds rho at 125, below"):
        _decide(_Unions(10 ** 9), built, candidate, rho, 1, j_star, 1, 124)
    # with nothing built, the same count rejects it with nothing formed
    unions = _Unions(10 ** 9)
    assert _decide(unions, (), candidate, rho, 1, j_star, 1) is None
    assert unions.used == 0 and not unions.memo and not unions.runs


def test_certificate_json_shape():
    targets = default_diagonal_targets(Fraction(2), 2, 5)
    _, cert = build_diagonal(Fraction(2), targets, 10 ** 8)
    obj = cert.to_jsonable()
    assert obj["rho"] == "2" and obj["complete"]
    stage = obj["stages"][0]
    assert {"m", "rho_m", "dropped", "n_m", "checks"} <= set(stage)
    names = [c["name"] for c in stage["checks"]]
    assert names == ["no-new-small-reps", "never-larger-than-rho", "close-to-rho-m"]


def test_build_diagonal_ten_stages_with_small_gaps():
    # gaps rho - rho_m = 1/m shrink, so onset spikes reach factor index ~m/2;
    # the sweep window must cover them all and drop roughly m/2 factors
    targets = default_diagonal_targets(Fraction(2), 10, 5)
    spec, cert = build_diagonal(Fraction(2), targets, 10 ** 9)
    assert cert.complete
    drops = [s.dropped for s in cert.stages]
    assert drops == sorted(drops)
    assert drops[-1] >= 4
    assert exact_abscissa(spec).abscissa == Fraction(2)
    # independent wide exact sweep of the final union: slope <= 2 everywhere
    strata = tuple(s.stratum for s in spec.strata[0].stages)
    union = with_flag(GroupSpec(strata), False)
    N = min(s.min_dim_at(s.skip + 8) for s in strata)
    series = truncated_zeta(union, N, backend="exact")
    running = 0
    for d, mult in series.items():
        running += mult
        if d > 1:
            assert running <= d * d
