import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.constructor import (
    DiagonalCertificate,
    Schedule,
    _check_nonnegative,
    build_diagonal,
    build_fixed_type,
    convergence_certificate,
    default_diagonal_targets,
    make_schedule,
    prec_less,
    prec_min,
)
from repgrowth.dirichlet import cumulative
from repgrowth.errors import BudgetExceededError, InvariantError, PreconditionError
from repgrowth.growth import GroupSpec, exact_abscissa, truncated_zeta, with_flag
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


def test_nonnegativity_scan_agrees_with_schedule_f():
    schedules = [
        make_schedule(rho_m, t)
        for rho, stages, p in DIAGONAL_CASES
        for rho_m, t, _ in default_diagonal_targets(rho, stages, p)
    ]
    assert len(schedules) == 26
    # each stage schedule, then variants that f(j) >= 0 may reject
    cases = [
        v
        for s in schedules
        for v in (s, replace(s, m0=s.m0 + 1), replace(s, j0=1, m0=s.m0 + 1),
                  replace(s, rho=s.rho0 + Fraction(1, 10 ** 5)))
    ]
    # f(1) = k_1 - 2 = 0 only because 3/2 rounds half up; f(2) = 3 - 4
    cases.append(Schedule(Fraction(3, 2), Fraction(1), 2, 1, 1))
    failing = 0
    for v in cases:
        first = next((j for j in range(1, 10 ** 4 + 1) if v.f(j) < 0), None)
        if first is None:
            _check_nonnegative(v)
            continue
        failing += 1
        with pytest.raises(InvariantError, match=rf"f\({first}\) >= 0"):
            _check_nonnegative(v)
    assert failing >= 20  # 23 of the 105 cases fail the scan


@pytest.mark.parametrize(
    "fields",
    [
        {"rho": "1", "rho0": "1/2", "m0": 5, "n0": 1, "j0": 1},  # f(j) = k_j - 5j < 0
        {"rho": "3/2", "rho0": "1", "m0": 2, "n0": 1, "j0": 1},  # f(2) = 3 - 4
        {"rho": "7/5", "rho0": "1", "m0": 6, "n0": 5, "j0": 1},  # rate 1, but f(1) = 5 - 6
    ],
)
def test_json_schedule_without_the_positivity_bound_is_refused(fields):
    with pytest.raises(PreconditionError, match=r"2\*j0\*\(n0\*rho - m0\) >= n0"):
        Schedule.from_jsonable({"kind": "schedule", **fields})


def test_schedule_json_round_trip():
    sched = make_schedule(Fraction(3, 2), LieType("A", 2))
    assert Schedule.from_jsonable(sched.to_jsonable()) == sched
    # every stage schedule passes from_jsonable's bound, for the reason given there
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


def test_convergence_certificate_two_sided():
    sched = make_schedule(Fraction(2), A1)
    pairs = canonical_pair_set(A1)
    up = convergence_certificate(sched, pairs, Fraction(9, 4), horizon=200)
    assert up.verdict == "converges" and up.ok
    down = convergence_certificate(sched, pairs, Fraction(7, 4), horizon=200)
    assert down.verdict == "diverges" and down.ok


def test_convergence_certificate_exact_slope_signs():
    # the two-sided proof, checked in rational arithmetic over j <= 500
    sched = make_schedule(Fraction(2), A1)
    eps = Fraction(1, 8)
    for j in range(max(sched.j0, 16), 501):
        up = Fraction(sched.f(j), j) + (sched.m0 - sched.n0 * (sched.rho + eps))
        assert up <= -sched.n0 * eps / 2
        down = Fraction(sched.f(j), j) + (sched.m0 - sched.n0 * (sched.rho - eps))
        assert down >= 0


def test_convergence_certificate_rejects_sigma_rho():
    sched = make_schedule(Fraction(2), A1)
    with pytest.raises(PreconditionError):
        convergence_certificate(sched, canonical_pair_set(A1), Fraction(2))


# -- the diagonal construction -----------------------------------------------


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
