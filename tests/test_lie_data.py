import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.dirichlet import DirichletSeries
from repgrowth.errors import PreconditionError
from repgrowth.lie_data import (
    LieType,
    PairSet,
    canonical_pair_set,
    model_xi,
    positive_root_count,
    require_pair_set,
    rho0,
    tits_excluded,
    validate_pair_set,
)


# -- oracle: enumerate the root systems as explicit vectors -----------------


def _unit(n, i, v=1):
    e = [0] * n
    e[i] = v
    return tuple(e)


def enumerate_roots(family, rank):
    roots = set()
    if family == "A":
        n = rank + 1
        for i, j in product(range(n), repeat=2):
            if i != j:
                e = [0] * n
                e[i], e[j] = 1, -1
                roots.add(tuple(e))
    elif family in ("B", "C", "D"):
        for i, j in combinations(range(rank), 2):
            for si, sj in product((1, -1), repeat=2):
                e = [0] * rank
                e[i], e[j] = si, sj
                roots.add(tuple(e))
        if family == "B":
            for i in range(rank):
                roots.add(_unit(rank, i, 1))
                roots.add(_unit(rank, i, -1))
        if family == "C":
            for i in range(rank):
                roots.add(_unit(rank, i, 2))
                roots.add(_unit(rank, i, -2))
    elif family == "G2":
        base = [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        for r in base:
            roots.add(r)
            roots.add(tuple(-x for x in r))
    elif family == "F4":
        for i in range(4):
            roots.add(_unit(4, i, 2))
            roots.add(_unit(4, i, -2))
        for i, j in combinations(range(4), 2):
            for si, sj in product((2, -2), repeat=2):
                e = [0] * 4
                e[i], e[j] = si, sj
                roots.add(tuple(e))
        for signs in product((1, -1), repeat=4):
            roots.add(signs)  # the (+-1 +-1 +-1 +-1)/2 roots, doubled
    else:  # E6, E7, E8 inside the even coordinate system of E8
        e8 = set()
        for i, j in combinations(range(8), 2):
            for si, sj in product((2, -2), repeat=2):
                e = [0] * 8
                e[i], e[j] = si, sj
                e8.add(tuple(e))
        for signs in product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                e8.add(signs)  # (+-1/2)^8 roots, doubled
        if family == "E8":
            roots = e8
        elif family == "E7":
            roots = {r for r in e8 if r[6] + r[7] == 0}
        else:  # E6
            roots = {r for r in e8 if r[6] + r[7] == 0 and r[5] + r[7] == 0}
    return roots


ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(3, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_count_vs_enumeration(family, rank):
    t = LieType(family, rank)
    roots = enumerate_roots(family, rank)
    assert len(roots) % 2 == 0
    assert positive_root_count(t) == len(roots) // 2


def test_positive_root_count_examples():
    assert positive_root_count(LieType("A", 1)) == 1
    assert positive_root_count(LieType("A", 2)) == 3
    assert positive_root_count(LieType("D", 4)) == 12


def test_rho0_examples():
    assert rho0(LieType("A", 1)) == Fraction(1)
    assert rho0(LieType("A", 2)) == Fraction(2, 3)
    assert rho0(LieType("E8")) == Fraction(1, 15)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_rank_positive_roots_and_threshold_bounds(family, rank):
    t = LieType(family, rank)
    assert 1 <= t.rank <= positive_root_count(t)
    assert Fraction(0) < rho0(t) <= Fraction(1)


def test_rank_range_enforced():
    with pytest.raises(PreconditionError):
        LieType("E6", 7)
    with pytest.raises(PreconditionError):
        LieType("D", 3)
    with pytest.raises(PreconditionError):
        LieType("B", 1)
    with pytest.raises(PreconditionError):
        LieType("X", 2)


def test_twist_legality():
    LieType("A", 2, twisted=True)
    LieType("D", 4, twisted=True)
    LieType("E6", 6, twisted=True)
    for bad in (("A", 1), ("B", 3), ("C", 4), ("G2", 2), ("F4", 4), ("E7", 7)):
        with pytest.raises(PreconditionError):
            LieType(*bad, twisted=True)


def test_tits_exclusions():
    assert tits_excluded(LieType("A", 1), 2)
    assert tits_excluded(LieType("A", 1), 3)
    assert not tits_excluded(LieType("A", 1), 4)
    assert tits_excluded(LieType("A", 2, twisted=True), 2)
    assert tits_excluded(LieType("B", 2), 2)
    assert tits_excluded(LieType("G2", 2), 2)
    assert not tits_excluded(LieType("A", 2), 2)


def test_validate_pair_set_examples():
    a1 = LieType("A", 1)
    assert validate_pair_set(PairSet([(1, 1)]), a1).ok
    report = validate_pair_set(PairSet([(2, 1)]), a1)
    assert not report.ok
    assert len(report.violations) == 2  # m > rk and m/n > rk/|Phi+|
    a2 = LieType("A", 2)
    assert validate_pair_set(PairSet([(1, 3), (2, 3)]), a2).ok


def test_empty_pair_set_does_not_validate():
    # it has no minimal dimension; PairSet([]) itself stays legal
    for family, rank in ALL_TYPES:
        t = LieType(family, rank)
        report = validate_pair_set(PairSet([]), t)
        assert not report.ok and report.violations == ((None, "the set is empty"),)
        with pytest.raises(PreconditionError, match="empty"):
            require_pair_set(PairSet([]), t)


def test_canonical_pair_always_validates():
    for family, rank in ALL_TYPES:
        t = LieType(family, rank)
        assert validate_pair_set(canonical_pair_set(t), t).ok


def test_validation_distributes_over_union():
    t = LieType("A", 2)
    good = PairSet([(1, 3)])
    bad = PairSet([(3, 1)])
    assert validate_pair_set(PairSet(good.pairs | good.pairs), t).ok
    assert not validate_pair_set(PairSet(good.pairs | bad.pairs), t).ok


def test_model_xi_examples():
    assert dict(model_xi(PairSet([(1, 1)]), 5, 10).items()) == {5: 5}
    assert not model_xi(PairSet([]), 5, 10)
    assert dict(model_xi(PairSet([(1, 1), (0, 2)]), 3, 100).items()) == {3: 3, 9: 1}


def test_model_xi_truncates():
    assert dict(model_xi(PairSet([(1, 1), (0, 3)]), 5, 10).items()) == {5: 5}


@pytest.mark.parametrize("backend", ["bogus", "Exact", "LOG", ""])
def test_model_xi_refuses_an_unknown_backend(backend):
    # a misspelt backend must not fall through to the log branch
    with pytest.raises(PreconditionError, match=f"unknown backend '{backend}'"):
        model_xi(canonical_pair_set(LieType("A", 2)), 5, 100, backend)


def test_model_xi_log_backend_holds_the_logs_of_the_exact_counts():
    a = canonical_pair_set(LieType("A", 2))
    exact, logd = model_xi(a, 5, 10 ** 4), model_xi(a, 5, 10 ** 4, "log")
    assert logd.backend == "log" and logd.dims == exact.dims
    assert logd.mults == tuple(map(math.log, exact.mults))


def test_model_xi_additive_over_disjoint_union():
    a = PairSet([(1, 1)])
    b = PairSet([(0, 2)])
    u = model_xi(PairSet(a.pairs | b.pairs), 3, 100)
    pieces = {}
    for s in (model_xi(a, 3, 100), model_xi(b, 3, 100)):
        for d, m in s.items():
            pieces[d] = pieces.get(d, 0) + m
    assert dict(u.items()) == pieces


def test_pair_set_rejects_bad_pairs():
    with pytest.raises(PreconditionError):
        PairSet([(0, 0)])
    with pytest.raises(PreconditionError):
        PairSet([(-1, 2)])


def test_lie_type_serialization_round_trip():
    for family, rank in ALL_TYPES:
        t = LieType(family, rank)
        assert LieType.from_jsonable(t.to_jsonable()) == t


@settings(max_examples=100, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(1, 8)), min_size=1, max_size=5))
def test_pair_set_roundtrip_and_min_exponent(pairs):
    a = PairSet(pairs)
    assert PairSet.from_jsonable(a.to_jsonable()) == a
    assert a.min_dim_exponent() == min(n for _, n in pairs)
