import hashlib
import itertools
import json
import math
import random
import re
import sys
import warnings
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.char_tables import primes_from, psl2_table, sl2_table, zeta_series
from repgrowth.constructor import (
    build_diagonal,
    build_fixed_type,
    default_diagonal_targets,
    make_schedule,
    prec_min,
)
from repgrowth import dirichlet
from repgrowth.dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    RangeOverflow,
    _log_prefix_sums,
    _logaddexp,
    convolve,
    cumulative,
    mult_to_int,
    power_one_plus,
)
from repgrowth import growth
from repgrowth.invariants import cover_quotient, sim_C
from repgrowth.errors import PreconditionError, SpecFormatError
from repgrowth.growth import (
    STRATUM_KINDS,
    DiagonalStratum,
    FactorSpec,
    FiniteStratum,
    GeometricStratum,
    GroupSpec,
    PolyExponent,
    PrgVerdict,
    PrimeStratum,
    RateSummary,
    Schedule,
    SlopePoint,
    TruncationWarning,
    _contributions,
    empirical_slope,
    exact_abscissa,
    m_n,
    m_ns,
    prg_verdict,
    sl2_over_primes_spec,
    truncated_zeta,
    with_flag,
)
from repgrowth.lie_data import LieType, PairSet, rho0, tits_excluded, xi_terms
from test_acceptance import _brute_product, _degrees
from test_dirichlet import count_series_inits

A1 = LieType("A", 1)


def finite_spec(*factors):
    return GroupSpec((FiniteStratum(tuple(factors)),))


def checked_factor(f):
    """A factor of a stratum walk, a _Factor that runs no check, as the
    checked FactorSpec of its fields."""
    return FactorSpec(f.lie_type, f.q, f.simple, f.multiplicity, f.pairs)


def checked_walk(tower, bound):
    """(degree, checked FactorSpec) at each index of a geometric or prime
    tower while the degree is <= bound, built from the stratum's fields
    alone, and the degree at the index where the walk stops."""
    if isinstance(tower, PrimeStratum):
        factors = (FactorSpec(A1, p, tower.simple, tower.multiplicity(p)) for p in primes_from(tower.p_min))
    else:
        factors = (
            FactorSpec(tower.lie_type, tower.q ** j, tower.simple, tower.multiplicity(j), tower.pairs)
            for j in itertools.count(tower.skip + 1)
        )
    walk = []
    for f in factors:
        d = f.min_nontrivial_dim()
        if d > bound:
            return walk, d
        walk.append((d, f))


def _bits(m):
    """The bit length of a multiplicity: BigPower.bits() if it is kept
    unexpanded, else int.bit_length()."""
    return m.bits() if isinstance(m, BigPower) else m.bit_length()


# -- truncated_zeta ----------------------------------------------------------


def test_single_psl2_5_factor_is_a5_series():
    spec = finite_spec(FactorSpec(A1, 5, simple=True))
    s = truncated_zeta(spec, 5)
    assert dict(s.items()) == {1: 1, 3: 2, 4: 1, 5: 1}


def test_psl2_5_squared_r25():
    spec = finite_spec(FactorSpec(A1, 5, simple=True, multiplicity=2))
    s = truncated_zeta(spec, 25)
    assert cumulative(s, 25) == 25


def test_psl2_5_cubed_vs_brute_force():
    spec = finite_spec(FactorSpec(A1, 5, simple=True, multiplicity=3))
    s = truncated_zeta(spec, 125)
    a5 = _degrees(psl2_table(5))
    assert dict(s.items()) == _brute_product([a5, a5, a5], 125)


def test_sl2_5_times_psl2_7_vs_brute_force():
    spec = finite_spec(FactorSpec(A1, 5, simple=False), FactorSpec(A1, 7, simple=True))
    s = truncated_zeta(spec, 100)
    oracle = _brute_product(
        [_degrees(sl2_table(5)), _degrees(psl2_table(7))], 100
    )
    assert dict(s.items()) == oracle


def reference_unit_series(f, N, backend):
    """A factor's zeta series through the character tables (A1) or a
    DirichletSeries of its pair-set terms, independent of FactorSpec."""
    if f.lie_type == A1:
        return zeta_series(psl2_table(f.q) if f.simple else sl2_table(f.q), N, backend)
    entries = xi_terms(f.pair_set(), f.q, N)
    entries[1] = 1
    if backend == "log":
        entries = {d: math.log(m) for d, m in entries.items()}
    return DirichletSeries(N, entries, backend)


def reference_power(s, M, N):
    """(1 + x)^M at dims <= N as the sum over k of C(M, k) x^k, each x^k a
    plain convolve power: an oracle that does not go through _power_terms."""
    M = mult_to_int(M)
    x = DirichletSeries(N, [(d, m) for d, m in s.items() if d != 1])
    out, xk = {1: 1}, DirichletSeries(N, {1: 1})
    for k in itertools.count(1):
        xk = convolve(xk, x, N)
        c = math.comb(M, k)
        if not xk or c == 0:
            return DirichletSeries(N, out)
        for d, m in xk.items():
            out[d] = out.get(d, 0) + c * m


def convolve_chain(factors, N, backend):
    """Reference reduction, computed exactly: one pairwise convolve per
    powered factor, in order; on the log backend, the logs of the result."""
    result = DirichletSeries(N, {1: 1})
    for f in factors:
        s = reference_unit_series(f, N, "exact")
        if f.multiplicity != 1:
            powered = power_one_plus(s, f.multiplicity, N)
            assert powered == reference_power(s, f.multiplicity, N)
            s = powered
        result = convolve(result, s, N)
    return result if backend == "exact" else result.to_log()


A1_FIELD_SIZES = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)
a1_factor = st.builds(
    lambda q, simple, mult: FactorSpec(A1, q, simple=simple, multiplicity=mult),
    st.sampled_from(A1_FIELD_SIZES),
    st.booleans(),
    st.integers(1, 4),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(a1_factor, min_size=1, max_size=4), st.integers(1, 400))
def test_accumulator_matches_convolve_chain_and_brute_force(factors, N):
    # the list order is random, so minimal dimensions arrive out of order
    spec = finite_spec(*factors)
    got = truncated_zeta(spec, N)
    assert got == convolve_chain(factors, N, "exact")
    tables = [sl2_table(f.q) if not f.simple else psl2_table(f.q) for f in factors]
    oracle = _brute_product(
        [_degrees(t) for t, f in zip(tables, factors) for _ in range(f.multiplicity)], N
    )
    assert dict(got.items()) == oracle

    got_log = truncated_zeta(spec, N, backend="log")
    want_log = convolve_chain(factors, N, "log")
    assert got_log.dims == want_log.dims
    for a, b in zip(got_log.mults, want_log.mults):
        assert abs(a - b) < 1e-9  # log ratio, so relative 1e-9 on the counts


def test_accumulator_matches_convolve_chain_at_sparse_cutoff():
    spec = GroupSpec(
        build_fixed_type(Fraction(3, 2), LieType("A", 2), 5).strata
        + build_fixed_type(Fraction(2), LieType("A", 3), 7).strata
    )
    N = 2 ** 100
    factors = [f for s in spec.strata for _, f in checked_walk(s, N)[0]]
    got = truncated_zeta(spec, N, backend="exact")
    assert len(got) > len(factors)
    assert got == convolve_chain(factors, N, "exact")


def _geometric(lie_type, q, simple, coeffs):
    return GroupSpec((GeometricStratum(lie_type, q, PolyExponent(coeffs), simple),))


DIFFERENTIAL_SPECS = {
    "primes-d3": (lambda: sl2_over_primes_spec(3), (1, 2, 3, 4, 9, 10, 97, 600)),
    "primes-d3-simple": (lambda: with_flag(sl2_over_primes_spec(3), True), (1, 4, 60, 600)),
    "primes-d4": (lambda: sl2_over_primes_spec(4), (1, 5, 150, 400)),
    "primes-d5": (lambda: sl2_over_primes_spec(5), (1, 5, 150, 300)),
    "A1-simple": (lambda: _geometric(A1, 5, True, (0, 2)), (1, 3, 30, 700, 5000)),
    "A1-cover": (lambda: _geometric(A1, 9, False, (1, 1)), (1, 4, 50, 3000)),
    "A2": (lambda: build_fixed_type(Fraction(3, 2), LieType("A", 2), 5), (1, 25, 10 ** 6, 2 ** 80)),
    "B2": (lambda: _geometric(LieType("B", 2), 3, True, (0, 1)), (1, 3, 10 ** 5, 2 ** 80)),
    "diagonal": (lambda: _diagonal_spec(), (1, 10, 10 ** 4, 10 ** 7)),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
def test_closed_form_terms_match_the_table_chain(name):
    # the exact backend is bit-identical to the table chain (zeta_series of
    # sl2_table/psl2_table, power_one_plus, convolve); the log backend is
    # within 1e-9 of that chain's logs
    make, Ns = DIFFERENTIAL_SPECS[name]
    spec = make()
    for N in Ns:
        factors = [checked_factor(f) for _, f in _contributions(spec, N)]
        assert truncated_zeta(spec, N, backend="exact") == convolve_chain(factors, N, "exact")
        got_log = truncated_zeta(spec, N, backend="log")
        want_log = convolve_chain(factors, N, "log")
        assert got_log.dims == want_log.dims
        for a, b in zip(got_log.mults, want_log.mults):
            assert abs(a - b) < 1e-9
        for f in factors:
            for backend in ("exact", "log"):
                want = [(d, m) for d, m in reference_unit_series(f, N, backend).items() if d != 1]
                assert f.item.x_terms(N, backend) == want
                assert f.unit_series(N, backend) == reference_unit_series(f, N, backend)


TOWER_WALKS = {
    "geometric-pairs": (
        lambda: GeometricStratum(
            LieType("A", 2), 4, PolyExponent((1, 2)), pairs=PairSet([(1, 3), (2, 3)])
        ),
        (1, 4095, 4096, 10 ** 20, 2 ** 200),
    ),
    "primes-cover": (lambda: PrimeStratum(5, 1), (1, 2, 3, 50, 1000)),
    "primes-simple": (lambda: PrimeStratum(7, 2, simple=True), (1, 4, 60, 1000)),
    "diagonal": (lambda: _diagonal_spec().strata[0], (1, 10, 10 ** 4, 10 ** 7, 10 ** 8)),
}


@pytest.mark.parametrize("name", sorted(TOWER_WALKS))
def test_tower_walk_forms_each_field_once(name):
    # factors_below yields, at each index before the first whose degree
    # passes the bound, the degree and the item of the checked FactorSpec
    # built at that index from the stratum's fields
    make, bounds = TOWER_WALKS[name]
    stratum = make()
    towers = [st.stratum for st in stratum.stages] if name == "diagonal" else [stratum]
    longest = 0
    for bound in bounds:
        got = list(stratum.factors_below(bound))
        want = []
        for t in towers:
            walk, stop = checked_walk(t, bound)
            want += walk
            assert stop > bound
        assert [(d, checked_factor(f)) for d, f in got] == want, bound
        # p and k too, which the graded key rule reads, are what the checks give
        assert all(type(f) is growth._Factor and f == checked_factor(f).item for _, f in got)
        assert [f for _, f in got] == [f.item for _, f in want]
        longest = max(longest, len(got))
    assert longest >= 3


STAGE_TOWERS = [(Fraction(2), A1), (Fraction(2), LieType("A", 2)), (Fraction(3), LieType("B", 2))]


@pytest.mark.parametrize("simple", [False, True], ids=["cover", "simple"])
def test_each_min_dim_at_is_the_degree_its_walk_yields(simple):
    # GeometricStratum.min_dim_at(j) and PrimeStratum.min_dim_at(p) are the
    # degrees the walks yield at j and p (head and tail items alike), and the
    # least dimension of that factor's own terms (a1_terms on A1)
    for rho, t in STAGE_TOWERS:
        base = build_fixed_type(rho, t, 5).strata[0].with_simple(simple)
        for s in (base, base.with_skip(2)):
            walk = list(s.factors_below(5 ** 40))
            assert len(walk) >= 3
            for j, (d, f) in zip(itertools.count(s.skip + 1), walk):
                assert s.min_dim_at(j) == d == f.x_terms(d, EXACT)[0][0]
            assert s.min_dim_at(s.skip + len(walk) + 1) > 5 ** 40
    prime = PrimeStratum(5, 1, simple)
    head, tail = prime.split_walk(2000)
    assert head and tail
    for h, f in head + list(tail):
        assert prime.min_dim_at(f.p) == h == f.x_terms(h, EXACT)[0][0]


def _patch_everywhere(monkeypatch, fn, replacement):
    """Rebind fn under every name that binds it in a repgrowth module."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "repgrowth":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def test_prime_tower_builds_no_tables_and_few_series(monkeypatch):
    N = 3000
    spec = sl2_over_primes_spec(3)
    want = truncated_zeta(spec, N)
    walk = list(_contributions(spec, N))
    powers = [sum(1 for k in range(2, 64) if d ** k <= N) for d, _ in walk]
    bound = 1 + sum(powers) + sum(1 for n in powers if n)

    def refuse(q):
        raise AssertionError("a per-factor character table was built")

    for fn in (sl2_table, psl2_table):
        _patch_everywhere(monkeypatch, fn, refuse)
    calls = count_series_inits(monkeypatch)
    assert truncated_zeta(spec, N) == want
    assert len(walk) > 700 and 0 < sum(powers) < 100
    assert len(calls) <= bound


def test_only_powered_primes_build_a_factor_spec(monkeypatch):
    # at N = 3000, 27 of the 781 primes have least degree h with h^2 <= N
    # (5 <= p <= 109): only their x_f is raised to powers, so only they
    # build a checked FactorSpec and call prime_power
    N = 3000
    spec = sl2_over_primes_spec(3)
    walk = list(_contributions(spec, N))
    powered = [f.p for d, f in walk if d * d <= N]
    assert len(walk) == 781 and len(powered) == 27 and max(powered) == 109
    builds, calls = [], []
    post_init, real = FactorSpec.__post_init__, growth.prime_power
    monkeypatch.setattr(
        FactorSpec, "__post_init__", lambda self: builds.append(self.q) or post_init(self)
    )
    monkeypatch.setattr(growth, "prime_power", lambda q: calls.append(q) or real(q))
    truncated_zeta(spec, N)
    assert builds == calls == powered


def _prime_and_finite(p_min, E, simple, N):
    """A prime stratum and the finite stratum of checked FactorSpec(A1, p,
    simple, M) over the same primes, M the stratum's own multiplicity."""
    s = PrimeStratum(p_min, E, simple)
    primes = itertools.takewhile(lambda p: p <= 2 * N + 3, primes_from(p_min))
    finite = FiniteStratum(tuple(FactorSpec(A1, p, simple, s.multiplicity(p)) for p in primes))
    return GroupSpec((s,)), GroupSpec((finite,))


def _linear_edges(p_min, simple):
    """N = h^2 and h^2 - 1 at the least degree h of the first, second and
    sixth prime from p_min: there the prime's x_f^2 reaches N or just does
    not, so the factor is powered or linear."""
    s = PrimeStratum(p_min, 0, simple)
    first = list(itertools.islice(primes_from(p_min), 6))
    for p in (first[0], first[1], first[5]):
        h = s.min_dim_at(p)
        yield from (h * h - 1, h * h)


def _tail_edges(p_min, simple):
    """N = ((p_min - 1)/2)^2 - 1, where p_min > 2 sqrt(N) + 1 leaves no prime
    of least degree <= sqrt(N), and the least N whose tail has no source >=
    2: some prime's least degree is <= sqrt(N), and every one is past N //
    (the least degree past sqrt(N))."""
    s = PrimeStratum(p_min, 0, simple)
    hs = [s.min_dim_at(p) for p in itertools.islice(primes_from(p_min), 20)]
    empty = ((p_min - 1) // 2) ** 2 - 1
    assert all(h * h > empty for h in hs) and hs[0] <= empty
    for N in itertools.count(1):
        head, tail = [h for h in hs if h * h <= N], [h for h in hs if h * h > N]
        if head and min(head) > N // min(tail):
            return [empty, N]


@pytest.mark.parametrize("simple", [False, True], ids=["cover", "simple"])
@pytest.mark.parametrize("p_min", [5, 7, 13])
def test_prime_stratum_matches_its_finite_stratum_bit_for_bit(p_min, simple):
    # each prime's terms come from the closed form where it is linear and
    # from a checked FactorSpec where it is powered, and past sqrt(N) the
    # exact backend sums every prime's terms in columns: the bytes are
    # those of the same primes as FactorSpecs, on either backend
    edges = _linear_edges(p_min, simple)
    automatic = set()
    for N in sorted(set(edges) | set(_tail_edges(p_min, simple))) + [1000]:
        for E in (0, 1, 2):
            prime, finite = _prime_and_finite(p_min, E, simple, N)
            for backend in (EXACT, LOG):
                got = truncated_zeta(prime, N, backend=backend).to_json().encode()
                assert got == truncated_zeta(finite, N, backend=backend).to_json().encode()
        # on the automatic backend, E = 11 (60^11 ~ 2^65) is exact until a
        # prime's M passes 256 bits (p > 272), and E = 44 (60^44 ~ 2^260)
        # is log at every N
        for E in (11, 44):
            prime, finite = _prime_and_finite(p_min, E, simple, N)
            got = truncated_zeta(prime, N)
            bits = max(_bits(f.multiplicity) for _, f in _contributions(prime, N))
            assert got.backend == (LOG if bits > growth._MATERIALIZE_BITS else EXACT)
            assert got.to_json().encode() == truncated_zeta(finite, N).to_json().encode()
            automatic.add((E, got.backend))
    assert automatic == {(11, EXACT), (11, LOG), (44, LOG)}


def test_one_term_factors_build_no_series(monkeypatch):
    # every factor of a canonical-pair tower has a one-term x_f, so its
    # powers need no series: the only one built is the result
    N = 2 ** 100
    spec = build_fixed_type(Fraction(3, 2), LieType("A", 2), 5)
    want = truncated_zeta(spec, N)
    walk = list(_contributions(spec, N))
    assert any(d * d <= N and f.multiplicity != 1 for d, f in walk)
    calls = count_series_inits(monkeypatch)
    assert truncated_zeta(spec, N) == want
    assert len(calls) == 1


@pytest.mark.parametrize("graded", [False, True], ids=["primes", "tower"])
def test_log_zeta_multiplicities_are_plain_floats(graded):
    # to_json and to_jsonable print log multiplicities with no float() of
    # their own
    spec = build_fixed_type(Fraction(3, 2), A2, 5) if graded else sl2_over_primes_spec(3)
    s = truncated_zeta(spec, 3000, backend=LOG)
    assert (s.grading == 5) is graded and len(s) > 1
    assert {type(m) for m in s.mults} == {float}


def test_prime_stratum_stops_before_the_sieve_only_past_the_bound():
    # p = 23 has minimal dimension (23 - 1) / 2 = 11 in both views
    for simple in (False, True):
        s = GroupSpec((PrimeStratum(23, 0, simple),))
        assert truncated_zeta(s, 10).dims == (1,)
        assert truncated_zeta(s, 11).dims == (1, 11)
        assert truncated_zeta(GroupSpec((PrimeStratum(21, 0, simple),)), 11).dims == (1, 11)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_truncation_compatible_sl2_over_primes(data):
    spec = sl2_over_primes_spec(3)
    N = data.draw(st.integers(1, 1500))
    n = data.draw(st.integers(1, N))
    assert DirichletSeries(n, truncated_zeta(spec, N).items()) == truncated_zeta(spec, n)


def test_example_family_truncation_small_N():
    # at N=4 both p=5 and p=7 contribute (min degrees 2 and 3)
    spec = sl2_over_primes_spec(3)
    s = truncated_zeta(spec, 4)
    oracle = _brute_product(
        [_degrees(sl2_table(5))] * 60 + [_degrees(sl2_table(7))] * 168, 4
    )
    assert dict(s.items()) == oracle


def _diagonal_spec():
    spec, _ = build_diagonal(Fraction(2), default_diagonal_targets(Fraction(2), 3, 5), 10 ** 8)
    return spec


@pytest.mark.parametrize(
    "walk",
    [
        truncated_zeta,
        m_n,
        lambda spec, N: m_ns(spec, [2, N]),
        empirical_slope,
    ],
    ids=["diagonal-horizon", "m_n", "m_ns", "empirical_slope"],
)
def test_truncation_warning_when_horizon_cuts(walk):
    spec = _diagonal_spec()
    with pytest.warns(TruncationWarning) as record:
        walk(spec, spec.strata[0].exact_horizon() * 10)
    # one warning, its stack level past every walker in growth at this file
    assert [w.filename for w in record] == [__file__]


def test_backend_autoswitch_on_huge_multiplicity():
    stratum = GeometricStratum(A1, 5, PolyExponent((0, 30)))  # f(j) = 30j
    spec = GroupSpec((stratum,))
    s = truncated_zeta(spec, 10 ** 4)
    assert s.backend == "log"
    forced = truncated_zeta(spec, 10 ** 4, backend="exact")
    for d, m in forced.items():
        if d > 1:
            assert math.exp(s.mult_at(d)) == pytest.approx(m, rel=1e-9)


@pytest.mark.parametrize("d,backend", [(3, EXACT), (4, EXACT), (10, LOG)])
def test_a_tail_prime_alone_can_choose_the_log_backend(d, backend):
    # at N = 2000 the primes of least degree <= sqrt(N) (p <= 89) have M of
    # at most 148 bits (d = 10), and the largest prime, 4001 (h = 2000), has
    # M of 34 to 35 bits per power d - 2, a BigPower of about 2^279 for
    # d = 10: the tail, summed in columns with no walk item, still decides
    N = 2000
    spec = sl2_over_primes_spec(d)
    walk = list(_contributions(spec, N))
    head = [f for h, f in walk if h * h <= N]
    assert max(f.p for f in head) == 89
    assert max(f.multiplicity.bit_length() for f in head) <= 148 < growth._MATERIALIZE_BITS
    last = walk[-1][1]
    assert last.p == 4001 and 34 < _bits(last.multiplicity) / (d - 2) <= 35
    assert isinstance(last.multiplicity, BigPower) is (backend == LOG)
    got = truncated_zeta(spec, N)
    assert got.backend == backend and got == truncated_zeta(spec, N, backend=backend)


@pytest.mark.parametrize(
    "M, backend",
    [(2 ** 256, LOG), (BigPower(4, 128), LOG), (BigPower(2, 256), LOG), (2 ** 256 - 1, EXACT), (BigPower(4, 127), EXACT)],
)
def test_a_multiplicity_of_2_to_the_256_is_log_as_an_int_or_a_bigpower(M, backend):
    # one exact rule: more than 256 bits is log, whatever form M takes
    spec = GroupSpec((FiniteStratum((FactorSpec(LieType("A", 2), 4, multiplicity=M),)),))
    assert truncated_zeta(spec, 100).backend == backend


@pytest.mark.parametrize("e, backend", [(128, LOG), (127, EXACT)])
def test_a_tower_holds_a_bigpower_exactly_when_it_goes_log(e, backend):
    # 4^128 = 2^256 has 257 bits: the tower keeps it unexpanded, by the
    # same rule that sends the product to the log backend
    tower = GeometricStratum(A1, 4, PolyExponent((0, e)))
    assert isinstance(tower.multiplicity(1), BigPower) is (backend == LOG)
    assert truncated_zeta(GroupSpec((tower,)), 10).backend == backend


def test_wide_is_the_bit_length_rule_and_forms_no_huge_power():
    for base in range(2, 70):
        e0 = int(growth._MATERIALIZE_BITS / math.log2(base))
        for e in range(max(1, e0 - 2), e0 + 3):
            assert growth._wide(base, e) is ((base ** e).bit_length() > growth._MATERIALIZE_BITS), (base, e)
    assert growth._wide(5, 10 ** 40)  # decided with no power formed
    assert not growth._wide(2 ** 256 - 1) and growth._wide(2 ** 256)


@pytest.mark.parametrize("backend", ["Exact", "LOG", "", "float"])
def test_unknown_backend_is_refused_before_any_work(backend, monkeypatch):
    # a misspelt backend must not fall through to the log branch
    def no_factors(*args):
        raise AssertionError("factors enumerated before the backend was checked")

    monkeypatch.setattr(PrimeStratum, "split_walk", no_factors)
    with pytest.raises(PreconditionError, match="unknown backend"):
        truncated_zeta(sl2_over_primes_spec(3), 100, backend=backend)


def test_backend_is_keyword_only():
    # a third positional argument is neither read as a backend nor ignored
    with pytest.raises(TypeError):
        truncated_zeta(sl2_over_primes_spec(3), 100, "log")


# sha256 of to_json() on the log backend, pinned when the three multiply-add
# loops became one kernel: evaluation order must not drift, not even by an ulp
LOG_ZETA_DIGESTS = {
    4: "9095851dc88e9f668faacd4963678ef00b17d458500e069728911633cbe6a287",
    5: "a9e0a0a343d5625005ed731ff32c270d729700d355a8639a405953bcf4b4e8d5",
}


@pytest.mark.parametrize("d", sorted(LOG_ZETA_DIGESTS))
def test_log_zeta_is_pinned_bit_for_bit(d):
    text = truncated_zeta(sl2_over_primes_spec(d), 2500, backend=LOG).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == LOG_ZETA_DIGESTS[d]


def _order_spec():
    """Strata whose factors tie on minimal dimension across views and
    strata: a finite stratum out of min-dim order (PSL2(7) and PSL2(5) at 3,
    SL2(5) at 2, an A2 factor, SL2(9)), a simple-view prime stratum (3, 5,
    7, ...), two fixed-type towers (PSL2(5) at 3 first) and a diagonal."""
    finite = FiniteStratum(
        (
            FactorSpec(A1, 7, simple=True),
            FactorSpec(A1, 5, simple=True),
            FactorSpec(A1, 5, simple=False),
            FactorSpec(LieType("A", 2), 3),
            FactorSpec(A1, 9, simple=False),
        )
    )
    return GroupSpec(
        (
            finite,
            PrimeStratum(7, 2, simple=True),
            build_fixed_type(Fraction(2), A1, 5).strata[0],
            build_fixed_type(Fraction(3), LieType("A", 2), 2).strata[0],
            _diagonal_spec().strata[0],
        )
    )


# sha256 of to_json(), pinned before truncated_zeta applied each factor as it
# was formed: factors must keep the order (min dim, stratum, position)
ORDER_DIGESTS = {
    (EXACT, 1000): "42996539c88d52b312dcca214cadc8a740729c4483163af2ac6fc3497618e88a",
    (EXACT, 5000): "820e5021d9daa32fc38a85ede05b289255b667d70e9c20fa3bb4986a24173904",
    (LOG, 1000): "fea62f1637ab67fd4b7457d2d73f597275ecb666d850a358ae8f82e21503c974",
    (LOG, 5000): "44cbbc01bffa1415633cd6b10839c78caec8dcd3acda2d069e2a8c02452e0f37",
}


def test_factor_order_is_pinned_bit_for_bit():
    spec = _order_spec()
    for (backend, N), digest in ORDER_DIGESTS.items():
        text = truncated_zeta(spec, N, backend=backend).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (backend, N)


def _applied_as_formed(spec, N, backend, cut=None):
    """Trace truncated_zeta's factor terms and kernel calls, on the dict
    kernel _mul_into and the list kernel _mul_into_list alike: each factor's
    terms must be formed, then applied, before the next factor's, in
    increasing order of their least key (dimension, or graded exponent).
    Every factor forms its terms in one call of _factor_terms.  Given a
    cut, a prime stratum's factors past it are its tail: they form no
    terms, and are applied by one last kernel call, keyed from their least
    dimension; every other factor past the cut is applied as it is formed,
    in order after the factors at or below the cut."""
    events = []

    def traced(form):
        def forming(*args):
            x = form(*args)
            events.append(("form", x[0][0]))
            return x

        return forming

    def traced_kernel(kernel, at):  # x is the kernel's argument at
        def applying(*args):
            events.append(("mul", next(iter(args[at]))[0]))
            return kernel(*args)

        return applying

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "_factor_terms", traced(growth._factor_terms))
        for name, at in (("_mul_into", 3), ("_mul_into_list", 2)):
            mp.setattr(growth, name, traced_kernel(getattr(growth, name), at))
        truncated_zeta(spec, N, backend=backend)
    dims = [(isinstance(s, PrimeStratum), d) for s in spec.strata for d, _ in s.factors_below(N)]
    tail_dims = [d for prime, d in dims if prime and cut is not None and d > cut]
    n = len(dims) - len(tail_dims)
    head, tail = events[: 2 * n], events[2 * n:]
    assert n > 1 and [kind for kind, _ in head] == ["form", "mul"] * n
    keys = [k for _, k in head[::2]]
    assert [k for _, k in head[1::2]] == keys == sorted(keys)
    if tail_dims:
        assert tail == [("mul", min(tail_dims))]
        assert any(not prime and d > cut for prime, d in dims) and keys[-1] > cut
    else:
        assert tail == []


@pytest.mark.parametrize("backend", [EXACT, LOG])
def test_each_factor_is_applied_as_it_is_formed(backend):
    # on dimension keys the exact backend, dense here, applies every
    # factor one by one on the list kernel but a prime stratum's factors
    # past sqrt(N), then those in one call of that kernel; the log backend
    # applies every factor one by one on the dict kernel.  An A2
    # tower over 5 with a finite stratum over powers of 5 is graded: on
    # either backend its factors go through the dict kernel one by one,
    # keyed by exponent
    graded = GroupSpec(
        (
            build_fixed_type(Fraction(2), LieType("A", 2), 5).strata[0],
            FiniteStratum((FactorSpec(LieType("A", 2), 25), FactorSpec(LieType("A", 2), 5))),
        )
    )
    assert truncated_zeta(graded, 5 ** 60).grading == 5
    _applied_as_formed(_order_spec(), 5000, backend, math.isqrt(5000) if backend == EXACT else None)
    _applied_as_formed(graded, 5 ** 60, backend)


def _list_and_dict_paths(spec, N):
    """The exact truncated_zeta(spec, N) accumulated in the list and in the
    dict, each from the same walk: every product over dimensions with a
    walk item is dense when each item may cost 10^9 slots, none when it may
    cost 0."""
    out, walked = [], any(True for _ in _contributions(spec, N))
    for per_item in (10 ** 9, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(growth, "_DENSE_SLOTS_PER_ITEM", per_item)
            assert growth._plan(spec, N, EXACT).dense is bool(per_item and walked)
            out.append(truncated_zeta(spec, N, backend=EXACT))
    return out


# the tail prime of least degree h = 5, p = 11 in both views, joins the
# head at N = h^2 = 25
LIST_PATH_NS = (1, 2, 3, 4, 24, 25, 26, 1000, 2999, 3000)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("simple", [False, True])
def test_list_path_is_the_dict_path_on_the_prime_family(d, simple):
    spec = with_flag(sl2_over_primes_spec(d), simple)
    table = psl2_table if simple else sl2_table
    for N in LIST_PATH_NS:
        dense, sparse = _list_and_dict_paths(spec, N)
        assert dense == sparse and dense.backend == EXACT, N
        assert dense.mults[0] == 1 and {int} == set(map(type, dense.mults)), N
        if N <= 4 and d == 3:
            # M = 60 for p = 5 and 168 for p = 7, the only primes of h <= 4
            oracle = _brute_product([_degrees(table(5))] * 60 + [_degrees(table(7))] * 168, N)
            assert dict(dense.items()) == oracle, N


@pytest.mark.parametrize("simple", [False, True])
def test_list_path_matches_brute_force_on_primes_of_multiplicity_one(simple):
    # with E = 0 each prime is one factor, so the oracle lists every copy;
    # at N = 26 the head holds the primes of h <= 5 and the tail p <= 53
    spec = GroupSpec((PrimeStratum(5, 0, simple),))
    table = psl2_table if simple else sl2_table
    for N in LIST_PATH_NS[:7]:
        dense, sparse = _list_and_dict_paths(spec, N)
        primes = itertools.takewhile((2 * N + 1).__ge__, primes_from(5))
        oracle = _brute_product([_degrees(table(p)) for p in primes], N)
        assert dict(dense.items()) == oracle and dense == sparse, N


def test_list_path_is_the_dict_path_on_the_order_spec():
    # mixed strata (finite, primes, A1 and A2 towers, a diagonal) in ties of
    # least dimension; the dense product is also the pinned series
    spec = _order_spec()
    dense, sparse = _list_and_dict_paths(spec, 5000)
    assert dense == sparse
    digest = hashlib.sha256(dense.to_json().encode()).hexdigest()
    assert digest == ORDER_DIGESTS[EXACT, 5000]


# sha256 of to_json(), pinned while a finite stratum's factors past sqrt(N)
# formed one linear factor 1 + S: applying them one by one moves no byte
THOUSAND_FACTORS_DIGEST = "a09a418a12d5e2ca807d97e7bd4c9e9af54af8054d5afebcf17fb2db097a01b1"


def test_list_path_is_the_dict_path_on_a_thousand_finite_factors():
    # SL2(p) once for each of the first 1000 primes from 5: dense at N =
    # 16,000, with all but 52 factors past sqrt(N), each applied on its own
    primes = itertools.islice(primes_from(5), 1000)
    spec = finite_spec(*(FactorSpec(A1, p, simple=False) for p in primes))
    dense, sparse = _list_and_dict_paths(spec, 16000)
    assert dense == sparse
    assert hashlib.sha256(dense.to_json().encode()).hexdigest() == THOUSAND_FACTORS_DIGEST


def test_only_a_dense_exact_product_over_dimensions_takes_the_list(monkeypatch):
    # each plan as (backend, grading, dense, tails), read with no product
    # formed; the first six also run, on the plan's backend and grading
    sparse_finite = finite_spec(FactorSpec(A1, 10007), FactorSpec(A1, 10009, multiplicity=3))
    tower = GroupSpec((GeometricStratum(A1, 10007, PolyExponent((0, 1))),))
    cases = [
        # two walk items at N = 10^12, a golden pin: a list would take 8 TB
        (sparse_finite, 10 ** 12, None, (EXACT, None, False, 0)),
        # ten items at 10^40 (10007^10 ~ 2^133 at most), forced exact and automatic
        (tower, 10 ** 40, EXACT, (EXACT, None, False, 0)),
        (tower, 10 ** 40, None, (EXACT, None, False, 0)),
        # graded: keys are exponents of 5, not dimensions
        (_diagonal_spec(), 10 ** 7, None, (EXACT, 5, False, 0)),
        (sl2_over_primes_spec(3), 3000, LOG, (LOG, None, False, 0)),
        # 781 walk items at N = 3000 on the automatic plan, the one that
        # empirical_slope's truncated_zeta(spec, N) runs
        (sl2_over_primes_spec(3), 3000, None, (EXACT, None, True, 1)),
        # the other zeta runs that golden.py pins, each with the plan its pin claims
        (sl2_over_primes_spec(3), 10 ** 6, None, (EXACT, None, True, 1)),
        (sl2_over_primes_spec(4), 10 ** 5, None, (EXACT, None, True, 1)),
        (GroupSpec((PrimeStratum(1999999999800, 0),)), 10 ** 12, None, (EXACT, None, False, 0)),
        (build_fixed_type(Fraction(2), LieType("A", 2), 5), 5 ** 60, None, (EXACT, 5, False, 0)),
    ]
    starts = []
    monkeypatch.setattr(growth, "primes_from", lambda start, hi=None: starts.append(start) or primes_from(start, hi))
    plans = [growth._plan(spec, N, backend) for spec, N, backend, _ in cases]
    assert [(p.backend, p.grading, p.dense, len(p.tails)) for p in plans] == [want for *_, want in cases]
    # the primes from 1999999999800 have no head item at 10^12: only the tail sieves
    assert starts.count(1999999999800) == 1
    assert len(plans[5].factors) + len(plans[5].tails[0]) == 781
    assert mult_to_int(plans[7].tails[0].largest()).bit_length() == 104  # exact at 104 bits
    series = [truncated_zeta(spec, N, backend=backend) for spec, N, backend, _ in cases[:6]]
    assert [(s.backend, s.grading) for s in series] == [(p.backend, p.grading) for p in plans[:6]]
    assert len(series[0]) == 53
    # a prime stratum whose primes all lie just below 2N + 1, every one in
    # its tail: sparse, forced exact and automatic (exact at both, M ~ 2^92
    # at 10^9), and the series of the same primes as factors
    for N, p_min, n in ((10 ** 6, 1999800, 12), (10 ** 9, 2 * 10 ** 9 - 200, 11)):
        primes = GroupSpec((PrimeStratum(p_min, 1),))
        walk = list(primes.strata[0].factors_below(N))
        same = finite_spec(*(FactorSpec(A1, f.q, False, f.multiplicity) for _, f in walk))
        assert len(walk) == n and walk[0][0] > math.isqrt(N)
        for backend in (EXACT, None):
            assert not growth._plan(primes, N, backend).dense
            got = truncated_zeta(primes, N, backend=backend)
            assert got == truncated_zeta(same, N, backend=backend) and len(got) > n


def _a1_factor_cases():
    """(factor, N) for A1 factors: q even, 1 and 3 mod 4 (PSL2(5) with its
    family of multiplicity 0), in both views, at M = 1, plain int M and a
    materializable BigPower M, with N from min_dim through min_dim^2 - 1
    (linear), min_dim^2 (x_f^2 reaches N) and min_dim^2 + 1 to past
    min_dim^3."""
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 101, 103):
        for simple in (True, False):
            for M in (1, 60, 168 ** 7, BigPower(60, 44)):
                f = FactorSpec(A1, q, simple=simple, multiplicity=M)
                d = f.min_nontrivial_dim()
                for N in (d, d * d - 1, d * d, d * d + 1, d ** 3 + 5):
                    yield f, N


def _other_factor_cases():
    """(factor, N) for the other types: A2, 2A2, B2 and G2 on their canonical
    pair sets and A3 on a two-pair set (dims q^2 and q^6), at M = 1, a plain
    int M and a BigPower M past 900 bits, with N from min_dim through
    min_dim^2 - 1 (linear), min_dim^2 and past min_dim^3 (both A3 terms)."""
    types = [
        (LieType("A", 2), None),
        (LieType("A", 2, True), None),
        (LieType("B", 2), None),
        (LieType("G2"), None),
        (LieType("A", 3), PairSet([(1, 2), (3, 6)])),
    ]
    for t, pairs in types:
        for q in (2, 3, 4, 5):
            if tits_excluded(t, q):
                continue
            for M in (1, 60, BigPower(5, 400)):
                f = FactorSpec(t, q, multiplicity=M, pairs=pairs)
                d = f.min_nontrivial_dim()
                for N in (d, d * d - 1, d * d, d ** 3 + 5):
                    yield f, N


@pytest.mark.parametrize("backend", [EXACT, LOG])
def test_one_pass_linear_terms_are_the_power_terms_bit_for_bit(backend):
    cases = list(_a1_factor_cases()) + list(_other_factor_cases())
    big = FactorSpec(A1, 7, simple=False, multiplicity=BigPower(168, 10 ** 6))
    if backend == LOG:  # a BigPower past the exact backend's range
        cases += [(big, N) for N in (3, 8, 9, 10, 28)]
    linear = 0
    for f, N in cases:
        d, M = f.min_nontrivial_dim(), f.multiplicity
        x = f.item.x_terms(N, backend)
        want = growth._power_terms(x, M, N, backend)
        got = growth._factor_terms(f.item, d, N, backend)
        assert got == want, (f, N)
        if M == 1 or d * d > N:  # C(M, 1) * x_f, scaled here independently
            linear += 1
            if backend == EXACT:
                assert got == [(d2, mult_to_int(M) * m) for d2, m in x], (f, N)
            else:
                lc = growth._log_binomial(M, 1)
                assert got == [(d2, lc + m) for d2, m in x], (f, N)
        if backend == LOG:
            assert [m.hex() for _, m in got] == [m.hex() for _, m in want], (f, N)
    assert 0 < linear < len(cases)


# -- m_n ---------------------------------------------------------------------


def test_m_n_examples_for_the_prime_family():
    spec = sl2_over_primes_spec(3)
    assert m_n(spec, 1) == 0
    assert m_n(spec, 2) == 60
    assert m_n(spec, 3) == 60 + 168


def test_m_n_nondecreasing_and_additive():
    spec = sl2_over_primes_spec(3)
    vals = [m_n(spec, n) for n in range(1, 30)]
    assert vals == sorted(vals)
    other = finite_spec(FactorSpec(A1, 5, simple=True, multiplicity=7))
    for n in (1, 3, 10):
        assert m_n(GroupSpec(spec.strata + other.strata), n) == m_n(spec, n) + m_n(other, n)


def test_huge_prime_rate_exponent_stays_unexpanded():
    # ((p^3 - p)/2)^E used to be formed in full: E = 10^20 never finished
    spec = GroupSpec((PrimeStratum(5, 10 ** 20),))
    assert spec.strata[0].multiplicity(7) == BigPower(168, 10 ** 20)
    assert truncated_zeta(spec, 10).backend == LOG
    with pytest.raises(RangeOverflow):
        truncated_zeta(spec, 10, backend=EXACT)
    # SL2(19) has minimal dimension 9 and the largest base, (19^3 - 19)/2 = 3420
    assert m_n(spec, 10) == pytest.approx(1e20 * math.log(3420))
    # both towers keep a multiplicity a plain int up to 256 bits: 60^43 has 254
    assert PrimeStratum(5, 43).multiplicity(5) == 60 ** 43
    assert PrimeStratum(5, 44).multiplicity(5) == BigPower(60, 44)
    assert GeometricStratum(A1, 5, PolyExponent((0,))).multiplicity(3) == 1


def test_m_n_log_domain_for_astronomic_multiplicities():
    spec = finite_spec(
        FactorSpec(A1, 5, simple=True, multiplicity=BigPower(5, 10 ** 12))
    )
    got = m_n(spec, 10)
    assert isinstance(got, float)
    assert got == pytest.approx(1e12 * math.log(5))


# errors.int_name's names of the two exponents: 24 leading digits and the bit length
EXPONENT_NAMES = {
    10 ** 400: "1000000000000000000000000... (1329 bits)",
    17 * 10 ** 307: "1700000000000000000000000... (1024 bits)",
}


@pytest.mark.parametrize("exponent", [10 ** 400, 17 * 10 ** 307])
def test_m_n_of_a_multiplicity_past_double_range_is_a_range_error(exponent):
    # the log of 3**(17 * 10**307) used to come back as inf, and the count
    # along with it; 10**400 raised a plain OverflowError
    spec = finite_spec(FactorSpec(A1, 5, simple=True, multiplicity=BigPower(3, exponent)))
    for walk in (lambda: m_n(spec, 10), lambda: truncated_zeta(spec, 10)):
        name = re.escape(EXPONENT_NAMES[exponent])
        with pytest.raises(RangeOverflow, match=rf"^3\*\*{name} is too large"):
            walk()


# -- exact_abscissa ----------------------------------------------------------


def test_example_family_closed_form():
    for d in (3, 4, 5):
        summary = exact_abscissa(sl2_over_primes_spec(d))
        assert summary.kind == "rational"
        assert summary.abscissa == Fraction(3 * d - 4)


def test_scheduled_tower_abscissa():
    spec = build_fixed_type(Fraction(2), A1, 5)
    assert exact_abscissa(spec).abscissa == Fraction(2)


def test_finite_spec_marker():
    summary = exact_abscissa(finite_spec(FactorSpec(A1, 7, simple=False)))
    assert summary.kind == "finite"
    assert summary.abscissa is None
    assert summary.to_jsonable()["abscissa"] == "finite-group"


def test_superlinear_schedule_infinite():
    spec = GroupSpec((GeometricStratum(A1, 5, PolyExponent((0, 0, 1))),))
    summary = exact_abscissa(spec)
    assert summary.kind == "infinite"


def test_union_rule_random_structured_specs():
    rng = random.Random(99)
    pool = []
    for t in (A1, LieType("A", 2), LieType("B", 2), LieType("G2")):
        for num in (1, 3, 6):
            rho = rho0(t) + Fraction(num, 4)
            pool.append(build_fixed_type(rho, t, rng.choice([5, 7])))
    for E in (0, 1, 2):
        pool.append(GroupSpec((PrimeStratum(5, E),)))
    pool.append(finite_spec(FactorSpec(A1, 9, simple=True, multiplicity=4)))

    def value(summary):
        if summary.kind == "finite":
            return Fraction(-1)  # absorbed by any infinite stratum
        return summary.abscissa

    for _ in range(50):
        a, b = rng.choice(pool), rng.choice(pool)
        got = exact_abscissa(GroupSpec(a.strata + b.strata))
        va, vb = value(exact_abscissa(a)), value(exact_abscissa(b))
        expected = max(va, vb)
        if expected == Fraction(-1):
            assert got.kind == "finite"
        else:
            assert got.abscissa == expected


def test_richer_validated_pair_sets_keep_the_abscissa():
    # schedules built from the same validated set give rate exactly rho
    rng = random.Random(5)
    for _ in range(25):
        t = rng.choice([LieType("A", 2), LieType("A", 3), LieType("B", 2)])
        rk, pos = t.rank, rho0(t).denominator * t.rank // rho0(t).numerator
        pairs = {(rk, pos)}
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, pos)
            m = rng.randint(0, min(rk, n * rk // pos))
            pairs.add((m, n))
        a = PairSet(pairs)
        rho = rho0(t) + Fraction(rng.randint(1, 10), 3)
        sched = Schedule(rho, rho0(t), *prec_min(a, rho), math.ceil(1 / (rho - rho0(t))))
        spec = GroupSpec((GeometricStratum(t, 5, sched, pairs=a),))
        assert exact_abscissa(spec).abscissa == rho


# -- empirical slopes --------------------------------------------------------


def test_trivial_spec_slopes_vanish():
    rep = empirical_slope(GroupSpec(()), 1000)
    assert rep.windowed_max == 0.0
    assert all(p.slope == 0.0 for p in rep.points)


def test_single_a5_slope_is_one_at_5():
    rep = empirical_slope(finite_spec(FactorSpec(A1, 5, simple=True)), 5)
    by_n = {p.n: p.slope for p in rep.points}
    assert by_n[5] == pytest.approx(1.0)
    assert rep.windowed_max == pytest.approx(1.0)


def test_scheduled_tower_windowed_max_tracks_the_abscissa():
    spec = build_fixed_type(Fraction(2), A1, 5)
    maxima = [empirical_slope(spec, 5 ** k).windowed_max for k in (8, 10, 12)]
    assert all(abs(m - 2.0) <= 0.5 for m in maxima)
    assert maxima == sorted(maxima)  # increasing with N
    # sanity envelope: proxy <= exact + 0.5
    assert maxima[-1] <= 2.0 + 0.5


def _slope_prefix(spec, N):
    """The series empirical_slope reads and its ln R_n prefix: exact counts,
    summed and then logged, where every multiplicity of the walk to N has at
    most growth._MATERIALIZE_BITS bits; log-domain counts and log-adds
    otherwise."""
    bits = max((_bits(f.multiplicity) for _, f in _contributions(spec, N)), default=0)
    if bits <= growth._MATERIALIZE_BITS:
        series = truncated_zeta(spec, N, backend=EXACT)
        return series, [math.log(R) for R in itertools.accumulate(series.mults)]
    series = truncated_zeta(spec, N, backend=LOG)
    return series, list(itertools.accumulate(series.mults, _logaddexp))


def _bisect_window(spec, N):
    """The windowed max as computed before it read the slopes: ln R_n by
    bisection at lo, at N and at every dimension in [lo, N]."""
    series, prefix = _slope_prefix(spec, N)
    dims = series.dims

    def ln_R(n):
        i = bisect_right(dims, n) - 1
        return prefix[i] if i >= 0 else float("-inf")

    points = []
    for i, d in enumerate(dims):
        if d < 2:
            continue
        lr = prefix[i]
        points.append(SlopePoint(d, lr / math.log(10.0), lr / math.log(d)))
    lo = max(2, math.isqrt(N - 1) + 1)
    candidates = [n for n in (lo, N) if 2 <= n <= N] + [p.n for p in points if lo <= p.n <= N]
    wmax = 0.0
    for n in candidates:
        lr = ln_R(n)
        if lr > 0:
            wmax = max(wmax, lr / math.log(n))
    return tuple(points), wmax


WINDOW_CASES = [
    (sl2_over_primes_spec(d), N)
    for d in (3, 4, 5)
    for N in (2, 3, 4, 5, 10, 17, 100, 999, 2500)
] + [
    (build_fixed_type(Fraction(2), A1, 5), 5 ** 8),
    (build_fixed_type(Fraction(3, 2), LieType("A", 2), 5), 2 ** 80),
] + [(finite_spec(FactorSpec(A1, 5, simple=True)), N) for N in (1, 10, 36)]
# A5 has degrees 1, 3, 3, 4, 5: at N = 36 the window [6, 36] holds no
# dimension, and its max, ln 5 / ln 6, is the value at lo


# explicit ids keep each case's test name spec<i>-<N>-None stable
@pytest.mark.parametrize(
    "spec,N", WINDOW_CASES, ids=[f"spec{i}-{N}-None" for i, (_, N) in enumerate(WINDOW_CASES)]
)
def test_windowed_max_matches_the_bisect_loop(spec, N):
    rep = empirical_slope(spec, N)
    points, wmax = _bisect_window(spec, N)
    assert rep.points == points
    assert rep.windowed_max.hex() == wmax.hex()


def _points_csv(points):
    """SlopeReport.to_csv as written when the report kept its points."""
    lines = ["n,R_n_log10,slope"]
    for p in points:
        lines.append(f"{p.n},{p.log10_R:.6f},{p.slope:.9f}")
    return "\n".join(lines) + "\n"


def _points_json(rep, points):
    """SlopeReport.to_json as written when the report kept its points."""
    rows = [
        f'    [\n      "{p.n}",\n      {p.log10_R!r},\n      {p.slope!r}\n    ]'
        for p in points
    ]
    body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    lo, hi = rep.window
    return (
        f'{{\n  "N": {rep.N},\n  "points": {body},\n  "window": [\n    {lo},\n'
        f'    {hi}\n  ],\n  "windowed_max": {rep.windowed_max!r}\n}}'
    )


@pytest.mark.parametrize(
    "spec,N", WINDOW_CASES, ids=[f"spec{i}-{N}" for i, (_, N) in enumerate(WINDOW_CASES)]
)
def test_slope_columns_match_the_per_point_loop(spec, N):
    rep = empirical_slope(spec, N)
    points, _ = _bisect_window(spec, N)
    assert rep.ns == tuple(p.n for p in points)
    assert [x.hex() for x in rep.log10_Rs] == [p.log10_R.hex() for p in points]
    assert [x.hex() for x in rep.slopes] == [p.slope.hex() for p in points]
    assert rep.to_csv() == _points_csv(points)
    assert rep.to_json() == _points_json(rep, points)
    assert rep.points == rep.points == points
    again = empirical_slope(spec, N)
    assert again == rep and hash(again) == hash(rep)
    for column, kind in ((rep.ns, int), (rep.log10_Rs, float), (rep.slopes, float)):
        assert type(column) is tuple and all(type(x) is kind for x in column)


# d = 3 reads the exact counts, d = 40 the log backend (7's multiplicity
# has 281 bits); the A5 factor at 36 has its window's max at lo alone
CHUNKED_SLOPE_CASES = [(sl2_over_primes_spec(3), 300), (sl2_over_primes_spec(40), 100),
                       (finite_spec(FactorSpec(A1, 5, simple=True)), 36)]


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("spec,N", CHUNKED_SLOPE_CASES, ids=["primes-d3", "primes-d40", "a5-36"])
def test_the_slope_pass_in_small_blocks_is_the_one_block_pass(monkeypatch, spec, N, rows):
    whole = empirical_slope(spec, N)
    assert len(whole.ns) < dirichlet.ROWS_PER_CHUNK  # one block
    points, _ = _bisect_window(spec, N)
    monkeypatch.setattr(dirichlet, "ROWS_PER_CHUNK", rows)
    rep = empirical_slope(spec, N)
    assert (rep.ns, rep.window) == (whole.ns, whole.window)
    for a, b in ((rep.log10_Rs, whole.log10_Rs), (rep.slopes, whole.slopes)):
        assert [x.hex() for x in a] == [x.hex() for x in b]
    assert rep.windowed_max.hex() == whole.windowed_max.hex()
    # the report's text, and the text a SlopePass writes with no column held
    assert rep.to_csv() == growth.SlopePass(spec, N).to_csv() == _points_csv(points)
    assert rep.to_json() == growth.SlopePass(spec, N).to_json() == _points_json(rep, points)
    run = growth.SlopePass(spec, N)
    assert run.windowed_max is None  # set once the last block is formed
    assert all(len(block[0]) <= rows for block in run.blocks())
    assert run.windowed_max == rep.windowed_max


def test_a_report_with_no_points_prints_an_empty_point_list():
    rep = empirical_slope(GroupSpec(()), 1000)
    assert rep.ns == () and rep.to_csv() == "n,R_n_log10,slope\n"
    assert '\n  "points": [],\n' in rep.to_json()
    obj = {"N": 1000, "points": [], "window": [32, 1000], "windowed_max": 0.0}
    assert rep.to_json() == growth.SlopePass(GroupSpec(()), 1000).to_json() == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("d,N", [(3, 2500), (5, 999)])
def test_log_cumulative_is_the_slope_prefix_bit_for_bit(d, N):
    # the log cumulative is the log-add prefix; this family's slopes read
    # the exact counts, each log10_R the log of the exact cumulative
    spec = sl2_over_primes_spec(d)
    series = truncated_zeta(spec, N, backend=LOG)
    prefix = list(itertools.accumulate(series.mults, _logaddexp))
    assert [cumulative(series, n) for n in series.dims] == prefix
    assert cumulative(series, series.cutoff) == prefix[-1]
    exact = truncated_zeta(spec, N, backend=EXACT)
    points = empirical_slope(spec, N).points
    assert [p.log10_R for p in points] == [
        math.log(cumulative(exact, p.n)) / math.log(10.0) for p in points
    ]


# each has a multiplicity past growth._MATERIALIZE_BITS below N: at d = 40
# the prime 7's ((7^3 - 7) / 2)^38 has 281 bits, and the tower's 5^(30 * 4)
# at q = 5^4 has 279
LOG_PATH_CASES = [
    (sl2_over_primes_spec(40), 999),
    (GroupSpec((GeometricStratum(A1, 5, PolyExponent((0, 30))),)), 10 ** 4),
]


def _log_path_slopes(spec, N):
    """(ns, slopes, window, windowed_max) as empirical_slope formed them
    when it always read the log backend: _log_prefix_sums over the log
    series, the window's max at lo and at its dimensions."""
    series = truncated_zeta(spec, N, backend=LOG)
    lrs = _log_prefix_sums(series.mults)
    lo = max(2, math.isqrt(N - 1) + 1)
    lr_lo = lrs[bisect_right(series.dims, lo) - 1]
    ns, lrs = series.dims[1:], lrs[1:]
    slopes = tuple(lr / math.log(n) for lr, n in zip(lrs, ns))
    wmax = max((s for n, s in zip(ns, slopes) if n >= lo), default=0.0)
    if lo <= N and lr_lo > 0:
        wmax = max(wmax, lr_lo / math.log(lo))
    return ns, slopes, (lo, N), wmax


@pytest.mark.parametrize("spec,N", LOG_PATH_CASES, ids=["primes-d40", "tower-30j"])
def test_log_path_slopes_are_the_log_cumulative_bit_for_bit(spec, N):
    bits = max(_bits(f.multiplicity) for _, f in _contributions(spec, N))
    assert bits > growth._MATERIALIZE_BITS
    series = truncated_zeta(spec, N, backend=LOG)
    rep = empirical_slope(spec, N)
    assert [x.hex() for x in rep.log10_Rs] == [
        (cumulative(series, n) / math.log(10.0)).hex() for n in rep.ns
    ]
    ns, slopes, window, wmax = _log_path_slopes(spec, N)
    assert (rep.ns, rep.window) == (ns, window)
    assert [x.hex() for x in rep.slopes] == [x.hex() for x in slopes]
    assert rep.windowed_max.hex() == wmax.hex()


@pytest.mark.parametrize("d", [3, 4, 5])
def test_prime_family_slopes_read_the_exact_counts(d):
    N = 2500
    spec = sl2_over_primes_spec(d)
    rep = empirical_slope(spec, N)
    exact = truncated_zeta(spec, N, backend=EXACT)
    assert rep.ns == exact.dims[1:]
    Rs = list(itertools.accumulate(exact.mults))[1:]
    assert list(rep.slopes) == [math.log(R) / math.log(n) for R, n in zip(Rs, rep.ns)]
    # the log path's bits differ somewhere, so the equality above is the exact path's
    assert list(rep.slopes) != list(_log_path_slopes(spec, N)[1])


@pytest.mark.parametrize("spec,N", [(sl2_over_primes_spec(4), 2000)] + LOG_PATH_CASES,
                         ids=["primes-d4", "primes-d40", "tower-30j"])
def test_empirical_slope_calls_truncated_zeta_once(spec, N, monkeypatch):
    # one entry point: the slopes read truncated_zeta's automatic backend,
    # through the public name that a tracer wraps
    calls, real = [], growth.truncated_zeta

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(growth, "truncated_zeta", counting)
    empirical_slope(spec, N)
    assert calls == [((spec, N), {})]


SLOPE_AGREEMENT_CASES = WINDOW_CASES + [
    (with_flag(sl2_over_primes_spec(d), simple), N)
    for d in (3, 4, 5)
    for simple in (False, True)
    for N in (1000, 2500)
]


@pytest.mark.parametrize(
    "spec,N", SLOPE_AGREEMENT_CASES, ids=[f"spec{i}-{N}" for i, (_, N) in enumerate(SLOPE_AGREEMENT_CASES)]
)
def test_slopes_agree_with_the_log_path_within_1e_9(spec, N):
    rep = empirical_slope(spec, N)
    ns, slopes, window, wmax = _log_path_slopes(spec, N)
    assert (rep.ns, rep.window) == (ns, window)
    assert all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(rep.slopes, slopes))
    assert math.isclose(rep.windowed_max, wmax, rel_tol=1e-9)


class _DuckExponent:
    """An exponent rule that checks nothing: f(j) = (j - 20000)^2 - 1."""

    def f(self, j):
        return (j - 20000) ** 2 - 1

    def rate(self):
        return None


def test_geometric_multiplicity_refuses_a_negative_exponent():
    tower = GeometricStratum(A1, 5, _DuckExponent())
    assert tower.multiplicity(10 ** 4) == BigPower(5, (10 ** 4 - 20000) ** 2 - 1)
    with pytest.raises(PreconditionError, match=r"f\(20000\) = -1 < 0"):
        tower.multiplicity(20000)
    # negative at j = 20000 alone, far past any fixed scan horizon
    with pytest.raises(PreconditionError, match=r"^f\(20000\) = -1 < 0$"):
        PolyExponent((399999999, -40000, 1))


def _root_poly(roots, shift):
    """The coefficients of prod (j - r) + shift, lowest degree first."""
    c = [1]
    for r in roots:
        c = [0] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    c[0] += shift
    return tuple(c)


POLYS = st.one_of(
    st.builds(
        lambda low, lead: tuple(low) + (lead,),
        st.lists(st.integers(-60, 60), min_size=0, max_size=4),
        st.integers(1, 5),
    ),
    st.builds(_root_poly, st.lists(st.integers(-4, 14), min_size=1, max_size=3), st.integers(-2, 2)),
)


@settings(max_examples=300, deadline=None)
@given(POLYS)
def test_poly_nonnegativity_decision_matches_a_scan(coeffs):
    lead = max((i for i, c in enumerate(coeffs) if c != 0), default=0)
    # past Cauchy's root bound f has the sign of its leading coefficient
    bound = 2 + max((abs(c) for c in coeffs[:lead]), default=0) // max(coeffs[lead], 1)
    scan = [j for j in range(1, bound + 1) if sum(c * j ** i for i, c in enumerate(coeffs)) < 0]
    if not scan:
        PolyExponent(coeffs)
        return
    j = scan[0]
    with pytest.raises(PreconditionError, match=rf"^f\({j}\) = -\d+ < 0$"):
        PolyExponent(coeffs)


def _roots_past_one(k, R):
    """j^k (j - R)(j - R - 2): its roots past 1 make the sign check bisect
    at every derivative level."""
    return (0,) * k + _root_poly([R, R + 2], 0)


@pytest.mark.parametrize(
    "k,R", [(20, 2 ** 64), (60, 2 ** 64), (120, 2 ** 64), (20, 10 ** 100), (20, 10 ** 1000)]
)
def test_poly_past_the_bit_cap_is_refused_before_the_sign_check(monkeypatch, k, R):
    def no_check(coeffs):
        raise AssertionError("_first_negative ran")

    monkeypatch.setattr(growth, "_first_negative", no_check)
    coeffs = _roots_past_one(k, R)
    bits = (R * (R + 2)).bit_length()
    assert len(coeffs) * bits > growth.MAX_POLY_BITS
    with pytest.raises(PreconditionError, match=rf"^{k + 3} coefficients of up to {bits} bits: "):
        PolyExponent(coeffs)


@pytest.mark.parametrize(
    "coeffs,j",
    [
        (_roots_past_one(4, 2 ** 64), 2 ** 64 + 1),  # 7 coefficients of up to 129 bits
        ((0,) * 126 + (-255, 1), 1),  # j^126 (j - 255): 128 of up to 8 bits
    ],
)
def test_poly_at_the_bit_cap_gets_its_verdict(coeffs, j):
    assert len(coeffs) * max(abs(c).bit_length() for c in coeffs) <= growth.MAX_POLY_BITS
    with pytest.raises(PreconditionError, match=rf"^f\({j}\) = -\d+ < 0$"):
        PolyExponent(coeffs)


def test_poly_negative_at_one_is_refused_before_any_refinement(monkeypatch):
    def no_bisection(*args):
        raise AssertionError("_first_true ran")

    monkeypatch.setattr(growth, "_first_true", no_bisection)
    with pytest.raises(PreconditionError, match=r"^f\(1\) = -254 < 0$"):
        PolyExponent((0,) * 126 + (-255, 1))


def test_slope_csv_export():
    rep = empirical_slope(finite_spec(FactorSpec(A1, 5, simple=True)), 5)
    text = rep.to_csv()
    assert text.splitlines()[0] == "n,R_n_log10,slope"


@pytest.mark.parametrize(
    "spec, N",
    [
        (sl2_over_primes_spec(3), 1),  # no points
        (sl2_over_primes_spec(3), 2000),
        (sl2_over_primes_spec(5), 999),
        (build_fixed_type(Fraction(2), A1, 5), 5000),
    ],
    ids=["no-points", "d3", "d5", "geometric"],
)
def test_slope_json_is_json_dumps_of_the_report(spec, N):
    rep = empirical_slope(spec, N)
    want = {
        "N": rep.N,
        "window": list(rep.window),
        "windowed_max": rep.windowed_max,
        "points": [[str(p.n), p.log10_R, p.slope] for p in rep.points],
    }
    assert rep.to_json() == json.dumps(want, indent=2, sort_keys=True)


# -- prg verdicts ------------------------------------------------------------


def test_prg_examples():
    v = prg_verdict(sl2_over_primes_spec(3))
    assert v.is_prg
    assert v.witness_exponent == Fraction(4)  # m_n ~ n^(3(d-2)+1)

    v = prg_verdict(GroupSpec((GeometricStratum(A1, 5, PolyExponent((0, 0, 1))),)))
    assert not v.is_prg
    assert v.witness_stratum is not None

    v = prg_verdict(finite_spec(FactorSpec(A1, 5, simple=True)))
    assert v.is_prg and v.witness_exponent == 0


def test_prg_geometric_exponent():
    spec = build_fixed_type(Fraction(2), A1, 5)
    v = prg_verdict(spec)
    # factor count m_n ~ n^(c/n_min) with c = rho*|Phi+| - rk = 1
    assert v.is_prg and v.witness_exponent == Fraction(1)


# -- sim_C -------------------------------------------------------------------


def test_sim_c_reflexive():
    f = zeta_series(sl2_table(5), 120)
    assert sim_C(f, f, 2.0, [0.5, 1, 2]) == []
    assert sim_C(f, f, 1.0, [0.5, 1, 2]) == []  # both sides equal: no slack needed


def test_sim_c_sl2_17_against_model():
    f = DirichletSeries(18, [(d, m) for d, m in sl2_table(17).degrees if d > 1])
    g = DirichletSeries(18, {17: 17})
    assert sim_C(f, g, 2.0, [0.5, 1, 2, 4]) == []


def test_sim_c_failure_case():
    f = DirichletSeries(4, {2: 1})
    g = DirichletSeries(4, {2: 100})
    fails = sim_C(f, g, 2.0, [1.0])
    assert fails[0] == "sigma=1.0: g <= C^(1+s) f"  # 100 > 2^2 * 1
    assert not any(fail.endswith("f <= C^(1+s) g") for fail in fails)


def test_sim_c_probe_separates_minimal_dimensions():
    # equal within C = 2 at sigma = 0.5, 1 and in total mass; only the
    # sigma -> inf probe sees f's extra term at dimension 2
    f = DirichletSeries(60, {2: 1, 50: 2500})
    g = DirichletSeries(60, {50: 2500})
    assert sim_C(f, g, 2.0, [0.5, 1.0]) == ["sigma->inf: f <= C^(1+s) g"]
    assert sim_C(f.to_log(), g.to_log(), 2.0, [0.5, 1.0]) == ["sigma->inf: f <= C^(1+s) g"]


def test_sim_c_rejects_empty():
    f = DirichletSeries(4, {2: 1})
    with pytest.raises(PreconditionError):
        sim_C(f, DirichletSeries(4, {}), 2.0, [1.0])


# -- cover/quotient comparison ----------------------------------------------


def test_cover_mn_single_pair():
    spec = finite_spec(FactorSpec(A1, 5))
    assert cover_quotient(spec, [1, 2])
    simple, cover = with_flag(spec, True), with_flag(spec, False)
    assert m_n(simple, 4) == 1 == m_n(cover, 2)
    assert m_n(simple, 1) == 0 == m_n(cover, 1)


def test_cover_mn_mixed_family():
    spec = finite_spec(*(FactorSpec(A1, q) for q in (5, 7, 9, 11, 13)))
    assert cover_quotient(spec, range(1, 21))


def test_cover_quotient_compares_logs_only_when_m_n_gives_one():
    # PSL2(7) has degree 3 <= 2^2 while SL2(7) has nothing of degree <= 2
    spec = finite_spec(FactorSpec(A1, 7, multiplicity=BigPower(5, 10 ** 12)))
    simple, cover = with_flag(spec, True), with_flag(spec, False)
    assert m_n(simple, 1) == 0 == m_n(cover, 1)
    assert isinstance(m_n(simple, 4), float) and m_n(cover, 2) == 0
    assert isinstance(m_n(simple, 9), float) and isinstance(m_n(cover, 3), float)
    assert cover_quotient(spec, [1, 2, 3])


@pytest.mark.parametrize(
    "spec, top",
    [
        (finite_spec(*(FactorSpec(A1, q) for q in (5, 7, 9, 11, 13))), 20),
        (sl2_over_primes_spec(3), 60),
        (build_fixed_type(Fraction(2), A1, 5), 60),
        # ints, then logs from the first BigPower too large to materialize
        (
            GroupSpec(
                (
                    PrimeStratum(5, 1),
                    PrimeStratum(7, 10 ** 20, simple=True),
                    FiniteStratum((FactorSpec(A1, 7, multiplicity=BigPower(5, 10 ** 12)),)),
                )
            ),
            30,
        ),
    ],
)
def test_m_ns_is_m_n_at_every_n(spec, top):
    # one walk gives each n the same int, or the same float to the bit
    for simple in (True, False):
        view = with_flag(spec, simple)
        ns = [n * n for n in range(1, top + 1)] if simple else list(range(top, 0, -1))
        got = m_ns(view, ns)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in (m_n(view, n) for n in ns)]
    assert m_ns(spec, []) == []
    with pytest.raises(PreconditionError):
        m_ns(spec, [3, 0])


@pytest.mark.parametrize(
    "lie_type",
    [A1, LieType("A", 2), LieType("A", 2, True), LieType("B", 2), LieType("G2")],
    ids=str,
)
def test_min_dim_with_a_bound_answers_bound_plus_one_only_above_it(lie_type):
    # the exponent shortcut may only answer for degrees above the bound
    for q, e, simple in itertools.product((2, 3, 4, 5, 7, 8, 9), range(1, 14), (True, False)):
        if tits_excluded(lie_type, q ** e):
            continue
        f = FactorSpec(lie_type, q ** e, simple)
        degree = f.min_nontrivial_dim()
        for bound in {1, 2, 3, 7, 8, 100, 2 ** 20, max(degree - 1, 1), degree, degree + 1}:
            got = f.min_nontrivial_dim(bound)
            assert got in ((degree,) if degree <= bound else (degree, bound + 1))
    # a tower's walk stops on the exponent alone, with no q^j formed
    far = GeometricStratum(lie_type, 5, PolyExponent((0,)), skip=10 ** 9)
    assert list(far.factors_below(10 ** 6)) == []


FAR_TOWER = GeometricStratum(A1, 5, PolyExponent((0, 1)))


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec((replace(FAR_TOWER, skip=10 ** 8),)),
        GroupSpec((replace(FAR_TOWER, lie_type=LieType("A", 30000)),)),
        finite_spec(FactorSpec(LieType("A", 10 ** 5), 5)),
    ],
    ids=["skip", "tower", "factor"],
)
def test_m_n_skips_a_first_dimension_far_above_n(spec):
    # q^(skip+1) and q^|Phi+| have far more digits than n, and are not formed
    assert m_ns(spec, [1, 100]) == [0, 0]
    assert m_n(with_flag(spec, False), 100) == 0


def test_with_flag_switches_tables():
    spec = finite_spec(FactorSpec(A1, 5, simple=True))
    cover = with_flag(spec, simple=False)
    assert dict(truncated_zeta(cover, 6).items()) == {1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}


PAST_A1 = [
    LieType("A", 2), LieType("A", 2, twisted=True), LieType("B", 2), LieType("G2"), LieType("A", 3)
]


@pytest.mark.parametrize("N", [2000, 2 ** 200], ids=["dense", "sparse"])
@pytest.mark.parametrize("t", PAST_A1 + [None], ids=[t.label() for t in PAST_A1] + ["finite"])
def test_the_flag_changes_nothing_past_a1(N, t):
    # the model has no centre past A1, so both views give one series and the
    # same counts there: build_diagonal's one memo of cover-view products
    # rests on this for every stage that is not A1
    if t is not None:
        stratum = build_fixed_type(rho0(t) + Fraction(1, 2), t, 2).strata[0].with_simple(False)
    else:
        big = FactorSpec(LieType("B", 2), 5, simple=False, multiplicity=BigPower(3, 90))
        stratum = FiniteStratum((FactorSpec(LieType("A", 2), 4, simple=False), big))
    spec = GroupSpec((stratum,))
    simple, cover = with_flag(spec, True), with_flag(spec, False)
    got = truncated_zeta(simple, N, backend=EXACT)
    assert got == truncated_zeta(cover, N, backend=EXACT)
    assert len(got) > 1 or t.family == "G2" and N == 2000  # G2(4)'s least degree is 4^6
    ns = [1, 30, 1000, 10 ** 6, N]
    assert m_ns(simple, ns) == m_ns(cover, ns)


# -- the stratum protocol ---------------------------------------------------


def _instance(kind):
    """One stratum of the kind, and a bound below which it has factors."""
    if kind == "finite":
        big = FactorSpec(LieType("A", 2), 4, multiplicity=BigPower(2, 100))
        return FiniteStratum((FactorSpec(A1, 5), big)), 100
    if kind == "geometric":
        return build_fixed_type(Fraction(3, 2), LieType("A", 2), 5).strata[0], 10 ** 8
    if kind == "primes":
        return PrimeStratum(7, 2), 100
    stratum = _diagonal_spec().strata[0]
    return stratum, stratum.exact_horizon()


STRATUM_PROTOCOL = (
    "factors_below",
    "abscissa_rate",
    "count_exponent",
    "with_simple",
    "id_str",
    "to_jsonable",
    "from_jsonable",
)


@pytest.mark.parametrize("kind", sorted(STRATUM_KINDS))
def test_every_stratum_kind_defines_the_protocol_the_module_lists(kind):
    cls = STRATUM_KINDS[kind]
    for name in STRATUM_PROTOCOL:
        assert callable(getattr(cls, name, None)), name
        assert f"{name}(" in growth.__doc__, name


@pytest.mark.parametrize("kind", sorted(STRATUM_KINDS))
def test_stratum_protocol_every_kind(kind):
    s, bound = _instance(kind)
    assert type(s) is STRATUM_KINDS[kind] and s.to_jsonable()["index"] == kind
    for simple in (True, False):
        flagged = with_flag(GroupSpec((s,)), simple).strata[0]
        walk = list(flagged.factors_below(bound))
        assert walk and all(f.simple == simple for _, f in walk)
        assert all(d == checked_factor(f).min_nontrivial_dim() <= bound for d, f in walk)
        assert all(type(f) is growth._Factor and f == checked_factor(f).item for _, f in walk)
    assert type(s).from_jsonable(s.to_jsonable()) == s
    assert GroupSpec.from_jsonable(GroupSpec((s,)).to_jsonable()) == GroupSpec((s,))


@pytest.mark.parametrize("p_min", [5, 7])
@pytest.mark.parametrize("E", range(4))
def test_prime_stratum_rates_frozen(E, p_min):
    spec = GroupSpec((PrimeStratum(p_min, E),))
    sid = f"primes(p>={p_min},E={E})"
    rate, count = Fraction(3 * E + 2), Fraction(3 * E + 1)
    assert exact_abscissa(spec) == RateSummary("rational", rate, ((sid, "rational", rate),))
    assert prg_verdict(spec) == PrgVerdict(True, count, None, ((sid, count),))


def test_superlinear_stratum_rates_frozen():
    spec = GroupSpec(
        (
            GeometricStratum(A1, 5, PolyExponent((0, 0, 1))),
            GeometricStratum(LieType("A", 2), 4, PolyExponent((0, 1))),
        )
    )
    super_id, linear_id = "geom(A1,q=5)", "geom(A2,q=4)"
    assert exact_abscissa(spec) == RateSummary(
        "infinite", None, ((super_id, "infinite", None), (linear_id, "rational", Fraction(1)))
    )
    assert prg_verdict(spec) == PrgVerdict(
        False, None, super_id, ((super_id, None), (linear_id, Fraction(1, 3)))
    )


# -- spec JSON ---------------------------------------------------------------


def test_spec_round_trip_every_stratum_kind():
    specs = [
        sl2_over_primes_spec(4),
        build_fixed_type(Fraction(3, 2), LieType("A", 2), 5),
        finite_spec(
            FactorSpec(A1, 5, simple=False, multiplicity=3),
            FactorSpec(LieType("A", 2), 4, multiplicity=BigPower(2, 100)),
        ),
        GroupSpec((GeometricStratum(A1, 5, PolyExponent((0, 0, 1))),)),
        # non-canonical pair sets, written and read as "pairs"
        finite_spec(FactorSpec(LieType("A", 2), 4, pairs=PairSet([(1, 3), (2, 3)]))),
        GroupSpec(
            (
                GeometricStratum(
                    LieType("A", 2), 5, PolyExponent((0, 1)), pairs=PairSet([(0, 1), (2, 3)])
                ),
            )
        ),
    ]
    for spec in specs:
        again = GroupSpec.from_jsonable(spec.to_jsonable())
        assert again == spec
        # canonical-form idempotence
        assert again.to_jsonable() == spec.to_jsonable()


def test_prime_stratum_reads_its_pair_set():
    # to_jsonable writes "pairs": [[1, 1]], and from_jsonable accepts that
    # set alone
    spec = sl2_over_primes_spec(3)
    assert spec.to_jsonable()["strata"][0]["pairs"] == [[1, 1]]
    assert GroupSpec.from_jsonable(spec.to_jsonable()) == spec
    obj = spec.to_jsonable()
    obj["strata"][0]["pairs"] = [[0, 1]]
    with pytest.raises(PreconditionError, match="A1 pair set"):
        GroupSpec.from_jsonable(obj)


def test_spec_parse_errors_carry_pointers():
    with pytest.raises(SpecFormatError):
        GroupSpec.from_jsonable({"nope": []})
    try:
        GroupSpec.from_jsonable({"strata": [{"index": "weird"}]})
    except SpecFormatError as e:
        assert "/strata/0" in str(e)


@pytest.mark.parametrize("M", [2.5, "3", -1.0, True, 0])
def test_a_multiplicity_must_be_an_int_or_a_big_power(M):
    # the walk item trusts FactorSpec's checks, so a float, a string or a
    # bool is refused here rather than failing inside truncated_zeta
    with pytest.raises(PreconditionError, match="multiplicity"):
        FactorSpec(A1, 5, multiplicity=M)


A2 = LieType("A", 2)
NON_INT_FIELDS = {
    "mult_exponent float": (lambda: PrimeStratum(11, 1.5), "mult_exponent"),
    "p_min float": (lambda: PrimeStratum(5.5, 1), "p_min"),
    "mult_exponent bool": (lambda: PrimeStratum(5, True), "mult_exponent"),
    "skip float": (lambda: GeometricStratum(A2, 5, PolyExponent((1,)), skip=0.5), "skip"),
    "skip bool": (lambda: GeometricStratum(A2, 5, PolyExponent((1,)), skip=True), "skip"),
    "q float": (lambda: GeometricStratum(A2, 5.0, PolyExponent((1,))), "q"),
    "coefficient float": (lambda: PolyExponent((1.5,)), r"coeffs\[0\]"),
}


@pytest.mark.parametrize("name", NON_INT_FIELDS)
def test_a_stratum_field_must_be_a_plain_int(name):
    # the walk reads these fields unchecked: a float once gave a float count
    # from m_n, or a failure inside the sieve or truncated_zeta, and True was
    # taken as 1
    build, field = NON_INT_FIELDS[name]
    with pytest.raises(PreconditionError, match=rf"^{field} must be an int, got "):
        build()


def test_tits_exclusion_rejected_in_factors():
    with pytest.raises(PreconditionError):
        FactorSpec(A1, 2)
    with pytest.raises(PreconditionError):
        FactorSpec(A1, 3)
    FactorSpec(A1, 4)


def test_tits_exclusion_rejected_in_geometric_towers():
    # only an unskipped tower over q in {2, 3} starts at an excluded factor
    for q in (2, 3):
        with pytest.raises(PreconditionError, match="Tits-excluded"):
            GeometricStratum(A1, q, PolyExponent((0, 1)))
        GeometricStratum(A1, q, PolyExponent((0, 1)), skip=1)
    with pytest.raises(PreconditionError, match="Tits-excluded"):
        GeometricStratum(LieType("G2"), 2, PolyExponent((0, 1)))
    GeometricStratum(LieType("G2"), 3, PolyExponent((0, 1)))
    GeometricStratum(A1, 4, PolyExponent((0, 1)))


def test_pair_set_validation_in_factors():
    with pytest.raises(PreconditionError):
        FactorSpec(A1, 5, pairs=PairSet([(2, 1)]))


def test_empty_pair_set_is_refused_when_built():
    with pytest.raises(PreconditionError, match="empty"):
        FactorSpec(LieType("A", 2), 5, pairs=PairSet([]))
    with pytest.raises(PreconditionError, match="empty"):
        GeometricStratum(LieType("A", 2), 5, PolyExponent((0, 1)), pairs=PairSet([]))
    with pytest.raises(PreconditionError, match="empty"):
        prec_min(PairSet([]), Fraction(2))


def test_diagonal_stratum_meets_the_construction_rules():
    spec = _diagonal_spec()
    diag = spec.strata[0]
    stage = diag.stages[0]
    assert DiagonalStratum(Fraction(2), ()).exact_horizon() == 1
    for rho, stages in [
        (Fraction(0), ()),
        (Fraction(-2), ()),
        (stage.rho_m, diag.stages),  # a stage at the limit
        (diag.rho, diag.stages[::-1]),  # abscissae and checkpoints decreasing
        (diag.rho, (replace(stage, n_m=1),)),
        (diag.rho, (stage, replace(stage, n_m=stage.n_m + 1))),  # rho_m repeated
        (diag.rho, (stage, replace(stage, rho_m=(stage.rho_m + diag.rho) / 2))),  # n_m repeated
    ]:
        with pytest.raises(PreconditionError):
            DiagonalStratum(rho, stages)
    # with_flag rebuilds every stratum, so the rules hold in both views
    assert with_flag(with_flag(spec, False), True) == spec


def test_diagonal_spec_round_trip_and_horizon_warning():
    from repgrowth.constructor import build_diagonal, default_diagonal_targets

    targets = default_diagonal_targets(Fraction(2), 3, 5)
    spec, _ = build_diagonal(Fraction(2), targets, 10 ** 8)
    again = GroupSpec.from_jsonable(spec.to_jsonable())
    assert again == spec
    horizon = spec.strata[0].exact_horizon()
    with pytest.warns(TruncationWarning):
        truncated_zeta(spec, horizon * 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        truncated_zeta(spec, horizon)  # inside the horizon: no warning
    assert m_n(spec, 5) >= 0


def test_power_one_plus_exact_bigpower():
    from repgrowth.dirichlet import power_one_plus

    base = DirichletSeries(8, {1: 1, 2: 1})
    got = power_one_plus(base, BigPower(5, 3), 8)
    want = power_one_plus(base, 125, 8)
    assert got == want


def test_rate_summary_csv():
    text = exact_abscissa(sl2_over_primes_spec(3)).to_csv()
    assert text.splitlines()[0] == "stratum,kind,rate"
    assert text.splitlines()[-1] == "abscissa,,5"


def test_truncation_exact_in_N_not_just_J():
    # entries below N never change when the truncation bound grows
    rng = random.Random(77)
    cases = [
        (build_fixed_type(Fraction(2), A1, 5), 4000),
        (sl2_over_primes_spec(3), 150),
        (
            finite_spec(
                FactorSpec(A1, 5, simple=True, multiplicity=4),
                FactorSpec(LieType("A", 2), 5, multiplicity=2),
            ),
            4000,
        ),
    ]
    for spec, top in cases:
        for _ in range(3):
            N = rng.randint(10, top)
            small = truncated_zeta(spec, N)
            big = truncated_zeta(spec, N * rng.randint(2, 5))
            assert dict(small.items()) == {d: m for d, m in big.items() if d <= N}
