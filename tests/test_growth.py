import hashlib
import itertools
import json
import math
import random
import sys
import warnings
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.char_tables import psl2_table, sl2_table, zeta_series
from repgrowth.constructor import (
    build_diagonal,
    build_fixed_type,
    default_diagonal_targets,
    make_schedule,
)
from repgrowth.dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    RangeOverflow,
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
from repgrowth.lie_data import LieType, PairSet, rho0, xi_terms
from test_acceptance import _brute_product, _degrees
from test_dirichlet import count_series_inits

A1 = LieType("A", 1)


def finite_spec(*factors):
    return GroupSpec((FiniteStratum(tuple(factors)),))


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
    factors = [s.factor_at(j) for s in spec.strata for j in range(1, 40) if s.min_dim_at(j) <= N]
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
        factors = [f for _, f in _contributions(spec, N)]
        assert truncated_zeta(spec, N, backend="exact") == convolve_chain(factors, N, "exact")
        got_log = truncated_zeta(spec, N, backend="log")
        want_log = convolve_chain(factors, N, "log")
        assert got_log.dims == want_log.dims
        for a, b in zip(got_log.mults, want_log.mults):
            assert abs(a - b) < 1e-9
        for f in factors:
            for backend in ("exact", "log"):
                want = [(d, m) for d, m in reference_unit_series(f, N, backend).items() if d != 1]
                assert f.x_terms(N, backend) == want
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
def test_tower_walk_forms_each_field_once(monkeypatch, name):
    # factors_below calls field(i) once per index it visits, the last one
    # (where the degree passes the bound) included, and yields what
    # min_dim_at(i, bound) and factor_at(i) give at each index before it
    make, bounds = TOWER_WALKS[name]
    stratum = make()
    towers = [st.stratum for st in stratum.stages] if name == "diagonal" else [stratum]
    calls = []
    for cls in {type(t) for t in towers}:
        field = cls.field

        def counting(self, i, field=field):
            calls.append((id(self), i))
            return field(self, i)

        monkeypatch.setattr(cls, "field", counting)
    longest = 0
    for bound in bounds:
        calls.clear()
        got = list(stratum.factors_below(bound))
        visited = list(calls)
        assert len(set(visited)) == len(visited), (bound, visited)
        want, stops = [], 0
        for t in towers:
            indices = [i for key, i in visited if key == id(t)]
            if indices:
                want += [(t.min_dim_at(i, bound), t.factor_at(i)) for i in indices[:-1]]
                assert t.min_dim_at(indices[-1], bound) > bound
                stops += 1
        assert got == want, bound
        assert len(got) == len(visited) - stops
        longest = max(longest, len(got))
    assert longest >= 3


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


@pytest.mark.parametrize("backend", ["Exact", "LOG", "", "float"])
def test_unknown_backend_is_refused_before_any_work(backend, monkeypatch):
    # a misspelt backend must not fall through to the log branch
    def no_factors(*args):
        raise AssertionError("factors enumerated before the backend was checked")

    monkeypatch.setattr(growth, "_contributions", no_factors)
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


@pytest.mark.parametrize("backend", [EXACT, LOG])
def test_each_factor_is_applied_as_it_is_formed(monkeypatch, backend):
    N = 5000
    spec = _order_spec()
    events = []
    power_terms, mul_into = growth._power_terms, growth._mul_into

    def traced_power_terms(*args):
        x = power_terms(*args)
        events.append(("power", x[0][0]))
        return x

    def traced_mul_into(acc, src, d1s, x, *args):
        events.append(("mul", x[0][0]))
        return mul_into(acc, src, d1s, x, *args)

    monkeypatch.setattr(growth, "_power_terms", traced_power_terms)
    monkeypatch.setattr(growth, "_mul_into", traced_mul_into)
    truncated_zeta(spec, N, backend=backend)
    n = len(list(_contributions(spec, N)))
    assert [kind for kind, _ in events] == ["power", "mul"] * n
    dims = [d for _, d in events[::2]]
    assert [d for _, d in events[1::2]] == dims == sorted(dims)


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


@pytest.mark.parametrize("exponent", [10 ** 400, 17 * 10 ** 307])
def test_m_n_of_a_multiplicity_past_double_range_is_a_range_error(exponent):
    # the log of 3**(17 * 10**307) used to come back as inf, and the count
    # along with it; 10**400 raised a plain OverflowError
    spec = finite_spec(FactorSpec(A1, 5, simple=True, multiplicity=BigPower(3, exponent)))
    for walk in (lambda: m_n(spec, 10), lambda: truncated_zeta(spec, 10)):
        with pytest.raises(RangeOverflow, match=rf"^3\*\*{exponent} is too large"):
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
        sched = make_schedule(rho, t, a)
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


def _bisect_window(spec, N):
    """The windowed max as computed before it read the slopes: ln R_n by
    bisection at lo, at N and at every dimension in [lo, N]."""
    series = truncated_zeta(spec, N, backend=LOG)
    dims = series.dims
    prefix = list(itertools.accumulate(series.mults, _logaddexp))

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


@pytest.mark.parametrize("d,N", [(3, 2500), (5, 999)])
def test_log_cumulative_is_the_slope_prefix_bit_for_bit(d, N):
    spec = sl2_over_primes_spec(d)
    series = truncated_zeta(spec, N, backend=LOG)
    prefix = list(itertools.accumulate(series.mults, _logaddexp))
    assert [cumulative(series, n) for n in series.dims] == prefix
    assert cumulative(series, series.cutoff) == prefix[-1]
    points = empirical_slope(spec, N).points
    assert [p.log10_R for p in points] == [
        cumulative(series, p.n) / math.log(10.0) for p in points
    ]


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
        degree = growth._min_dim(lie_type, q ** e, simple, None)
        for bound in {1, 2, 3, 7, 8, 100, 2 ** 20, max(degree - 1, 1), degree, degree + 1}:
            got = growth._min_dim(lie_type, q, simple, None, e, bound)
            assert got in ((degree,) if degree <= bound else (degree, bound + 1))
        assert growth._min_dim(lie_type, q, simple, None, 10 ** 9 * e, 10 ** 6) == 10 ** 6 + 1


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


@pytest.mark.parametrize("kind", sorted(STRATUM_KINDS))
def test_stratum_protocol_every_kind(kind):
    s, bound = _instance(kind)
    assert type(s) is STRATUM_KINDS[kind] and s.to_jsonable()["index"] == kind
    for simple in (True, False):
        flagged = with_flag(GroupSpec((s,)), simple).strata[0]
        walk = list(flagged.factors_below(bound))
        assert walk and all(f.simple == simple for _, f in walk)
        assert all(d == f.min_nontrivial_dim() <= bound for d, f in walk)
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


def test_spec_parse_errors_carry_pointers():
    with pytest.raises(SpecFormatError):
        GroupSpec.from_jsonable({"nope": []})
    try:
        GroupSpec.from_jsonable({"strata": [{"index": "weird"}]})
    except SpecFormatError as e:
        assert "/strata/0" in str(e)


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
        make_schedule(Fraction(2), LieType("A", 2), PairSet([]))


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
