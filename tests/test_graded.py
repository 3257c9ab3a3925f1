"""Graded series: series whose every dimension is a power of one prime p
multiply on the exponents of p, through the kernels dirichlet._mul_terms
(convolve) and dirichlet._mul_into (truncated_zeta) with keys added in
place of dimensions multiplied, in the same update order, so both key
rules give the same series to the bit.  build_diagonal
forms each stage series past A1 by a recurrence instead
(constructor._StageRun), one run per stage stratum extended to each larger
cutoff: the same series to the bit again."""
import functools
import hashlib
import inspect
import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth import char_tables, constructor, dirichlet, growth
from repgrowth.constructor import build_diagonal, build_fixed_type, default_diagonal_targets
from repgrowth.dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    convolve,
    cumulative,
    floor_log,
)
from repgrowth.errors import InvariantError, PreconditionError
from repgrowth.growth import (
    DiagonalStratum,
    FactorSpec,
    FiniteStratum,
    GeometricStratum,
    GroupSpec,
    PolyExponent,
    PrimeStratum,
    TruncationWarning,
    sl2_over_primes_spec,
    truncated_zeta,
)
from repgrowth.lie_data import A1, LieType, PairSet, canonical_pair_set, positive_root_count, tits_excluded
from test_acceptance import _brute_product

TYPES = (
    LieType("A", 2),
    LieType("A", 2, True),
    LieType("B", 2),
    LieType("G2"),
    LieType("A", 3),
    LieType("C", 3),
)
PRIMES = (2, 3, 5, 7)
MOST_FACTORS = 12  # per tower or finite stratum below N, to bound each example's work


def _valid_pairs(t: LieType):
    """Every pair (m, n) that require_pair_set accepts for t."""
    rk, pos = t.rank, positive_root_count(t)
    return [(m, n) for m in range(rk + 1) for n in range(1, pos + 1) if m * pos <= n * rk]


@functools.cache
def _diagonal(p: int) -> DiagonalStratum:
    spec, _ = build_diagonal(Fraction(2), default_diagonal_targets(Fraction(2), 3, p))
    return spec.strata[0]


@st.composite
def _pair_sets(draw, t: LieType):
    if draw(st.booleans()):
        return None  # the canonical set
    pairs = draw(st.sets(st.sampled_from(_valid_pairs(t)), min_size=1, max_size=3))
    return PairSet(pairs)


@st.composite
def graded_cases(draw):
    """(spec, N): one to three strata graded by one prime p (towers of rank
    >= 2 over q = p^k, finite factors past A1 over powers of p, a diagonal
    over p), and a dense N <= 3000 or a sparse N up to about 2^2000; each
    field exponent k is large enough that at most MOST_FACTORS factors of a
    stratum lie below N."""
    p = draw(st.sampled_from(PRIMES))
    sparse = draw(st.booleans())
    top = draw(st.integers(8, 2000 if sparse else 11))  # log2 of N, about
    D = int(top / math.log2(p))
    if not sparse:
        N = draw(st.integers(2, 3000))
        D = floor_log(N, p)
    k_min = max(1, -(-D // MOST_FACTORS))
    strata = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["tower", "finite", "diagonal"] if D <= 60 else ["tower", "finite"]))
        if kind == "diagonal":
            strata.append(_diagonal(p))
            continue
        t = draw(st.sampled_from(TYPES))
        pairs = draw(_pair_sets(t))
        if kind == "tower":
            q = p ** draw(st.integers(k_min, k_min + 3))
            rule = PolyExponent((draw(st.integers(0, 3)), draw(st.integers(0, 2))))
            skip = 1 if tits_excluded(t, q) else draw(st.integers(0, 2))
            strata.append(GeometricStratum(t, q, rule, draw(st.booleans()), pairs, skip))
            continue
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            q = p ** draw(st.integers(k_min, k_min + 3))
            if tits_excluded(t, q):
                q *= p
            M = draw(st.one_of(st.integers(1, 10 ** 6), st.builds(BigPower, st.just(p), st.integers(0, 400))))
            factors.append(FactorSpec(t, q, draw(st.booleans()), M, pairs))
        strata.append(FiniteStratum(tuple(factors)))
    if sparse:
        e = draw(st.integers(max(1, D - 40), D))
        N = draw(st.integers(p ** e, p ** (e + 1) - 1))
    return GroupSpec(tuple(strata)), N


def _both_kernels(spec, N, backend):
    """truncated_zeta as is and with every factor's grading() None."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # N past a diagonal's horizon
        graded = truncated_zeta(spec, N, backend=backend)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(growth._Factor, "grading", lambda self: None)
            plain = truncated_zeta(spec, N, backend=backend)
    return graded, plain


@settings(max_examples=100, deadline=None)
@given(graded_cases(), st.sampled_from([EXACT, LOG]))
def test_graded_and_dict_kernels_give_the_same_bytes(case, backend):
    spec, N = case
    graded, plain = _both_kernels(spec, N, backend)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        ps = {f.grading() for _, f in growth._contributions(spec, N)}
    p = ps.pop() if len(ps) == 1 else None
    assert graded.grading == p and plain.grading is None
    assert graded.to_json().encode() == plain.to_json().encode()
    if p is not None:
        assert [(p ** e, m) for e, m in zip(graded.keys, graded.mults)] == list(plain.items())


def _copy_degrees(q: int, pairs: PairSet) -> list:
    """The degrees of one copy of S(q) under the pair-set model, each as
    often as its multiplicity: 1, then q^n with multiplicity q^m per pair."""
    return [1] + [q ** n for m, n in pairs for _ in range(q ** m)]


@pytest.mark.parametrize(
    "pairs, branch",
    [(None, "kernel"), (None, "recurrence"), (PairSet([(0, 1), (1, 2), (2, 3)]), "kernel")],
    ids=["canonical-kernel", "canonical-recurrence", "three-pairs-kernel"],
)
def test_graded_products_match_brute_force_degree_enumeration(pairs, branch):
    # the kernel is truncated_zeta's; the recurrence, a stage run's, takes
    # the canonical pair set alone
    a2 = LieType("A", 2)
    factors = (FactorSpec(a2, 2, multiplicity=3, pairs=pairs), FactorSpec(a2, 4, multiplicity=2, pairs=pairs))
    spec = GroupSpec((FiniteStratum(factors),))
    N = 2 ** 13 + 5
    if branch == "kernel":
        got = truncated_zeta(spec, N, backend=EXACT)
    else:
        # each factor's one term a * t^e from its canonical pair (m, n): e = k*n over q = 2^k, a = q^m
        (m, n), = canonical_pair_set(a2)
        triples = [(f.multiplicity, f.item.k * n, f.q ** m) for f in factors]
        got = constructor._StageRun(2).extend(triples, N, floor_log(N, 2))
    degrees = [_copy_degrees(f.q, f.pair_set()) for f in factors for _ in range(f.multiplicity)]
    assert got.grading == 2 and dict(got.items()) == _brute_product(degrees, N)


def test_a_one_factor_graded_product_forms_its_terms_once(monkeypatch):
    # the kernel forms the one factor's x_f once
    a2 = LieType("A", 2)
    for M in (1, 3, 10 ** 6):
        spec = GroupSpec((FiniteStratum((FactorSpec(a2, 4, multiplicity=M),)),))
        want = truncated_zeta(spec, 2 ** 300, backend=EXACT)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            real = growth._Factor.x_terms
            mp.setattr(growth._Factor, "x_terms", lambda *a: calls.append(a) or real(*a))
            got = truncated_zeta(spec, 2 ** 300, backend=EXACT)
        assert got.grading == 2 and got.to_json() == want.to_json()
        assert len(calls) == 1, M


def test_a_remainder_in_the_recurrence_is_an_invariant_failure():
    # each F_n must come out of one exact division: a multiplicity read as
    # 1/3, whose (1 + 4 t^3)^(1/3) = 1 + (4/3) t^3 - ... is no count, is exit 5
    # (the A2 factors over 2 and 4: t^3 with count 4, t^6 with count 16)
    with pytest.raises(InvariantError, match="remainder") as info:
        constructor._StageRun(2).extend([(Fraction(1, 3), 3, 4), (Fraction(1, 3), 6, 16)], 2 ** 30, 30)
    assert info.value.exit_code == 5


def _watch_graded_kernel(mp, seen):
    """Wrap both paths that form a graded product and pass each use to
    seen: "kernel from <module>" before each call of a kernel in graded
    mode, keys added rather than multiplied, where convolve calls
    _mul_terms (dirichlet) and truncated_zeta calls _mul_into (growth); and
    "recurrence from repgrowth.constructor" each time a stage stratum's run
    in build_diagonal gives a graded product (below every factor it gives
    the plain unit series)."""
    for module, name in ((dirichlet, "_mul_terms"), (growth, "_mul_into")):
        real = getattr(module, name)

        def watched(*args, _name=module.__name__, _real=real, _bind=inspect.signature(real).bind, **kwargs):
            if _bind(*args, **kwargs).arguments.get("graded"):
                seen(f"kernel from {_name}")
            return _real(*args, **kwargs)

        mp.setattr(module, name, watched)
    recurrence = constructor._StageRun.extend

    def watched_recurrence(*args):
        series = recurrence(*args)
        if series.grading is not None:
            seen("recurrence from repgrowth.constructor")
        return series

    mp.setattr(constructor._StageRun, "extend", watched_recurrence)


def _forbid_graded_kernel(mp):
    def refuse(label):
        raise AssertionError(f"entered the graded {label}")

    _watch_graded_kernel(mp, refuse)


def _a1_and_mixed_specs():
    a2 = LieType("A", 2)
    sched = constructor.make_schedule(Fraction(2), a2)
    yield sl2_over_primes_spec(3)
    yield GroupSpec((GeometricStratum(A1, 5, constructor.make_schedule(Fraction(2), A1)),))
    yield GroupSpec((FiniteStratum((FactorSpec(a2, 4), FactorSpec(A1, 8))),))
    yield GroupSpec((GeometricStratum(a2, 5, sched), FiniteStratum((FactorSpec(a2, 7),))))
    yield GroupSpec((GeometricStratum(a2, 4, sched), GeometricStratum(a2, 9, sched)))
    yield GroupSpec((GeometricStratum(a2, 5, sched), PrimeStratum(7, 1)))
    yield GroupSpec((FiniteStratum(()),))


@pytest.mark.parametrize("backend", [EXACT, LOG])
def test_a1_and_mixed_prime_specs_never_enter_the_graded_kernel(backend):
    with pytest.MonkeyPatch.context() as mp:
        _forbid_graded_kernel(mp)
        for spec in _a1_and_mixed_specs():
            series = truncated_zeta(spec, 10 ** 4, backend=backend)
            assert series.grading is None
        # the controls: the same patch stops a graded spec in truncated_zeta's
        # kernel, and the same tower as a stage stratum in its run (exact only)
        a2 = LieType("A", 2)
        tower = GeometricStratum(a2, 5, constructor.make_schedule(Fraction(2), a2))
        with pytest.raises(AssertionError, match="graded kernel from repgrowth.growth"):
            truncated_zeta(GroupSpec((tower,)), 10 ** 5, backend=backend)
        if backend == EXACT:
            with pytest.raises(AssertionError, match="graded recurrence from repgrowth.constructor"):
                constructor._Unions(0).stage(tower, 10 ** 5)


# the A2 tower over 5 at N = 5^12, alone or with a stratum that applies no factor there
EDGE_DIGESTS = {
    EXACT: "ad9405283c50add1141faacb4e68e131c1a4d2082cb5c1f78fda9308d7702512",
    LOG: "bab6f0a0339535c3ebab23593a1310c0b5afdf5c00e94119442d578b6dede465",
}


def _a2_tower() -> GeometricStratum:
    return build_fixed_type(Fraction(2), LieType("A", 2), 5).strata[0]


@pytest.mark.parametrize("backend", [EXACT, LOG])
@pytest.mark.parametrize(
    "idle", [PrimeStratum(10 ** 9, 1), FiniteStratum(())], ids=["primes", "empty"]
)
def test_a_stratum_with_no_factor_at_N_keeps_the_product_graded(idle, backend):
    # the key rule is read off the factors applied: a prime stratum whose
    # first factor lies past N, or an empty finite stratum, applies none
    spec = GroupSpec((_a2_tower(), idle))
    graded, plain = _both_kernels(spec, 5 ** 12, backend)
    assert graded.grading == 5 and plain.grading is None
    digest = hashlib.sha256(graded.to_json().encode()).hexdigest()
    assert graded.to_json() == plain.to_json() and digest == EDGE_DIGESTS[backend]


def test_a_product_of_no_factor_is_the_plain_unit_series():
    tower = _a2_tower()
    assert tower.min_dim_at(1) == 125
    series = truncated_zeta(GroupSpec((tower,)), 100)
    assert series == DirichletSeries(100, {1: 1}) and series.grading is None


def test_a_union_with_no_factor_of_its_last_stratum_is_its_head(monkeypatch):
    # a candidate scanned below its onset adds nothing: no convolve runs,
    # and the union's series is the head's, graded as it is
    a2, a3 = _a2_tower(), build_fixed_type(Fraction(2), LieType("A", 3), 5).strata[0]
    assert a3.min_dim_at(1) == 5 ** 6
    calls = []
    real = constructor.convolve
    monkeypatch.setattr(constructor, "convolve", lambda *a: calls.append(a) or real(*a))
    head = truncated_zeta(GroupSpec((a2,)), 5 ** 5, backend=EXACT)
    got = constructor._Unions(0).product((a2, a3), 5 ** 5)
    assert calls == [] and got == head and got.grading == 5


@pytest.mark.parametrize(
    "targets",
    [
        [(Fraction(3, 2), A1, 5), (Fraction(7, 4), LieType("A", 2), 5)],
        [(Fraction(3, 2), LieType("A", 2), 5), (Fraction(7, 4), LieType("A", 3), 7)],
    ],
    ids=["a1-first", "two-primes"],
)
def test_products_with_an_a1_stage_or_two_primes_take_the_dict_kernel(monkeypatch, targets):
    # each stage past A1 is graded alone, but a product with an A1 stage or
    # with a stage over another prime is not, so convolve keys by dimensions;
    # a stage series past A1 comes from its stratum's run
    products, calls = [], []
    real = constructor.convolve
    monkeypatch.setattr(constructor, "convolve", lambda *a, **k: products.append(real(*a, **k)) or products[-1])
    _watch_graded_kernel(monkeypatch, calls.append)
    _, cert = build_diagonal(Fraction(2), targets)
    assert cert.complete and products
    assert all(s.grading is None for s in products)
    # graded stage series, no graded convolve
    assert set(calls) == {"recurrence from repgrowth.constructor"}


def test_a_graded_build_forms_its_products_on_exponents(monkeypatch):
    # the control for the test above: a graded build's convolve keys by
    # exponents, and the patch that refuses graded mode stops the build at
    # its first stage series
    with pytest.MonkeyPatch.context() as mp:
        _forbid_graded_kernel(mp)
        with pytest.raises(AssertionError, match="graded recurrence from repgrowth.constructor"):
            build_diagonal(Fraction(2), default_diagonal_targets(Fraction(2), 2, 5))
    calls = []
    _watch_graded_kernel(monkeypatch, calls.append)
    _, cert = build_diagonal(Fraction(2), default_diagonal_targets(Fraction(2), 3, 5))
    # convolve keyed its updates by exponents, and the stage runs formed
    # their series on exponents
    assert cert.complete and set(calls) == {"kernel from repgrowth.dirichlet", "recurrence from repgrowth.constructor"}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.dictionaries(st.integers(0, 300), st.integers(1, 10 ** 30), min_size=1, max_size=12),
    st.dictionaries(st.integers(1, 300), st.integers(1, 10 ** 30), min_size=1, max_size=12),
    st.integers(0, 400),
    st.sampled_from([EXACT, LOG]),
)
def test_graded_convolve_is_the_dict_convolve(p, a, b, e, backend):
    N = p ** e + p ** e // 3
    top = floor_log(N, p)
    a = {k: v for k, v in a.items() if k <= top} or {0: 1}
    b = {k: v for k, v in b.items() if k <= top} or {0: 1}
    ga, gb = DirichletSeries(N, a, EXACT, p), DirichletSeries(N, b, EXACT, p)
    if backend == LOG:
        ga, gb = (DirichletSeries(N, {k: math.log(v) for k, v in s.items()}, LOG, p) for s in (a, b))
    da, db = (DirichletSeries(N, list(s.items()), backend) for s in (ga, gb))
    assert ga == da and gb == db
    M = max(1, N // p)
    got, want = convolve(ga, gb, M), convolve(da, db, M)
    assert got.grading == p and want.grading is None
    assert got.to_json() == want.to_json()
    assert convolve(ga, db, M).grading is None  # one plain operand: the dict kernel
    for graded, plain in ((ga, da), (gb, db), (got, want)):
        _agree(graded, plain)


def _agree(graded, plain):
    """Every accessor reads the same off a graded series and the series of
    its entries keyed by dimensions: at every dimension, one off it, and
    every power of p, at or one below it."""
    p = graded.grading
    assert p is not None and plain.grading is None
    assert graded == plain and hash(graded) == hash(plain) and len(graded) == len(plain)
    assert list(graded.items()) == list(plain.items())
    assert graded.to_csv() == plain.to_csv() and graded.to_json() == plain.to_json()
    assert graded.to_log() == plain.to_log() and graded.to_log().grading == p
    N = graded.cutoff
    powers = (p ** e + k for e in range(floor_log(N, p) + 1) for k in (-1, 0))
    near = (d + k for d in plain.dims for k in (-1, 0, 1))
    for n in sorted({n for n in itertools.chain(powers, near, [N]) if 1 <= n <= N}):
        assert graded.mult_at(n) == plain.mult_at(n)
        assert cumulative(graded, n) == cumulative(plain, n)
        cut = graded.prefix(n)
        assert cut == plain.prefix(n) and cut.grading == p
    assert graded.mult_at(0, "none") == plain.mult_at(0, "none") == "none"


def _fresh_and_extended(a, b, M, N):
    have = convolve(a, b, M)
    return convolve(a, b, N), convolve(a, b, N, have=have)


def _same_bits(got, want):
    assert type(got) is type(want) and got.grading == want.grading
    assert got.keys == want.keys
    assert got == want and got.to_json() == want.to_json()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(PRIMES),
    st.dictionaries(st.integers(0, 60), st.integers(1, 10 ** 30), min_size=1, max_size=12),
    st.dictionaries(st.integers(0, 60), st.integers(1, 10 ** 30), min_size=1, max_size=12),
    st.tuples(st.integers(0, 60), st.integers(0, 2)),
    st.tuples(st.integers(0, 60), st.integers(0, 2)),
    st.sampled_from([EXACT, LOG]),
)
def test_a_graded_product_extended_past_its_cutoff_is_the_fresh_one(p, a, b, at1, at2, backend):
    # cutoffs on a power of p (offset 0) and between two powers
    M, N = sorted(p ** e + k * (p ** e // 3) for e, k in (at1, at2))
    top = floor_log(N, p)
    a = {k: v for k, v in a.items() if k <= top} or {0: 1}
    b = {k: v for k, v in b.items() if k <= top} or {0: 1}
    if backend == LOG:
        a, b = ({k: math.log(v) for k, v in s.items()} for s in (a, b))
    want, got = _fresh_and_extended(DirichletSeries(N, a, backend, p), DirichletSeries(N, b, backend, p), M, N)
    assert want.grading == p
    _same_bits(got, want)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(1, 3000), st.integers(1, 10 ** 30), min_size=1, max_size=30),
    st.dictionaries(st.integers(1, 3000), st.integers(1, 10 ** 30), min_size=1, max_size=30),
    st.integers(1, 3000),
    st.integers(1, 3000),
    st.sampled_from([EXACT, LOG]),
)
def test_a_product_keyed_by_dimensions_extended_past_its_cutoff_is_the_fresh_one(a, b, M, N, backend):
    M, N = sorted((M, N))
    if backend == LOG:
        a, b = ({k: math.log(v) for k, v in s.items()} for s in (a, b))
    want, got = _fresh_and_extended(DirichletSeries(N, a, backend), DirichletSeries(N, b, backend), M, N)
    _same_bits(got, want)


def test_an_extension_from_the_unit_series_forms_every_other_entry():
    # below both onsets the product is {1: 1}: graded or not, it extends
    N = 5 ** 30
    a, b = DirichletSeries(N, {0: 1, 7: 3, 20: 2}, grading=5), DirichletSeries(N, {0: 1, 9: 4, 13: 1}, grading=5)
    want = convolve(a, b, N)
    for have in (convolve(a, b, 5 ** 6), DirichletSeries(5 ** 6 + 1, {1: 1})):
        assert len(have) == 1
        _same_bits(convolve(a, b, N, have=have), want)
    da, db = (DirichletSeries(N, list(s.items())) for s in (a, b))
    _same_bits(convolve(da, db, N, have=DirichletSeries(5 ** 6, {1: 1})), convolve(da, db, N))
    with pytest.raises(PreconditionError, match="past the target"):
        convolve(a, b, 5 ** 6, have=want)
    with pytest.raises(PreconditionError, match="not past the cutoff"):
        convolve(a, b, 5 ** 6).after(want)
    with pytest.raises(PreconditionError, match="not past the cutoff"):
        convolve(da, db, 5 ** 6).after(convolve(da, db, 5 ** 8))


def test_an_extension_refuses_a_head_dimension_that_is_no_power_of_p():
    # a head keyed by dimensions is keyed again by exponents of p; 6 has
    # none, and floor_log(6, 5) = 1 would have put its count at 5
    s = DirichletSeries(25, {0: 1, 1: 1}, grading=5)
    assert convolve(s, s, 25) == DirichletSeries(25, {1: 1, 5: 2, 25: 1})
    with pytest.raises(PreconditionError, match="dimension 6 of the head is not a power of 5"):
        convolve(s, s, 25, have=DirichletSeries(6, {1: 1, 6: 7}))


def test_to_log_keeps_the_key_rule():
    s = DirichletSeries(25, {0: 1, 1: 2}, grading=5)
    got = s.to_log()
    assert got.grading == 5 and got.keys == (0, 1)
    assert got == DirichletSeries(25, {1: 0.0, 5: math.log(2)}, LOG)
    # two converted series multiply on their exponents, to the bytes of the
    # product keyed by dimensions
    N = 5 ** 9
    a, b = (DirichletSeries(N, e, grading=5).to_log() for e in ({0: 1, 1: 2, 4: 3}, {0: 1, 2: 5, 3: 7}))
    da, db = (DirichletSeries(N, list(s.items()), LOG) for s in (a, b))
    got, want = convolve(a, b, N), convolve(da, db, N)
    assert got.grading == 5 and want.grading is None
    assert got.to_json().encode() == want.to_json().encode()


def test_a_graded_series_forms_its_dimensions_on_first_read():
    # convolve, prefix, after, mult_at and cumulative read exponents only
    s = DirichletSeries(5 ** 40, {0: 1, 3: 7, 40: 9}, grading=5)
    cut = convolve(s, s, 5 ** 40, have=convolve(s, s, 5 ** 5)).prefix(5 ** 20)
    assert len(cut) == 3 and cut and cut.keys == (0, 3, 6)
    assert cut.mult_at(125) == 14 and cut.mult_at(126) is None and cumulative(cut, 5 ** 6) == 64
    with pytest.raises(AttributeError):
        object.__getattribute__(cut, "_dims")
    assert cut.dims == (1, 125, 15625) and cut.dims is cut.dims
    with pytest.raises(AttributeError, match="no attribute 'other'"):
        cut.other


def test_prefix_keeps_the_grading_and_slices_the_exponents():
    s = DirichletSeries(5 ** 40, {0: 1, 3: 7, 10: 2, 40: 9}, grading=5)
    cut = s.prefix(5 ** 10 + 1)
    assert cut.grading == 5 and cut.keys == (0, 3, 10)
    assert cut == DirichletSeries(5 ** 10 + 1, {1: 1, 125: 7, 5 ** 10: 2})
    plain = DirichletSeries(100, {1: 1, 7: 2, 99: 3}).prefix(50)
    assert type(plain) is DirichletSeries and plain == DirichletSeries(50, {1: 1, 7: 2})
    with pytest.raises(PreconditionError):
        s.prefix(5 ** 41)
    with pytest.raises(PreconditionError, match="past the cutoff"):
        DirichletSeries(5 ** 3, {4: 1}, grading=5)


def graded_terms(terms, p):
    """Reference: (e, m) for each (p^e, m) of terms, the exponent read back
    by a float log, as truncated_zeta once did on a graded spec."""
    lp = math.log(p)
    return [(round(math.log(d) / lp), m) for d, m in terms]


@pytest.mark.parametrize("p", PRIMES + (1009, 2 ** 61 - 1))
def test_floor_log_and_graded_terms_are_exact(p):
    # a tower over p proves p prime once; its factor over q = p^e keys the
    # pair (0, 1), multiplicity 1 at dimension q, by e, with no log taken
    tower = GeometricStratum(LieType("A", 2), p, PolyExponent((0,)), pairs=PairSet([(0, 1)]))
    for e in list(range(0, 60)) + [1000, 4000]:
        x = p ** e
        for N in {x, x + 1, x * p - 1} - {x * p}:
            assert floor_log(N, p) == e
        assert floor_log(x * p, p) == e + 1
        if e:
            f = growth._Factor(tower.lie_type, x, p, e, tower.simple, 1, tower.pairs)
            assert f.x_terms(x, EXACT) == [(x, 1)]
            assert f.x_terms(x, EXACT, floor_log(x, p)) == [(e, 1)]


@st.composite
def graded_factors(draw):
    """(factor, N): a factor past A1 over q = p^k, canonical or with a drawn
    pair set, an int multiplicity (often below its number of powers) or a
    BigPower, and an N whose exponent D = floor_log(N, p) puts the start
    K * e0 of a power x^K, e0 = k * n0 the start of x, at D - 1, D or
    D + 1."""
    p = draw(st.sampled_from(PRIMES))
    t = draw(st.sampled_from(TYPES))
    pairs = draw(_pair_sets(t))
    k = draw(st.integers(1, 4))
    if tits_excluded(t, p ** k):
        k += 1
    M = draw(
        st.one_of(
            st.integers(1, 5),
            st.integers(1, 10 ** 40),
            st.builds(BigPower, st.just(p), st.integers(0, 600)),
        )
    )
    f = FactorSpec(t, p ** k, draw(st.booleans()), M, pairs)
    e0 = k * f.pair_set().min_dim_exponent()
    D = max(e0, draw(st.integers(1, 8)) * e0 + draw(st.sampled_from([-1, 0, 1])))
    return f, draw(st.integers(p ** D, p ** (D + 1) - 1))


@settings(max_examples=300, deadline=None)
@given(graded_factors(), st.sampled_from([EXACT, LOG]))
def test_graded_factor_terms_are_the_dimension_terms_on_exponents(case, backend):
    f, N = case
    p = f.item.grading()
    d = f.min_nontrivial_dim()
    got = growth._factor_terms(f.item, d, N, backend, floor_log(N, p))
    want = graded_terms(growth._factor_terms(f.item, d, N, backend), p)
    assert [e for e, _ in got] == [e for e, _ in want]
    assert [type(m) for _, m in got] == [type(m) for _, m in want]
    if backend == LOG:
        assert [m.hex() for _, m in got] == [m.hex() for _, m in want]
    else:
        assert got == want


def test_equal_strata_built_apart_hash_equal_and_share_one_memo_entry(monkeypatch):
    a2 = LieType("A", 2)
    a = GeometricStratum(a2, 5, constructor.make_schedule(Fraction(2), a2), simple=False)
    b = replace(GeometricStratum(a2, 5, constructor.make_schedule(Fraction(2), a2)), simple=False)
    assert a is not b and a.exponents is not b.exponents
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.lie_type, a.q, a.exponents, a.simple, a.pairs, a.skip))
    assert hash(replace(a, skip=1)) != hash(a)
    calls = []
    real = constructor._Unions.stage

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructor._Unions, "stage", counting)
    unions = constructor._Unions(0)
    first = unions.product((a,), 5 ** 40)
    assert unions.product((b,), 5 ** 40) is first
    assert len(unions.memo) == len(unions.runs) == len(calls) == 1


def test_a_stratum_derived_with_another_skip_or_flag_is_the_replaced_one(monkeypatch):
    a2 = LieType("A", 2)
    base = GeometricStratum(a2, 25, constructor.make_schedule(Fraction(2), a2), simple=False)
    wants = [replace(base, skip=3), replace(base, simple=True), replace(replace(base, skip=2), simple=True)]
    tits = GeometricStratum(A1, 2, PolyExponent((1, 1)), skip=1)
    # the proof of q = 5^2 and the pair set's check carry over
    monkeypatch.setattr(growth, "prime_power", lambda q: pytest.fail("prime_power ran again"))
    monkeypatch.setattr(growth, "_require_pairs", lambda *a: pytest.fail("pair set checked again"))
    gots = [base.with_skip(3), base.with_simple(True), base.with_skip(2).with_simple(True)]
    for got, want in zip(gots, wants):
        assert got == want and hash(got) == hash(want) and got._pk == want._pk == (5, 2)
        assert got.with_skip(0) == base.with_simple(got.simple)
    sched = base.exponents  # its hash formed once, as the dataclass forms it
    assert hash(sched) == hash((sched.rho, sched.rho0, sched.m0, sched.n0, sched.j0))
    with pytest.raises(PreconditionError, match="skip must be >= 0"):
        base.with_skip(-1)
    for bad in (1.0, True):
        with pytest.raises(PreconditionError, match="skip must be an int"):
            base.with_skip(bad)
    with pytest.raises(PreconditionError, match="Tits-excluded"):
        tits.with_skip(0)
    assert tits.with_simple(False).skip == 1


def test_tower_factors_reuse_the_stratum_proof(monkeypatch):
    # a geometric tower builds each S(q^j) without prime_power, and a prime
    # stratum's walk builds a checked FactorSpec only for a powered prime
    # (M != 1 and h^2 <= bound: 5..19 at 100); the public FactorSpec keeps
    # the check
    tower = GeometricStratum(LieType("A", 2), 25, PolyExponent((1, 1)))
    calls = []
    real = char_tables.prime_power
    monkeypatch.setattr(growth, "prime_power", lambda q: calls.append(q) or real(q))
    walked = list(tower.factors_below(25 ** 30))
    assert len(walked) == 10 and calls == []
    checked = [FactorSpec(tower.lie_type, 25 ** j, tower.simple, tower.multiplicity(j)) for j in range(1, 11)]
    assert [f for _, f in walked] == [f.item for f in checked]
    assert len(calls) == 10  # each public FactorSpec runs the check
    calls.clear()
    assert len(list(PrimeStratum(5, 1).factors_below(100))) > 0 and calls == [5, 7, 11, 13, 17, 19]
    with pytest.raises(PreconditionError, match="not a prime power"):
        FactorSpec(LieType("A", 2), 10)


def _fresh(stratum, N):
    return truncated_zeta(GroupSpec((stratum,)), N, backend=EXACT)


def _assert_fresh(stratum, N, got):
    """got is the series a fresh truncated_zeta forms for stratum at N: the
    same entries, bytes and grading."""
    want = _fresh(stratum, N)
    assert got == want and got.grading == want.grading and got.to_json() == want.to_json()


def _walked_factors(stratum, applied, N):
    """The reference for the factors a stage run applies past a cutoff:
    (M, x_f) for each factor of the walk of stratum with applied more
    dropped, x_f = [(e, a)] keyed by the exponent of p, as walk items and
    x_terms form them."""
    top = floor_log(N, stratum._pk[0])
    walk = stratum.with_skip(stratum.skip + applied).factors_below(N)
    return [(dirichlet.mult_to_int(f.multiplicity), f.x_terms(N, EXACT, top)) for _, f in walk]


DIFFERENTIAL_BUILDS = [
    # the diagonal_certificate cases
    *(pytest.param(rho, default_diagonal_targets(rho, n, p), id=f"bench-{rho}-{n}-{p}")
      for rho, n, p in [(Fraction(2), 7, 5), (Fraction(3), 7, 5), (Fraction(5, 2), 6, 7), (Fraction(2), 6, 7)]),
    # the targets of the diagonal-b, diagonal-p7 and diagonal-two-primes pins of tests/golden.py
    pytest.param(Fraction(3), default_diagonal_targets(Fraction(3), 3, 5, "B"), id="b"),
    pytest.param(Fraction(5, 2), [(Fraction(3, 2), LieType("A", 2), 7), (Fraction(2), LieType("C", 3), 7),
                                  (Fraction(9, 4), LieType("A", 5), 7)], id="p7"),
    pytest.param(Fraction(2), [(Fraction(2 * m - 1, m), LieType("A", m + 1), 7 if m % 2 == 0 else 5)
                               for m in range(1, 9)], id="two-primes"),
]


@pytest.mark.parametrize("rho, targets", DIFFERENTIAL_BUILDS)
def test_a_stage_run_applies_the_factors_the_walk_forms(monkeypatch, rho, targets):
    # at every cutoff a build asks of a stage stratum, the triples (M, e, a)
    # its run applies are the walk's factors past those applied, through
    # x_terms, and the stage series is truncated_zeta's to the bit
    real_stage, real_extend = constructor._Unions.stage, constructor._StageRun.extend
    strata, extended = [], []

    def stage(self, stratum, N):
        strata.append(stratum)
        return real_stage(self, stratum, N)

    def checked(self, factors, N, top):
        stratum = strata[-1]  # the stratum whose stage series this run forms
        want = _walked_factors(stratum, len(self.xs), N) if top > self.top else []
        assert [(M, [(e, a)]) for M, e, a in factors] == want  # before a wrong factor derails the build
        extended.append(self.xs and factors)
        series = real_extend(self, factors, N, top)
        _assert_fresh(stratum, N, series)
        return series

    monkeypatch.setattr(constructor._Unions, "stage", stage)
    monkeypatch.setattr(constructor._StageRun, "extend", checked)
    build_diagonal(rho, targets)
    assert any(extended)  # some run took factors past those it applied


def _watch_stages(mp) -> list:
    """A list that gains (stratum, N, series, factors its run applied) for
    each stage series a build asks of _Unions.stage from now on, the count
    None where the build keeps no run for the stratum."""
    seen, real = [], constructor._Unions.stage

    def watched(self, stratum, N):
        series = real(self, stratum, N)
        run = self.runs.get(stratum)
        seen.append((stratum, N, series, None if run is None else len(run.xs)))
        return series

    mp.setattr(constructor._Unions, "stage", watched)
    return seen


@pytest.mark.parametrize(
    "rho, stages, p, family",
    [
        (Fraction(2), 7, 5, "A"),
        (Fraction(3), 7, 5, "A"),
        (Fraction(5, 2), 6, 7, "A"),
        (Fraction(2), 6, 7, "A"),
        (Fraction(3), 3, 5, "B"),
    ],
)
def test_a_stage_run_gives_the_fresh_series_at_every_cutoff(monkeypatch, rho, stages, p, family):
    # every stage series of a build past A1 comes from its stratum's run,
    # extended cutoff by cutoff; each equals the series truncated_zeta
    # forms from nothing at that cutoff
    seen = _watch_stages(monkeypatch)
    build_diagonal(rho, default_diagonal_targets(rho, stages, p, family))
    for stratum, N, series, _ in seen:
        _assert_fresh(stratum, N, series)
    applied = {}
    for stratum, _, _, count in seen:
        applied.setdefault(stratum, []).append(count)
    assert None not in {c for counts in applied.values() for c in counts}
    # some run took a factor past the first cutoff it formed
    assert any(len({c for c in counts if c}) > 1 for counts in applied.values())


@pytest.mark.parametrize(
    "targets",
    [
        [(Fraction(3, 2), A1, 5), (Fraction(7, 4), LieType("A", 2), 5)],
        [(Fraction(3, 2), LieType("A", 2), 5), (Fraction(7, 4), LieType("A", 3), 7)],
    ],
    ids=["a1-first", "two-primes"],
)
def test_an_a1_stage_keeps_no_run(monkeypatch, targets):
    # each stage past A1 keeps its run, graded by its own prime, whatever
    # the other stages; an A1 stage comes from truncated_zeta
    seen = _watch_stages(monkeypatch)
    build_diagonal(Fraction(2), targets)
    for stratum, N, series, count in seen:
        _assert_fresh(stratum, N, series)
        assert (count is None) is (stratum.lie_type == A1)
    assert {s.lie_type for s, *_ in seen} == {t for _, t, _ in targets}


def test_a_stage_run_refuses_a_pair_set_other_than_the_canonical_one():
    # every stage stratum of a build has the canonical pair set, one pair,
    # so each x_f is one term at every cutoff; at 5^10 this stratum's first
    # x_f is one term too, but a larger cutoff would lengthen it, so its run
    # refuses it from the start
    a2 = LieType("A", 2)
    stratum = GeometricStratum(a2, 5, PolyExponent((0, 1)), False, PairSet({(1, 2), (2, 3)}), 3)
    with pytest.raises(PreconditionError, match="canonical pair set"):
        constructor._Unions(0).stage(stratum, 5 ** 10 + 7)


def test_a_one_term_run_forms_only_what_a_larger_cutoff_adds(monkeypatch):
    # on the same grid, a larger top forms the multiplicity of only the
    # indices past those applied and only the exponents past the old top:
    # c_j and F_n below it stay the same objects
    stratum = build_fixed_type(Fraction(2), LieType("A", 2), 5).strata[0]
    unions = constructor._Unions(0)
    unions.stage(stratum, 5 ** 30)
    run = unions.runs[stratum]
    F, xs = list(run.F), list(run.xs)
    formed = []
    real = GeometricStratum.multiplicity
    monkeypatch.setattr(GeometricStratum, "multiplicity", lambda self, j: formed.append(j) or real(self, j))
    series = unions.stage(stratum, 5 ** 60)
    first = stratum.skip + len(xs) + 1  # the first index past those applied
    assert formed == list(range(first, first + len(run.xs) - len(xs))) and len(run.xs) > len(xs)
    assert run.xs[: len(xs)] == xs
    assert unions.runs[stratum] is run and run.top == 60
    _assert_fresh(stratum, 5 ** 60, series)
    assert all(a is b for a, b in zip(run.F, F)) and len(run.F) > len(F)


def test_a_cutoff_below_the_top_reached_is_a_prefix():
    # below the top a run reached, its series is a prefix with nothing
    # formed, down to one factor; below every factor, truncated_zeta's
    # plain unit series
    stratum = _a2_tower()
    unions = constructor._Unions(0)
    unions.stage(stratum, 5 ** 40)
    run = unions.runs[stratum]
    state = (run.top, run.g, list(run.F), list(run.c), len(run.xs))
    for N in (5 ** 40 - 1, 5 ** 25, 5 ** 15 + 3, 5 ** 9, 5 ** 3, 5 ** 3 - 1, 7, 1):
        _assert_fresh(stratum, N, unions.stage(stratum, N))
    assert (run.top, run.g, list(run.F), list(run.c), len(run.xs)) == state
    assert unions.stage(stratum, 5 ** 3).grading == 5 and unions.stage(stratum, 5 ** 3 - 1).grading is None


def test_a_remainder_in_an_extended_run_is_an_invariant_failure(monkeypatch):
    # the factors an extension adds pass the same exact division: a
    # multiplicity read as 1/3 is exit 5, as it is from empty
    stratum = build_fixed_type(Fraction(2), LieType("A", 2), 5).strata[0]
    unions = constructor._Unions(0)
    unions.stage(stratum, 5 ** 30)
    assert len(unions.runs[stratum].xs) >= 2
    monkeypatch.setattr(constructor, "mult_to_int", lambda M: Fraction(1, 3))
    with pytest.raises(InvariantError, match="remainder") as info:
        unions.stage(stratum, 5 ** 60)
    assert info.value.exit_code == 5


@st.composite
def canonical_runs(draw):
    """(stratum, cutoffs): a tower past A1 over q = p^k with the canonical
    pair set, and increasing cutoffs: one below its first factor, one with
    that factor alone, one with two, then up to four more, up to its
    MOST_FACTORS-th."""
    p = draw(st.sampled_from(PRIMES))
    t = draw(st.sampled_from(TYPES))
    q = p ** draw(st.integers(1, 3))
    rule = draw(st.one_of(st.just((0,)), st.tuples(st.integers(0, 3), st.integers(0, 2))))
    skip = 1 if tits_excluded(t, q) else draw(st.integers(0, 2))
    stratum = GeometricStratum(t, q, PolyExponent(rule), draw(st.booleans()), None, skip)
    dims = [1] + [stratum.min_dim_at(skip + i) for i in (1, 2, 3, MOST_FACTORS)]
    cutoffs = [draw(st.integers(lo, hi - 1)) for lo, hi in zip(dims, dims[1:4])]
    exps = draw(st.lists(st.integers(floor_log(dims[3], p), floor_log(dims[4], p)), max_size=4, unique=True))
    return stratum, cutoffs + [draw(st.integers(p ** e, p ** (e + 1) - 1)) for e in sorted(exps)]


def _brute_stage(stratum, N):
    """_brute_product over every copy of every factor of stratum at or
    below N, or None past eight copies or a copy of over 1000 degrees."""
    copies = []
    for _, f in stratum.factors_below(N):
        (m, n), = canonical_pair_set(f.lie_type)
        M = dirichlet.mult_to_int(f.multiplicity)
        if len(copies) + M > 8 or f.q ** m >= 1000:
            return None
        copies += [_copy_degrees(f.q, [(m, n)])] * M
    return _brute_product(copies, N)


@settings(max_examples=150, deadline=None)
@given(canonical_runs())
def test_one_run_extended_along_its_cutoffs_is_truncated_zeta_at_each(case):
    # one run, from below its first factor, through one and two factors,
    # to larger cutoffs: at each, the bytes truncated_zeta forms from
    # nothing, and the brute product where it reaches
    stratum, cutoffs = case
    unions = constructor._Unions(0)
    for N in cutoffs:
        got = unions.stage(stratum, N)
        assert got.to_json() == truncated_zeta(GroupSpec((stratum,)), N, backend=EXACT).to_json()
        brute = _brute_stage(stratum, N)
        assert brute is None or dict(got.items()) == brute
    assert len(unions.runs) == 1
