import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth.dirichlet import (
    EXACT,
    LOG,
    BackendMismatch,
    BigPower,
    DirichletSeries,
    RangeOverflow,
    convolve,
    cumulative,
    evaluate,
    power_one_plus,
)
from repgrowth.errors import PreconditionError

# SL2(5) degree multiset {1,5,3,3,2,2,6,4,4} as a series
SL2_5 = DirichletSeries(120, {1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1})
A5 = DirichletSeries(120, {1: 1, 3: 2, 4: 1, 5: 1})


def brute_convolve(s1, s2, N):
    """Oracle: enumerate all degree pairs, keep products <= N."""
    out = {}
    for d1, m1 in s1.items():
        for d2, m2 in s2.items():
            if d1 * d2 <= N:
                out[d1 * d2] = out.get(d1 * d2, 0) + m1 * m2
    return out


def test_evaluate_trivial():
    one = DirichletSeries(10, {1: 1})
    assert evaluate(one, 2.0) == 1.0


def test_evaluate_sl2_5_hand_sum():
    # 1 + 1/5 + 2/3 + 1 + 1/6 + 1/2 = 53/15
    assert evaluate(SL2_5, 1.0) == pytest.approx(53 / 15, rel=1e-12)


def test_evaluate_at_zero_is_the_class_number():
    assert evaluate(SL2_5, 0.0) == 9.0
    assert cumulative(SL2_5, SL2_5.cutoff) == 9
    with pytest.raises(PreconditionError):
        evaluate(SL2_5, -0.5)


def test_evaluate_log_backend_matches():
    for sigma in (0.5, 1.0, 2.0):
        assert evaluate(SL2_5.to_log(), sigma) == pytest.approx(
            evaluate(SL2_5, sigma), rel=1e-12
        )


def test_evaluate_overflow_is_a_range_error():
    big = DirichletSeries(10, {2: 10 ** 400})
    with pytest.raises(RangeOverflow):
        evaluate(big, 0.001)
    with pytest.raises(RangeOverflow):
        evaluate(big.to_log(), 0.001)
    # where the value fits in a double, the two backends agree
    assert evaluate(big.to_log(), 450.0) == pytest.approx(evaluate(big, 450.0), rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(0, 52), st.integers(1, 2 ** 40), min_size=1, max_size=30),
    st.integers(0, 3),
)
def test_evaluate_is_fsum_of_the_exact_terms(entries, sigma):
    # dims 2^k < 2^53 and integer sigma: every term m * d^-sigma is a double, so the
    # result must be the correctly rounded exact sum
    s = DirichletSeries(2 ** 60, {2 ** k: m for k, m in entries.items()})
    terms = [Fraction(m, d ** sigma) for d, m in s.items()]
    assert evaluate(s, sigma) == math.fsum(map(float, terms)) == float(sum(terms))


def test_evaluate_sum_past_double_range_is_a_range_error():
    # each term is 2^1020 < DBL_MAX, their sum is 2^1025 > DBL_MAX
    s = DirichletSeries(100, {d: 2 ** 1020 for d in range(1, 33)})
    for series in (s, s.to_log()):
        with pytest.raises(RangeOverflow, match="sum exceeds double range"):
            evaluate(series, 0.0)


def test_convolve_identity():
    one = DirichletSeries(120, {1: 1})
    assert convolve(SL2_5, one, 120) == SL2_5
    assert convolve(SL2_5, one, 25) == DirichletSeries(25, SL2_5.items())


def test_convolve_a5_squared_r25():
    s = convolve(A5, A5, 25)
    # all 5x5 = 25 degree pairs from {1,3,3,4,5}^2 have product <= 25
    assert cumulative(s, 25) == 25
    assert dict(s.items()) == brute_convolve(A5, A5, 25)


def test_convolve_sl25_a5_at_10():
    s = convolve(SL2_5, A5, 10)
    assert dict(s.items()) == brute_convolve(SL2_5, A5, 10)


def test_convolve_backend_mismatch():
    with pytest.raises(BackendMismatch):
        convolve(SL2_5, A5.to_log(), 10)


def test_power_one_plus_first_power_is_base():
    assert power_one_plus(A5, 1, 120) == A5


def test_power_one_plus_binomial():
    base = DirichletSeries(8, {1: 1, 2: 1})
    assert dict(power_one_plus(base, 3, 8).items()) == {1: 1, 2: 3, 4: 3, 8: 1}


def test_power_one_plus_requires_constant_term():
    with pytest.raises(PreconditionError):
        power_one_plus(DirichletSeries(8, {2: 1}), 3, 8)
    with pytest.raises(PreconditionError):
        power_one_plus(DirichletSeries(8, {1: 2, 2: 1}), 3, 8)
    with pytest.raises(PreconditionError):
        power_one_plus(DirichletSeries(8, {1: 1}), 0, 8)


def test_power_one_plus_bigpower_log_domain():
    base = DirichletSeries(4, {1: 1, 2: 1})
    M = BigPower(5, 10)
    s = power_one_plus(base.to_log(), M, 4)
    assert s.mult_at(2) == pytest.approx(10 * math.log(5), rel=1e-12)
    exact = power_one_plus(base, 5 ** 10, 4)
    assert s.mult_at(4) == pytest.approx(math.log(exact.mult_at(4)), rel=1e-12)


def test_power_one_plus_huge_exponent_stays_in_log_domain():
    base = DirichletSeries(4, {1: 1, 2: 1}).to_log()
    M = BigPower(5, 10 ** 12)  # unmaterializable
    s = power_one_plus(base, M, 4)
    assert s.mult_at(2) == pytest.approx(1e12 * math.log(5))
    # log C(M, 2) ~ 2 log M - log 2
    assert s.mult_at(4) == pytest.approx(2e12 * math.log(5) - math.log(2), rel=1e-9)


def test_cumulative_examples_and_cutoff_guard():
    assert cumulative(DirichletSeries(5, {1: 1}), 1) == 1
    assert cumulative(A5, 5) == 5
    assert cumulative(A5, 3) == 3
    with pytest.raises(PreconditionError):
        cumulative(A5, 121)


def test_log_cumulative_both_backends():
    assert cumulative(A5, 5) == 5
    assert cumulative(A5.to_log(), 5) == pytest.approx(math.log(5), rel=1e-12)


def test_serialization_round_trip():
    for s in (SL2_5, A5.to_log()):
        obj = s.to_jsonable()
        read = int if obj["backend"] == EXACT else float
        entries = [(int(d), read(m)) for d, m in obj["entries"]]
        assert DirichletSeries(obj["cutoff"], entries, obj["backend"]) == s


def test_entries_sorted_and_truncated():
    s = DirichletSeries(10, {12: 5, 3: 1, 7: 2})
    assert s.dims == (3, 7)


def test_exact_rejects_nonpositive_multiplicity():
    with pytest.raises(PreconditionError):
        DirichletSeries(10, {2: 0})
    with pytest.raises(PreconditionError):
        DirichletSeries(10, {2: -1})


# -- property tests ---------------------------------------------------------

series_strategy = st.dictionaries(
    st.integers(1, 30), st.integers(1, 30), min_size=0, max_size=6
).map(lambda d: DirichletSeries(30, d))


@settings(max_examples=200, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_convolution_associative_commutative(a, b, c):
    assert convolve(a, b, 30) == convolve(b, a, 30)
    assert convolve(convolve(a, b, 30), c, 30) == convolve(a, convolve(b, c, 30), 30)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(2, 30), st.integers(1, 9), min_size=0, max_size=4),
    st.integers(1, 12),
    st.integers(1, 12),
)
def test_power_additivity(tail, m1, m2):
    base = DirichletSeries(30, {1: 1, **tail})
    lhs = power_one_plus(base, m1 + m2, 30)
    rhs = convolve(power_one_plus(base, m1, 30), power_one_plus(base, m2, 30), 30)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(2, 30), st.integers(1, 9), min_size=1, max_size=4),
    st.integers(2, 10 ** 6),
)
def test_exact_log_agreement(tail, M):
    base = DirichletSeries(30, {1: 1, **tail})
    exact = power_one_plus(base, M, 30)
    logd = power_one_plus(base.to_log(), M, 30)
    assert logd.dims == exact.dims
    for d, m in exact.items():
        assert math.exp(logd.mult_at(d)) == pytest.approx(m, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(series_strategy, st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_evaluate_monotone_decreasing(s, s1, s2):
    if not s:
        return
    lo, hi = sorted((s1, s2))
    assert evaluate(s, lo) >= evaluate(s, hi) - 1e-12


@settings(max_examples=50, deadline=None)
@given(series_strategy)
def test_evaluate_limit_is_unit_multiplicity(s):
    # as sigma -> inf the value tends to the multiplicity at dimension 1
    target = s.mult_at(1, 0)
    assert evaluate(s, 80.0) == pytest.approx(target, abs=1e-12) or (
        target == 0 and evaluate(s, 80.0) < 1e-12
    )


TO_JSON_CASES = {
    "N=1": DirichletSeries(1, {1: 1}),
    "N=1-log": DirichletSeries(1, {1: 0.0}, LOG),
    "empty": DirichletSeries(7, {}),
    "sl2_5": SL2_5,
    "sl2_5-log": SL2_5.to_log(),
    "big": DirichletSeries(10 ** 30, {10 ** 29: 3 ** 200, 1: 1}),
    "floats": DirichletSeries(9, {2: 1e-300, 3: -0.0, 5: 123456.789, 9: 2.0 ** 60}, LOG),
}


@pytest.mark.parametrize("name", sorted(TO_JSON_CASES))
def test_to_json_is_json_dumps_byte_for_byte(name):
    s = TO_JSON_CASES[name]
    assert s.to_json() == json.dumps(s.to_jsonable(), indent=2, sort_keys=True)


# sha256 of to_json() on the log backend, pinned when the three multiply-add
# loops became one kernel: evaluation order must not drift, not even by an ulp
POWER_BASE = DirichletSeries(64, {1: 1, 2: 3, 3: 1, 5: 7, 8: 2, 13: 5, 20: 1, 64: 9})
LOG_POWER_DIGESTS = {
    2: "18c7017aa855e289f18ea31bbb603b03b598a4b39db0f6ec52971d779403b1a3",
    7: "eae7de9420677301fee8aaa44a2cf6b16d41d0c324b9a508db00765c247fad35",
    10 ** 6: "33c76573e17f34537a7b42a35ecf60e4a0cc93ba2b8c0145feee3f1cf8f340f5",
    BigPower(5, 1000): "b06481bce4e17f5759957749361e1f82cbee0454d8d6a64b2f7e832fa19e9e94",
}


def _digest(s):
    return hashlib.sha256(s.to_json().encode()).hexdigest()


@pytest.mark.parametrize("M", list(LOG_POWER_DIGESTS), ids=str)
def test_log_power_is_pinned_bit_for_bit(M):
    assert _digest(power_one_plus(POWER_BASE.to_log(), M, 64)) == LOG_POWER_DIGESTS[M]


def test_log_convolve_is_pinned_bit_for_bit():
    a = DirichletSeries(500, {d: d * d + 1 for d in range(1, 500, 3)})
    b = DirichletSeries(500, {1: 1, **{d: 7 * d + 2 for d in range(2, 500, 5)}})
    got = convolve(a.to_log(), b.to_log(), 500)
    assert _digest(got) == "e695aff9d00eecedc5d2b48229b68ea14b6faa59ed8116580d8a9eb938c14e67"
