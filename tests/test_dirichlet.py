import hashlib
import json
import math
import re
import struct
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgrowth import dirichlet
from repgrowth.dirichlet import (
    EXACT,
    LOG,
    BackendMismatch,
    BigPower,
    DirichletSeries,
    RangeOverflow,
    _Columns,
    _log_binomial,
    _logaddexp,
    _mul_into,
    _power_terms,
    convolve,
    cumulative,
    evaluate,
    mult_to_int,
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


def _csv_join(s):
    """to_csv as one f-string join, as it was written before it streamed."""
    return "dimension,multiplicity\n" + "".join(f"{d},{m}\n" for d, m in s.items())


def _json_join(s):
    """to_json as one f-string join, as it was written before it streamed."""
    q = '"' if s.backend == EXACT else ""
    rows = [f'    [\n      "{d}",\n      {q}{m!r}{q}\n    ]' for d, m in s.items()]
    entries = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return f'{{\n  "backend": "{s.backend}",\n  "cutoff": {s.cutoff},\n  "entries": {entries}\n}}'


CHUNKED_CASES = {
    "exact": DirichletSeries(10 ** 30, {1: 1, 2: 2, 3: 2, 7: 10 ** 40, 10 ** 29: 3 ** 200}),
    "log": DirichletSeries(9, {1: 0.0, 2: 1e-300, 3: -0.0, 5: 123456.789, 9: 2.0 ** 60}, LOG),
    "graded": DirichletSeries(5 ** 20, {0: 1, 1: 4, 2: 5 ** 30, 3: 7, 20: 2}, EXACT, 5),
    "one-entry": DirichletSeries(1, {1: 1}),
    "empty": DirichletSeries(7, {}),
}


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CHUNKED_CASES))
def test_chunked_tables_are_the_row_join(monkeypatch, name, rows):
    monkeypatch.setattr(dirichlet, "ROWS_PER_CHUNK", rows)
    s = CHUNKED_CASES[name]
    assert s.to_csv() == _csv_join(s)
    assert s.to_json() == _json_join(s) == json.dumps(s.to_jsonable(), indent=2, sort_keys=True)
    # the header, then one chunk per block of at most `rows` rows
    header, *chunks = s.csv_chunks()
    assert header == "dimension,multiplicity\n"
    assert [c.count("\n") for c in chunks] == [min(rows, len(s) - i) for i in range(0, len(s), rows)]


def test_an_empty_series_prints_an_empty_entry_list():
    assert '\n  "entries": []\n}' in CHUNKED_CASES["empty"].to_json()
    assert CHUNKED_CASES["empty"].to_csv() == "dimension,multiplicity\n"


@pytest.mark.parametrize("rows", [1, 2, 3, 4096])
def test_row_chunks_interleave_the_columns_in_one_format_per_block(monkeypatch, rows):
    monkeypatch.setattr(dirichlet, "ROWS_PER_CHUNK", rows)
    columns = (tuple(range(7)), tuple("abcdefg"), tuple(x / 4 for x in range(7)))
    blocks = list(dirichlet.column_blocks(*columns))
    assert [len(b[0]) for b in blocks] == [min(rows, 7 - i) for i in range(0, 7, rows)]
    chunks = list(dirichlet.row_chunks("%d:%s:%r", blocks + [[(), (), ()]], "|"))
    assert len(chunks) == len(blocks)  # an empty block forms no chunk
    assert "".join(chunks) == "|".join(f"{i}:{c}:{x!r}" for i, c, x in zip(*columns))
    assert list(dirichlet.json_list("%d", [[()]])) == ["[]"]


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


def convolve_power_terms(x, M, N, backend):
    """Reference for _power_terms: every power x^k from k = 2 on formed as
    one convolve of DirichletSeries, whatever the length of x."""
    exact = backend == EXACT
    Mi = mult_to_int(M) if exact else None
    d0 = x[0][0]
    out, terms, xs, xk, k = {}, x, None, None, 1
    while True:
        c = math.comb(Mi, k) if exact else _log_binomial(M, k)
        if c == (0 if exact else float("-inf")):
            break
        _mul_into(out, {1: c}, (1,), terms, N, exact)
        k += 1
        if (isinstance(M, int) and k > M) or d0 ** k > N:
            break
        if xs is None:
            xs = xk = DirichletSeries(N, x, backend)
        xk = convolve(xk, xs, N)
        terms = xk.items()
    return sorted(out.items())


def count_series_inits(monkeypatch):
    """A list that gains one entry per DirichletSeries built from now on,
    graded or not."""
    calls = []
    init = DirichletSeries.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DirichletSeries, "__init__", counting_init)
    return calls


ONE_TERM_POWERS = [1, 2, 7, 2 ** 70, BigPower(3, 500), BigPower(3, 1000)]


@pytest.mark.parametrize("backend", [EXACT, LOG])
@pytest.mark.parametrize("M", ONE_TERM_POWERS, ids=str)
def test_one_term_powers_match_the_convolve_loop_bit_for_bit(M, backend, monkeypatch):
    # BigPower(3, 500) has 792 bits, BigPower(3, 1000) 1585: both sides of
    # _log_binomial's 900-bit switch
    cases = []
    for d, m in ((2, 3), (25, 5), (5 ** 6, 5 ** 4)):
        x = [(d, m if backend == EXACT else math.log(m))]
        cases += [(x, N) for k in (1, 2, 3, 8) for N in {d ** k, max(d, d ** k - 1)}]
    wants = [convolve_power_terms(x, M, N, backend) for x, N in cases]
    calls = count_series_inits(monkeypatch)
    for (x, N), want in zip(cases, wants):
        got = _power_terms(x, M, N, backend)
        assert got == want, (x, N)
        assert [type(v) for _, v in got] == [type(v) for _, v in want]
    assert calls == []


def _bits(v):
    return struct.pack("<d", v)


LOG_ADD_GRID = [
    -1e300, -745.5, -700.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 5e-324, 1e-16,
    0.5, 1.0, math.log(3.0), 2.0, 37.0, 700.0, 709.5, 1e300,
]


@pytest.mark.parametrize("graded, stop", [(False, 6), (True, 5)], ids=["dims", "exponents"])
def test_inlined_log_add_is_logaddexp_bit_for_bit(graded, stop):
    # _mul_into adds in the log domain without calling _logaddexp; on a grid
    # of equal operands, large gaps and negatives, in both argument orders,
    # the sum it stores at 2 * 3 (or, graded, at 2 + 3) must be _logaddexp's
    # to the last bit
    for prev, m1, m2 in product(LOG_ADD_GRID, LOG_ADD_GRID, (0.0, -3.25, 1.5)):
        acc = {stop: prev}
        fresh = _mul_into(acc, {2: m1}, (2,), [(3, m2)], stop, False, 0, graded)
        assert fresh == [] and list(acc) == [stop]
        assert _bits(acc[stop]) == _bits(_logaddexp(prev, m1 + m2)), (prev, m1, m2)


LOG_BINOMIAL_ONE = [
    1, 2, 3, 7, 10 ** 6, 2 ** 53 + 1, 2 ** 70, 10 ** 100,
    BigPower(2, 1), BigPower(3, 500), BigPower(5, 387), BigPower(2, 900),
]


@pytest.mark.parametrize("M", LOG_BINOMIAL_ONE, ids=str)
def test_log_binomial_of_one_is_the_fsum_form_bit_for_bit(M):
    # _log_binomial(M, 1) returns math.log(M), which must equal the general
    # form fsum([log(M) - log(1.0)]) for ints and for BigPowers of <= 900
    # bits, the ones it materializes
    Mi = mult_to_int(M)
    assert isinstance(M, int) or M.bits() <= 900
    want = math.fsum(math.log(Mi - i) - math.log(i + 1.0) for i in range(1))
    assert _bits(_log_binomial(M, 1)) == _bits(want)


# errors.int_name's names of the two exponents: 24 leading digits and the bit length
EXPONENT_NAMES = {
    10 ** 400: "1000000000000000000000000... (1329 bits)",
    17 * 10 ** 307: "1700000000000000000000000... (1024 bits)",
}


@pytest.mark.parametrize("exponent", [10 ** 400, 17 * 10 ** 307])
def test_bigpower_past_double_range_is_a_range_error(exponent):
    # the log of 3**(17 * 10**307) is about 1.87e308, past the largest
    # double; 10**400 cannot even be made a float
    M = BigPower(3, exponent)
    for method in (M.log, M.bits, M.to_int):
        name = re.escape(EXPONENT_NAMES[exponent])
        with pytest.raises(RangeOverflow, match=rf"^3\*\*{name} is too large"):
            method()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str() digit limit")
def test_bigpower_names_an_operand_too_long_to_print_by_its_bits():
    M = BigPower(3, 10 ** 5000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        name = r"3\*\*1000000000000000000000000\.\.\. \(16610 bits\)"  # errors.int_name
        with pytest.raises(RangeOverflow, match=rf"^{name} is too large"):
            M.log()
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_series_from_a_dict_keeps_the_merging_checks_and_values():
    # a dict's keys are distinct, so __init__ keeps its values without a
    # merged copy; each check still runs in order, and a bool still becomes
    # the int that merging makes of it
    s = DirichletSeries(10, {7: 2, 1: 1, 30: -5, 3: 4})
    assert s.dims == (1, 3, 7) and s.mults == (1, 4, 2)
    assert DirichletSeries(10, {2: True}).mults == (1,)
    assert type(DirichletSeries(10, {2: True}).mults[0]) is int
    with pytest.raises(PreconditionError, match="dimension 0"):
        DirichletSeries(10, {30: -5, 0: 1, 2: -1})
    with pytest.raises(PreconditionError, match="at dim 2 must be a positive"):
        DirichletSeries(10, {2: -1, 0: 1})
    with pytest.raises(PreconditionError, match="at dim 5 must be a positive"):
        DirichletSeries(10, {2: 1, 5: 2.0})


DICT_CASES = [
    (EXACT, {7: 2, 1: 1, 3: 4}),
    (EXACT, {0: 1, 2: 3}),
    (EXACT, {2: 3, -1: 1}),
    (EXACT, {2: 1, 30: 5}),
    (EXACT, {2: 0}),
    (EXACT, {3: 1, 2: -1}),
    (EXACT, {2: True, 3: 1}),
    (EXACT, {2: 1.5}),
    (LOG, {7: 0.5, 1: 0.0, 3: -2.25}),
    (LOG, {0: 0.0, 2: 1.0}),
    (LOG, {2: 1.0, -1: 0.0}),
    (LOG, {2: 0.5, 30: 1.0}),
    (LOG, {2: 0.5, 3: math.nan}),
    (LOG, {2: math.inf}),
    (LOG, {2: -math.inf, 30: math.nan}),
    (LOG, {2: 3, 3: 0.5}),
    (LOG, {2: True}),
]


@pytest.mark.parametrize("backend, entries", DICT_CASES, ids=repr)
def test_a_dict_builds_the_series_its_items_build(backend, entries):
    # a dict is kept as it is where its checks pass and merged otherwise:
    # either way, the series and the error are those of its (dim, mult) pairs;
    # so are _Columns', for dims sorted, distinct and in [1, cutoff] as the
    # dense exact product forms them
    def build(e):
        try:
            s = DirichletSeries(10, e, backend)
        except PreconditionError as err:
            return str(err)
        return s, [type(m) for m in s.mults]

    assert build(entries) == build(list(entries.items()))
    dims = sorted(entries)
    if 1 <= dims[0] and dims[-1] <= 10:
        columns = _Columns(tuple(dims), tuple(map(entries.__getitem__, dims)))
        assert build(columns) == build(list(entries.items()))
