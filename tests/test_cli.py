import ast
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from repgrowth import cli, constructor, dirichlet, errors, finite_groups, growth, invariants
from repgrowth.cli import main
from repgrowth.dirichlet import cumulative
from repgrowth.growth import GroupSpec, exact_abscissa, sl2_over_primes_spec, truncated_zeta
from repgrowth.lie_data import LieType


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_zeta_psl2_7_csv(capsys):
    code, out = run(capsys, "zeta", "--group", "PSL2", "--q", "7", "--N", "8", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows == ["dimension,multiplicity", "1,1", "3,2", "6,1", "7,1", "8,1"]


def test_zeta_requires_q_with_group(capsys):
    code, _ = run(capsys, "zeta", "--group", "PSL2", "--N", "8")
    assert code == 3


def test_zeta_group_q_zero_reaches_the_field_size_check(capsys):
    code = main(["zeta", "--group", "SL2", "--q", "0", "--N", "10"])
    assert code == 3
    assert "q = 0 is not a prime power" in capsys.readouterr().err


def test_abscissa_example_sl2_primes(capsys):
    code, out = run(capsys, "abscissa", "--example", "sl2-primes", "--d", "3")
    assert code == 0
    assert json.loads(out)["abscissa"] == "5"


def test_construct_fixed_round_trip(capsys):
    code, out = run(
        capsys, "construct", "fixed", "--rho", "3/2", "--family", "A", "--rank", "2", "--p", "5"
    )
    assert code == 0
    spec = GroupSpec.from_jsonable(json.loads(out))
    assert exact_abscissa(spec).abscissa == Fraction(3, 2)


def test_construct_diagonal(capsys):
    code, out = run(
        capsys, "construct", "diagonal", "--rho", "2", "--stages", "3", "--p", "5"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["complete"]
    spec = GroupSpec.from_jsonable(obj["spec"])
    assert exact_abscissa(spec).abscissa == Fraction(2)


def test_construct_diagonal_budget_exit_code(capsys):
    code, _ = run(capsys, "construct", "diagonal", "--rho", "2", "--stages", "4", "--p", "5", "--budget", "30")
    assert code == 4


def test_memory_run_out_in_a_union_kernel_is_a_budget_exit(capsys, monkeypatch):
    # an A1-first build over two primes can exhaust a memory cap in its
    # dimension-keyed unions before its entry budget stops it
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(dirichlet, "_mul_into", exhausted)
    code = main(["construct", "diagonal", "--rho", "2", "--stages", "3", "--p", "5"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "error: out of memory in construct\n"
    assert "Traceback" not in captured.err


def test_prg_verdict_from_inline_spec(capsys):
    spec_json = json.dumps(
        {"strata": [{"index": "primes", "p_min": 5, "rate_exponent": 3, "flag": "cover"}]}
    )
    code, out = run(capsys, "prg", "--spec", spec_json)
    assert code == 0
    got = json.loads(out)
    assert got["prg"] is True


def test_zeta_spec_file(tmp_path, capsys):
    spec = {
        "strata": [
            {
                "index": "finite",
                "factors": [{"lie_type": {"family": "A", "rank": 1}, "q": 5, "flag": "simple"}],
            }
        ]
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "zeta", "--spec", str(path), "--N", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [["1", "1"], ["3", "2"], ["4", "1"], ["5", "1"]]


def test_parse_error_exit_codes(capsys):
    code, _ = run(capsys, "zeta", "--spec", "{not json", "--N", "5")
    assert code == 2
    # Tits exclusion: precondition violation, exit 3
    bad = json.dumps(
        {
            "strata": [
                {
                    "index": "finite",
                    "factors": [{"lie_type": {"family": "A", "rank": 1}, "q": 2}],
                }
            ]
        }
    )
    code, _ = run(capsys, "zeta", "--spec", bad, "--N", "5")
    assert code == 3


def test_pair_set_rejection(capsys):
    bad = json.dumps(
        {
            "strata": [
                {
                    "index": "finite",
                    "factors": [
                        {"lie_type": {"family": "A", "rank": 1}, "q": 5, "pairs": [[2, 1]]}
                    ],
                }
            ]
        }
    )
    code, _ = run(capsys, "zeta", "--spec", bad, "--N", "5")
    assert code == 3


A1_STRATA = {
    "geometric": {
        "index": "geometric",
        "q": 5,
        "lie_type": {"family": "A", "rank": 1},
        "schedule": {"kind": "poly", "coeffs": [0, 1]},
    },
    "primes": {"index": "primes", "p_min": 5, "rate_exponent": 3},
    "finite": {"index": "finite", "factors": [{"lie_type": {"family": "A", "rank": 1}, "q": 5}]},
}


@pytest.mark.parametrize("kind", sorted(A1_STRATA))
@pytest.mark.parametrize("pairs", [[[0, 1]], [[7, 1]], [[0, 1], [1, 1]]])
def test_a1_pair_set_other_than_1_1_exits_3(capsys, kind, pairs):
    # A1 series come from the character degrees, so the pair set that
    # abscissa reads must be the one they agree with
    def spec(pairs):
        stratum = copy.deepcopy(A1_STRATA[kind])
        target = stratum["factors"][0] if kind == "finite" else stratum
        target["pairs"] = pairs
        return json.dumps({"strata": [stratum]})

    for command in (["zeta", "--N", "10"], ["abscissa"]):
        assert run(capsys, *command, "--spec", spec(pairs))[0] == 3
        assert run(capsys, *command, "--spec", spec([[1, 1]]))[0] == 0


def test_gens_json(capsys):
    code, out = run(capsys, "gens", "--group", "A5", "--d", "2", "--min-gens", "60")
    assert code == 0
    obj = json.loads(out)
    assert obj["phi"]["2"] == 2280
    assert obj["aut"] == 120
    assert obj["min_generators"] == {"k": "60", "d": 3}


def test_gens_counts_past_the_old_tuple_budget(capsys):
    # 168^4 > 10^8 and d(A5^6450000) = 5 were refused by an enumeration budget
    code, out = run(capsys, "gens", "--group", "PSL2_7", "--d", "4")
    assert code == 0 and json.loads(out)["phi"] == {"4": 790518960}
    code, out = run(capsys, "gens", "--group", "A5", "--min-gens", "6450000")
    assert code == 0 and json.loads(out)["min_generators"] == {"k": "6450000", "d": 5}


@pytest.mark.parametrize("group, d", [("A5", 2418), ("SL2_5", 2068), ("PSL2_7", 1932)])
def test_gens_refuses_a_d_whose_count_cannot_be_printed(capsys, monkeypatch, group, d):
    # the largest d with |G|^d < 10^4300 prints; the next one exits 3
    code, out = run(capsys, "gens", "--group", group, "--d", str(d))
    assert code == 0 and len(str(json.loads(out)["phi"][str(d)])) <= 4300
    monkeypatch.setattr(finite_groups, "generating_tuple_count", _no_work)
    for too_large in (d + 1, 10 ** 9):
        code, err = _spec_error(capsys, "gens", "--group", group, "--d", "2", "--d", str(too_large))
        assert code == 3
        assert err == (
            f"error: --d {too_large}: |{group}|^{too_large} has more than 4300 digits,"
            " too many to print\n"
        )


def test_abscissa_defaults_are_d_3_and_n_10_6(capsys):
    assert run(capsys, "abscissa", "--example", "sl2-primes") == run(
        capsys, "abscissa", "--example", "sl2-primes", "--d", "3"
    )
    base = ("abscissa", "--spec", json.dumps(_finite(q=7)), "--empirical")
    default = run(capsys, *base)
    assert default[0] == 0 and run(capsys, *base, "--N", str(10 ** 6)) == default


def test_unknown_subcommand_is_parse_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_rho_is_parse_error(capsys):
    assert main(["construct", "fixed", "--p", "5"]) == 2


def test_bad_rho_string_is_parse_error(capsys):
    assert main(["construct", "fixed", "--rho", "pi", "--p", "5"]) == 2


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "zeta", "--group", "SL2", "--q", "9", "--N", "10")
    _, out2 = run(capsys, "zeta", "--group", "SL2", "--q", "9", "--N", "10")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, _ = run(capsys, "zeta", "--group", "PSL2", "--q", "5", "--N", "5", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["entries"][0] == ["1", "1"]


def test_check_suite_passes(capsys):
    code, out = run(capsys, "check")
    assert code == 0
    assert "all invariant checks passed" in out
    assert "FAIL" not in out
    lines = out.splitlines()
    assert "PASS  zeta(SL2(q)) - 1 ~_2 q^(1-s) for prime powers 17 <= q <= 81" in lines
    name = "m_{n^2}(G/Z) >= m_n(G), abscissa and PRG verdict the same in both views"
    assert f"PASS  {name}" in lines
    name = "truncated_zeta at N = its entries <= N at N' >= N, N' <= 2000 and 2^200 (4 cases)"
    assert f"PASS  {name}" in lines


def test_check_reports_a_failing_invariant_with_exit_5(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "suite", lambda: [("a", True), ("broken", False)])
    code, out = run(capsys, "check")
    assert code == 5
    assert out.splitlines() == ["PASS  a", "FAIL  broken", "1 invariant check(s) failed"]


def test_abscissa_csv_summary(capsys):
    code, out = run(capsys, "abscissa", "--example", "sl2-primes", "--d", "4", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "abscissa,,8"


def test_abscissa_empirical_csv(capsys):
    spec_json = json.dumps(
        {
            "strata": [
                {
                    "index": "finite",
                    "factors": [{"lie_type": {"family": "A", "rank": 1}, "q": 5}],
                }
            ]
        }
    )
    code, out = run(
        capsys, "abscissa", "--spec", spec_json, "--empirical", "--N", "100", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "n,R_n_log10,slope"


A1_JSON = {"family": "A", "rank": 1}
SCHEDULE = {"kind": "schedule", "rho": "2", "rho0": "1/2", "m0": 1, "n0": 1, "j0": 1}
GEOM_STAGE = {
    "index": "geometric",
    "q": 5,
    "lie_type": A1_JSON,
    "schedule": {"kind": "poly", "coeffs": [0, 1]},
}


def _finite(**factor):
    return {"strata": [{"index": "finite", "factors": [{"lie_type": A1_JSON, "q": 5, **factor}]}]}


def _diagonal(**stage):
    return {"strata": [{"index": "diagonal", "rho": "2", "stages": [stage]}]}


@pytest.mark.parametrize(
    "spec,pointer",
    [
        ({"strata": [1]}, "/strata/0"),
        ({"strata": {"a": 1}}, ""),
        (_finite(q="abc"), "/strata/0/factors/0/q"),
        (_finite(multiplicity="x"), "/strata/0/factors/0/multiplicity"),
        (_finite(multiplicity={"base": 2}), "/strata/0/factors/0/multiplicity"),
        (_finite(lie_type={"family": "A", "rank": "x"}), "/strata/0/factors/0/lie_type/rank"),
        ({"strata": [{"index": "finite", "factors": [7]}]}, "/strata/0"),
        ({"strata": [{**GEOM_STAGE, "q": "x"}]}, "/strata/0/q"),
        ({"strata": [{**GEOM_STAGE, "schedule": {"kind": "poly"}}]}, "/strata/0"),
        ({"strata": [{"index": "primes", "p_min": "a"}]}, "/strata/0/p_min"),
        (_diagonal(rho_m="1", n_m="7"), "/strata/0"),
        (_diagonal(rho_m="1", n_m="x", stratum=GEOM_STAGE), "/strata/0/stages/0/n_m"),
        (
            {"strata": [{**GEOM_STAGE, "schedule": {**SCHEDULE, "rho": "1/0"}}]},
            "/strata/0/schedule/rho",
        ),
        ({"strata": [{"index": "primes", "p_min": float("inf")}]}, "/strata/0/p_min"),
        ({"strata": [{"index": "primes", "flag": "smple"}]}, "/strata/0/flag"),
        ({"strata": [{**GEOM_STAGE, "flag": "smple"}]}, "/strata/0/flag"),
        (
            _diagonal(rho_m="1", n_m="7", stratum={**GEOM_STAGE, "flag": 1}),
            "/strata/0/stages/0/stratum/flag",
        ),
        ({"strata": [{"index": "primes", "rate_exponent": "x"}]}, "/strata/0/rate_exponent"),
        (_finite(q=7.9), "/strata/0/factors/0/q"),
        (_finite(q=True), "/strata/0/factors/0/q"),
        (_finite(multiplicity=True), "/strata/0/factors/0/multiplicity"),
        (_finite(pairs=[[1.9, 3]]), "/strata/0/factors/0/pairs/0/0"),
        (_finite(pairs=[[1, 1, 1]]), "/strata/0/factors/0/pairs"),
        (_finite(lie_type={"family": "A", "rank": 1.0}), "/strata/0/factors/0/lie_type/rank"),
        (_finite(lie_type=["A", 1]), "/strata/0/factors/0/lie_type"),
        ({"strata": [{**GEOM_STAGE, "schedule": {"kind": "poly", "coeffs": [0, 1.5]}}]},
         "/strata/0/schedule/coeffs/1"),
        ({"strata": [{**GEOM_STAGE, "schedule": {"kind": "poly", "coeffs": "01"}}]},
         "/strata/0/schedule/coeffs"),
        ({"strata": [{**GEOM_STAGE, "schedule": {**SCHEDULE, "m0": 1.0}}]}, "/strata/0/schedule/m0"),
        ({"strata": [{**GEOM_STAGE, "schedule": {**SCHEDULE, "rho": 2.1}}]}, "/strata/0/schedule/rho"),
        (
            {"strata": [{**GEOM_STAGE, "lie_type": {"family": "A", "rank": 2, "twisted": "false"}}]},
            "/strata/0/lie_type/twisted",
        ),
        ({"strata": [{"index": "primes", "p_min": True}]}, "/strata/0/p_min"),
        (_diagonal(rho_m="1", n_m=7.0, stratum=GEOM_STAGE), "/strata/0/stages/0/n_m"),
        (_diagonal(rho_m=1.5, n_m="7", stratum=GEOM_STAGE), "/strata/0/stages/0/rho_m"),
    ],
    ids=[
        "stratum-not-object",
        "strata-not-list",
        "finite-q",
        "multiplicity-string",
        "multiplicity-no-exponent",
        "rank",
        "bare-int-factor",
        "geometric-q",
        "poly-no-coeffs",
        "p_min",
        "stage-no-stratum",
        "stage-n_m",
        "schedule-rho-zero-denominator",
        "p_min-infinity",
        "primes-flag",
        "geometric-flag",
        "stage-flag",
        "rate_exponent",
        "q-float",
        "q-bool",
        "multiplicity-bool",
        "pair-float",
        "pair-triple",
        "rank-float",
        "lie_type-list",
        "coeff-float",
        "coeffs-string",
        "schedule-m0-float",
        "schedule-rho-float",
        "twisted-string",
        "p_min-bool",
        "stage-n_m-float",
        "stage-rho_m-float",
    ],
)
def test_malformed_spec_is_parse_error(capsys, spec, pointer):
    code = main(["prg", "--spec", json.dumps(spec)])
    err = capsys.readouterr().err
    assert code == 2
    # the pointer of the offending field, or of the stratum when none is named
    assert err.startswith(f"error: {pointer}: " if pointer else "error: ")


@pytest.mark.parametrize(
    "stratum",
    [
        {"index": "primes", "flag": "smple"},
        {**GEOM_STAGE, "flag": "smple"},
        _finite(flag="smple")["strata"][0],
    ],
    ids=["primes", "geometric", "finite"],
)
def test_flag_typo_points_at_the_flag(capsys, stratum):
    spec = {"strata": [GEOM_STAGE, stratum]}
    assert main(["prg", "--spec", json.dumps(spec)]) == 2
    err = capsys.readouterr().err
    assert "/strata/1/" in err and "/flag: flag must be simple|cover, got 'smple'" in err


def test_huge_skip_needs_no_power(capsys):
    # a command that needs no series must not build q**(skip+1)
    spec = {"strata": [{**GEOM_STAGE, "skip": 10 ** 8}]}
    code, out = run(capsys, "prg", "--spec", json.dumps(spec))
    assert code == 0
    assert json.loads(out)["prg"]


def test_stage_errors_point_into_the_stage_stratum(capsys):
    spec = _diagonal(rho_m="1", n_m="7", stratum={**GEOM_STAGE, "q": "x"})
    assert main(["prg", "--spec", json.dumps(spec)]) == 2
    assert "/strata/0/stages/0/stratum/q:" in capsys.readouterr().err


def test_illegal_value_keeps_precondition_exit(capsys):
    spec = {"strata": [{"index": "primes", "p_min": 3}]}
    assert main(["prg", "--spec", json.dumps(spec)]) == 3


EMPTY_PAIRS = {
    "geometric": {"strata": [{**GEOM_STAGE, "lie_type": {"family": "A", "rank": 2}, "pairs": []}]},
    "finite": _finite(lie_type={"family": "A", "rank": 2}, pairs=[]),
}


@pytest.mark.parametrize("argv", [("zeta", "--N", "100"), ("abscissa",), ("prg",)])
@pytest.mark.parametrize("spec", EMPTY_PAIRS.values(), ids=EMPTY_PAIRS.keys())
def test_empty_pair_set_is_a_precondition_error(capsys, argv, spec):
    # abscissa used to end in a traceback: max() of the empty pair set
    code, err = _spec_error(capsys, *argv, "--spec", json.dumps(spec))
    assert code == 3
    assert err.startswith("error: pair set rejected:") and err.count("\n") == 1


DIAGONAL_STAGE = {"rho_m": "1", "n_m": "7", "stratum": GEOM_STAGE}
SQUARE_STAGE = {**GEOM_STAGE, "flag": "simple", "schedule": {"kind": "poly", "coeffs": [0, 0, 1]}}
ILLEGAL_DIAGONALS = {
    "rho-negative": ("-2", []),
    "rho-zero": ("0", []),
    "rho_m-at-rho": ("2", [{**DIAGONAL_STAGE, "rho_m": "2"}]),
    "rho_m-above-rho": ("2", [{**DIAGONAL_STAGE, "rho_m": "3"}]),
    "rho_m-not-increasing": ("2", [DIAGONAL_STAGE, {**DIAGONAL_STAGE, "n_m": "9"}]),
    "n_m-at-1": ("2", [{**DIAGONAL_STAGE, "n_m": "1"}]),
    "n_m-not-increasing": ("2", [DIAGONAL_STAGE, {**DIAGONAL_STAGE, "rho_m": "3/2"}]),
    # GEOM_STAGE has abscissa 2; with f(j) = j^2 it has none (infinite)
    "stratum-rate-not-rho_m": ("3", [DIAGONAL_STAGE]),
    "stratum-rate-infinite": ("2", [{**DIAGONAL_STAGE, "stratum": SQUARE_STAGE}]),
}


@pytest.mark.parametrize("argv", [("zeta", "--N", "100"), ("abscissa",), ("prg",)])
@pytest.mark.parametrize("rho,stages", ILLEGAL_DIAGONALS.values(), ids=ILLEGAL_DIAGONALS.keys())
def test_diagonal_stratum_breaking_the_construction_rules_is_refused(capsys, argv, rho, stages):
    # rho -2 with no stages used to print abscissa -2 and a PRG verdict
    spec = {"strata": [{"index": "diagonal", "rho": rho, "stages": stages}]}
    code, err = _spec_error(capsys, *argv, "--spec", json.dumps(spec))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


def test_diagonal_stage_of_another_rate_is_refused(capsys):
    # this stage tower alone has infinite abscissa and is not PRG, yet the
    # stratum used to print abscissa 2 and "prg": true
    spec = json.dumps(_diagonal(rho_m="1", n_m="7", stratum=SQUARE_STAGE))
    for cmd in ("abscissa", "prg"):
        code, err = _spec_error(capsys, cmd, "--spec", spec)
        assert code == 3
        assert err == "error: stage 0: stratum abscissa infinite differs from rho_m = 1\n"
    stage = {**DIAGONAL_STAGE, "rho_m": "2"}  # GEOM_STAGE's own abscissa
    legal = json.dumps({"strata": [{"index": "diagonal", "rho": "3", "stages": [stage]}]})
    code, out = run(capsys, "abscissa", "--spec", legal)
    assert code == 0 and json.loads(out)["abscissa"] == "3"


def test_negative_budget_is_refused_and_zero_runs_out(capsys):
    base = ("construct", "diagonal", "--rho", "2", "--stages", "2", "--p", "5", "--budget")
    code, err = _spec_error(capsys, *base, "-1")
    assert code == 3 and err == "error: work budget -1 must be >= 0\n"
    code, err = _spec_error(capsys, *base, "0")
    assert code == 4 and err == "error: work budget 0 exhausted\n"


def test_a_run_of_onset_rejections_exits_4_on_its_budget():
    # rho_m = rho - 10^-6 rejects about 500,000 candidates at their onset;
    # each is charged the term it reads, so --budget 1000 ends the run
    targets = '[{"rho_m": "1999999/1000000", "lie_type": {"family": "A", "rank": 2}, "p": 5}]'
    argv = ("construct", "diagonal", "--rho", "2", "--targets-json", targets, "--budget", "1000")
    assert golden.run(argv) == (4, b"", "error: work budget 1000 exhausted\n")


def test_legal_diagonal_stratum_without_stages_is_read(capsys):
    spec = {"strata": [{"index": "diagonal", "rho": "2", "stages": []}]}
    code, out = run(capsys, "abscissa", "--spec", json.dumps(spec))
    assert code == 0 and json.loads(out)["abscissa"] == "2"


def test_huge_prime_q_is_recognized(capsys):
    # 2^61 - 1 needs no trial division: it is proven prime by Miller-Rabin
    code, out = run(capsys, "zeta", "--group", "SL2", "--q", str(2 ** 61 - 1), "--N", "10")
    assert code == 0
    assert json.loads(out)["entries"] == [["1", "1"]]


def test_unprovable_prime_q_is_a_precondition_error(capsys):
    # 2^89 - 1 is prime, but past the bound where Miller-Rabin is a proof
    code = main(["zeta", "--group", "SL2", "--q", str(2 ** 89 - 1), "--N", "10"])
    assert code == 3
    assert "cannot prove" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q, why",
    [
        (2 ** 11213 - 1, "cannot prove that 2814112013697373133393152... (11213 bits) is prime"),
        (1009 ** 1009 * 1013, "q = 854665510060041286380509... (10079 bits) is not a prime power"),
    ],
    ids=["mersenne-11213", "1009^1009*1013"],
)
def test_a_huge_q_is_named_by_its_leading_digits_and_bits(capsys, q, why):
    # a prime past every proof bound and a product of two primes, each over
    # 10,000 bits (3,376 and 3,034 digits): the exit-3 message stays short
    code = main(["zeta", "--group", "SL2", "--q", str(q), "--N", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert why in err and len(err) < 250, err


def test_unmaterializable_multiplicity_is_a_budget_exit(capsys):
    code = main(["construct", "diagonal", "--rho", "1000000", "--stages", "1", "--p", "5"])
    assert code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: 5**2999995 is too large to materialize")


# errors.int_name's names of the two exponents: 24 leading digits and the bit length
EXPONENT_NAMES = {
    10 ** 400: "1000000000000000000000000... (1329 bits)",
    17 * 10 ** 307: "1700000000000000000000000... (1024 bits)",
}


@pytest.mark.parametrize("value", [10 ** 400, 17 * 10 ** 307], ids=["10**400", "17*10**307"])
@pytest.mark.parametrize("argv", [["zeta"], ["abscissa", "--empirical"]], ids=" ".join)
def test_multiplicity_past_double_range_is_a_budget_exit(capsys, argv, value):
    # 3**(10**400) has no float log at all and 3**(17*10**307) one of inf:
    # the first raised a bare OverflowError, the second exited 3 at "dim 3"
    factor = {"lie_type": {"family": "A", "rank": 1}, "q": 5,
              "multiplicity": {"base": 3, "exponent": value}}
    spec = json.dumps({"strata": [{"index": "finite", "factors": [factor]}]})
    code = main([*argv, "--spec", spec, "--N", "10"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith(f"error: 3**{EXPONENT_NAMES[value]} is too large: its ")


@pytest.mark.parametrize(
    "text", ["[]", " [1]", '\n[{"strata": []}]'], ids=["empty", "space-first", "newline-first"]
)
def test_inline_json_array_is_a_spec_not_a_path(capsys, text):
    assert main(["prg", "--spec", text]) == 2
    assert "spec must be an object with a 'strata' list" in capsys.readouterr().err


# at N = 300 the largest M has 27 bits (d = 3) and 54 (d = 4), so both are
# exact, and about 267 (d = 12), past 256 bits, so that one is log
@pytest.mark.parametrize("d", [3, 4, 12])
def test_zeta_json_is_json_dumps_of_the_series(capsys, d):
    spec = sl2_over_primes_spec(d)
    code, out = run(capsys, "zeta", "--spec", json.dumps(spec.to_jsonable()), "--N", "300")
    assert code == 0
    series = truncated_zeta(spec, 300)
    assert series.backend == ("log" if d == 12 else "exact")
    assert out == json.dumps(series.to_jsonable(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("d,N", [(5, 2500), (4, 2000)])
def test_zeta_and_empirical_slope_read_the_same_counts(capsys, d, N):
    # one backend rule: every multiplicity has at most 256 bits here, so zeta
    # prints exact counts and the slopes' R_n are their running sums
    spec = json.dumps(sl2_over_primes_spec(d).to_jsonable())
    code, out = run(capsys, "zeta", "--spec", spec, "--N", str(N), "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    running, want = 0, []
    for dim, count in rows:
        running += int(count)
        if int(dim) > 1:
            want.append(f"{dim},{math.log(running) / math.log(10.0):.6f}")
    code, out = run(capsys, "abscissa", "--example", "sl2-primes", "--d", str(d),
                    "--empirical", "--N", str(N), "--format", "csv")
    assert code == 0
    got = [line.rsplit(",", 1)[0] for line in out.splitlines()[1:]]
    assert len(got) > 100 and got == want


def test_reused_parser_answers_each_call_as_a_fresh_process(capsys, monkeypatch, tmp_path):
    # main() builds the parser once per process; a parse error, a run, a
    # refused --out and a run of another command in turn on that one parser
    # must each print and exit exactly as in a process of their own
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    missing = str(tmp_path / "missing" / "out.json")
    calls = [
        ("zeta", "--N", "ten"),
        ("zeta", "--group", "SL2", "--q", "5", "--N", "60"),
        ("zeta", "--group", "SL2", "--q", "5", "--N", "60", "--out", missing),
        ("gens", "--group", "A5", "--d", "2"),
    ]
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    got = []
    for argv in calls:
        code = main(list(argv))
        out, err = capsys.readouterr()
        got.append((code, out.encode(), err))
    assert cli.build_parser() is parser
    assert [code for code, _, _ in got] == [2, 0, 2, 0]
    assert got == [golden.run(argv) for argv in calls]


# one A2 factor with multiplicity 2^63 - 1: below 2^256, so zeta stays exact
LONG_COUNT_SPEC = json.dumps(
    {
        "strata": [
            {
                "index": "finite",
                "factors": [
                    {"lie_type": {"family": "A", "rank": 2}, "q": 2, "multiplicity": 2 ** 63 - 1}
                ],
            }
        ]
    }
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_zeta_count_too_long_to_print_is_a_budget_exit(tmp_path, fmt):
    # at N = 2^600 the largest count has 3,539 digits; at 2^900 str() refuses one
    argv = ("zeta", "--spec", LONG_COUNT_SPEC, "--format", fmt, "--N")
    code, out, err = golden.run((*argv, str(2 ** 600)))
    assert (code, err) == (0, "")
    assert max(len(line) for line in out.splitlines()) > 3539
    target = tmp_path / "series"
    for where in ((), ("--out", str(target))):
        assert golden.run((*argv, str(2 ** 900), *where)) == (
            4,
            b"",
            "error: an exact count has more than 4300 digits, too many to print\n",
        )
    assert not target.exists()


HUGE_E_SPEC = json.dumps({"strata": [{"index": "primes", "rate_exponent": 3 * 10 ** 20}]})


@pytest.mark.parametrize(
    "argv",
    [
        ("abscissa", "--example", "sl2-primes", "--d", str(10 ** 20), "--empirical", "--N", "10"),
        ("zeta", "--spec", HUGE_E_SPEC, "--N", "10"),
    ],
    ids=["abscissa", "zeta"],
)
def test_huge_prime_rate_exponent_finishes(argv):
    # ((p^3 - p)/2)^E used to be formed in full, and neither command ended
    code, out, err = golden.run(argv)
    assert (code, err) == (0, "")
    assert json.loads(out)


# strata whose first minimal dimension, q^(skip+1) or q^|Phi+|, has far more
# digits than N: each used to be formed before the comparison with N
FAR_FIRST_DIM = {
    "skip": {"strata": [{**GEOM_STAGE, "skip": 10 ** 8}]},
    "tower": {"strata": [{**GEOM_STAGE, "lie_type": {"family": "A", "rank": 30000}}]},
    "factor": {
        "strata": [
            {"index": "finite", "factors": [{"lie_type": {"family": "A", "rank": 10 ** 5}, "q": 5}]}
        ]
    },
}


@pytest.mark.parametrize("spec", FAR_FIRST_DIM.values(), ids=FAR_FIRST_DIM.keys())
def test_first_dimension_far_above_n_contributes_nothing(spec):
    zeta = golden.run(("zeta", "--spec", json.dumps(spec), "--N", "100"))
    assert (zeta[0], zeta[2]) == (0, "")
    assert json.loads(zeta[1])["entries"] == [["1", "1"]]
    slope = golden.run(("abscissa", "--empirical", "--spec", json.dumps(spec), "--N", "100"))
    assert (slope[0], slope[2]) == (0, "")
    assert json.loads(slope[1])["points"] == []


@pytest.mark.parametrize("p_min", [10 ** 14, 10 ** 18])
def test_huge_p_min_enumerates_no_primes(capsys, monkeypatch, p_min):
    def no_sieve(start, first_hi=None):
        raise AssertionError(f"primes_from({start}) called")

    monkeypatch.setattr(growth, "primes_from", no_sieve)
    spec = json.dumps({"strata": [{"index": "primes", "p_min": p_min}]})
    code, out = run(capsys, "zeta", "--spec", spec, "--N", "10")
    assert code == 0
    assert json.loads(out)["entries"] == [["1", "1"]]


def test_integer_and_rational_fields_take_decimal_strings(capsys):
    def same_output(a, b, *argv):
        got = run(capsys, *argv, "--spec", json.dumps(a))
        assert got[0] == 0 and run(capsys, *argv, "--spec", json.dumps(b)) == got
        return got[1]

    same_output(_finite(q=7, multiplicity=2), _finite(q="7", multiplicity="2"), "zeta", "--N", "50")

    def rho(r):
        return {"strata": [{**GEOM_STAGE, "schedule": {**SCHEDULE, "rho": r}}]}

    out = same_output(rho("2.1"), rho("21/10"), "abscissa")
    assert json.loads(out)["abscissa"] == "21/10"


@pytest.mark.parametrize("group", ["SL2", "PSL2"])
@pytest.mark.parametrize("q", [4, 5, 7, 9, 27])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_zeta_group_is_the_one_factor_spec(capsys, group, q, fmt):
    flag = "simple" if group == "PSL2" else "cover"
    spec = json.dumps(_finite(q=q, flag=flag))
    for N in ("1", "10", "1000"):
        by_group = run(capsys, "zeta", "--group", group, "--q", str(q), "--N", N, "--format", fmt)
        by_spec = run(capsys, "zeta", "--spec", spec, "--N", N, "--format", fmt)
        assert by_group[0] == 0 and by_group == by_spec


@pytest.mark.parametrize("group", ["SL2", "PSL2"])
@pytest.mark.parametrize("q", [2, 6, 2 ** 89 - 1], ids=["tits", "not-prime-power", "unprovable"])
def test_zeta_group_and_its_spec_refuse_an_illegal_q_alike(capsys, group, q):
    # the spec form used to exit 2 with the same message under a pointer
    flag = "simple" if group == "PSL2" else "cover"
    by_group = _spec_error(capsys, "zeta", "--group", group, "--q", str(q), "--N", "10")
    by_spec = _spec_error(capsys, "zeta", "--spec", json.dumps(_finite(q=q, flag=flag)), "--N", "10")
    assert by_group[0] == 3 and by_group == by_spec
    assert by_group[1].startswith("error: ") and by_group[1].count("\n") == 1


@pytest.mark.parametrize("group", ["SL2", "PSL2"])
def test_zeta_group_rejects_the_excluded_fields(capsys, group):
    for q in ("2", "3"):
        assert main(["zeta", "--group", group, "--q", q, "--N", "10"]) == 3
        assert "Tits-excluded" in capsys.readouterr().err


def _spec_error(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


def test_spec_path_that_is_a_directory(capsys, tmp_path):
    code, err = _spec_error(capsys, "prg", "--spec", str(tmp_path))
    assert code == 2 and err.startswith(f"error: cannot read {tmp_path}:")


def test_spec_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"strata": ["\xff"]}')
    code, err = _spec_error(capsys, "prg", "--spec", str(path))
    assert code == 2 and err.startswith(f"error: cannot read {path}:")


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_deeply_nested_spec(capsys, tmp_path, inline):
    text = "[" * 100000
    if not inline:
        (tmp_path / "deep.json").write_text(text)
        text = str(tmp_path / "deep.json")
    code, err = _spec_error(capsys, "zeta", "--spec", text, "--N", "5")
    assert code == 2 and err.startswith("error: invalid JSON:")


def test_zeta_without_group_or_spec(capsys):
    code, err = _spec_error(capsys, "zeta", "--N", "5")
    assert code == 2 and err == "error: needs --spec\n"


def _targets_jsonable(targets):
    return [
        {"rho_m": str(rho_m), "lie_type": t.to_jsonable(), "p": p} for rho_m, t, p in targets
    ]


def test_targets_json_equal_to_the_default_stages(capsys, tmp_path):
    path = tmp_path / "targets.json"
    targets = constructor.default_diagonal_targets(Fraction(2), 2, 5)
    path.write_text(json.dumps(_targets_jsonable(targets)))
    base = ("construct", "diagonal", "--rho", "2", "--p", "5")
    from_file = run(capsys, *base, "--targets-json", str(path))
    default = run(capsys, *base, "--stages", "2")
    assert default[0] == 0 and from_file == default


def _check_diagonal_output(out: str) -> list:
    """Re-check the printed certificate from its spec alone: at each stage m
    the cover-view slope of stages 1..m stays <= rho up to swept_to, and
    stages 1..m and 1..m-1 have the same cumulative count at n(m-1).
    Returns the (dropped, n_m) of each stage."""
    obj = json.loads(out)
    rho = Fraction(obj["certificate"]["rho"])
    stages = [st.stratum for st in GroupSpec.from_jsonable(obj["spec"]).strata[0].stages]
    n_prev, got = 1, []
    for m, record in enumerate(obj["certificate"]["stages"], start=1):
        swept_to = int(record["checks"][1]["swept_to"])
        upto, before = (growth.with_flag(GroupSpec(tuple(stages[:k])), False) for k in (m, m - 1))
        running = 0
        for d, mult in truncated_zeta(upto, swept_to, backend="exact").items():
            running += mult
            assert running ** rho.denominator <= d ** rho.numerator
        lhs, rhs = (
            cumulative(truncated_zeta(spec, n_prev, backend="exact"), n_prev)
            for spec in (upto, before)
        )
        assert lhs == rhs
        got.append((record["dropped"], int(record["n_m"])))
        n_prev = int(record["n_m"])
    return got


def test_an_a1_stage_over_q_1_mod_4_is_built(capsys):
    # SL2(5) has a degree-2 irreducible that PSL2(5) lacks: the sweep finds
    # the cover-view slope above rho there, and the onset it is compared
    # with is the cover view's too, so the factor is dropped
    targets = golden.targets(("2", "A", 1, 5))
    code, out = run(capsys, "construct", "diagonal", "--rho", "3", "--targets-json", targets)
    assert code == 0
    assert _check_diagonal_output(out) == [(1, 13)]


@pytest.mark.parametrize("args", [pin.argv for pin in golden.PINS if pin.name.startswith("diagonal-a1-first")])
def test_construct_diagonal_with_an_a1_first_stage_is_pinned(capsys, args):
    code, out = run(capsys, *args)
    assert code == 0
    _check_diagonal_output(out)


STAGE = {"rho_m": "1", "lie_type": {"family": "A", "rank": 2}, "p": 5}


@pytest.mark.parametrize(
    "targets,pointer",
    [
        ("{not json", ""),
        ({"rho_m": "1"}, ""),
        ([7], ""),
        ([{k: v for k, v in STAGE.items() if k != "rho_m"}], "/0"),
        ([{**STAGE, "rho_m": 1.5}], "/0/rho_m"),
        ([{**STAGE, "rho_m": "x"}], "/0/rho_m"),
        ([{k: v for k, v in STAGE.items() if k != "lie_type"}], "/0/lie_type"),
        ([{**STAGE, "lie_type": "A2"}], "/0/lie_type"),
        ([{**STAGE, "lie_type": {"family": "A", "rank": 2.5}}], "/0/lie_type/rank"),
        ([{**STAGE, "lie_type": {"family": "A", "rank": 2, "twisted": 0}}], "/0/lie_type/twisted"),
        ([{k: v for k, v in STAGE.items() if k != "p"}], "/0"),
        ([{**STAGE, "p": 5.0}], "/0/p"),
        ([STAGE, {**STAGE, "p": "five"}], "/1/p"),
    ],
    ids=[
        "bad-json",
        "not-a-list",
        "item-not-object",
        "no-rho_m",
        "rho_m-float",
        "rho_m-string",
        "no-lie_type",
        "lie_type-string",
        "rank-float",
        "twisted-int",
        "no-p",
        "p-float",
        "p-string",
    ],
)
def test_malformed_targets_json_is_parse_error(capsys, tmp_path, targets, pointer):
    path = tmp_path / "targets.json"
    path.write_text(targets if isinstance(targets, str) else json.dumps(targets))
    code, err = _spec_error(
        capsys, "construct", "diagonal", "--rho", "2", "--p", "5", "--targets-json", str(path)
    )
    assert code == 2
    assert err.startswith(f"error: {pointer}: " if pointer else "error: ")


def test_missing_targets_json_file(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, err = _spec_error(
        capsys, "construct", "diagonal", "--rho", "2", "--p", "5", "--targets-json", missing
    )
    assert code == 2 and err == f"error: spec file not found: {missing}\n"


@pytest.mark.parametrize("rho", ["1e3000000", "1E5", "2e0"])
def test_rho_in_exponent_notation_is_parse_error(capsys, rho):
    # a bare Fraction(rho) would build 10**3000000 before anything failed
    code, err = _spec_error(capsys, "construct", "fixed", "--rho", rho, "--p", "5")
    assert code == 2 and "error: argument --rho: not a rational" in err


def test_rho_as_decimal_or_fraction_prints_the_same_spec(capsys):
    base = ("construct", "fixed", "--p", "5")
    decimal = run(capsys, *base, "--rho", "2.5")
    assert decimal[0] == 0 and run(capsys, *base, "--rho", "5/2") == decimal
    assert run(capsys, *base, "--rho", "2") == run(capsys, *base, "--rho", "4/2")


@pytest.mark.parametrize(
    "argv",
    [("fixed", "--rho", "2"), ("diagonal", "--rho", "2"), ("diagonal", "--rho", "2", "--stages", "3")],
    ids=["fixed", "diagonal", "diagonal-stages"],
)
def test_construct_without_p_is_parse_error(capsys, argv):
    code, err = _spec_error(capsys, "construct", *argv)
    assert code == 2 and err == "error: needs --p\n"


def test_targets_json_needs_no_p(capsys, tmp_path):
    path = tmp_path / "targets.json"
    targets = constructor.default_diagonal_targets(Fraction(2), 2, 5)
    path.write_text(json.dumps(_targets_jsonable(targets)))
    base = ("construct", "diagonal", "--rho", "2", "--targets-json", str(path))
    without_p = run(capsys, *base)
    assert without_p[0] == 0 and run(capsys, *base, "--p", "5") == without_p


CLOSED_STDOUT = pytest.mark.parametrize(
    "argv, lines_read",
    [
        # about 0.5 MB of CSV in five chunks, far more than a pipe buffers:
        # the writer is still writing when the reader goes away
        (("abscissa", "--example", "sl2-primes", "--empirical", "--N", "20000", "--format", "csv"), 1),
        # a few hundred bytes, still buffered when the command flushes
        # stdout into a pipe closed before it started
        (("construct", "fixed", "--rho", "2", "--p", "5"), 0),
        # about 1 MB of a series' JSON, closed within its first chunk
        (("zeta", "--spec", json.dumps(sl2_over_primes_spec(3).to_jsonable()), "--N", "20000"), 1),
    ],
    ids=["mid-write", "at-flush", "mid-write-zeta-json"],
)


def _run_into_closed_stdout(argv, lines_read, unbuffered):
    """Exit code and stderr of python -m repgrowth argv, whose stdout pipe
    is closed after lines_read lines (0: before the command starts).  Not
    golden.run's child: that one's stdout pipe cannot be closed early."""
    env = dict(os.environ, PYTHONPATH=golden.SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    reader = os.fdopen(r, "rb")
    if not lines_read:
        reader.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repgrowth", *argv], stdout=w, stderr=subprocess.PIPE, env=env
    )
    os.close(w)
    for _ in range(lines_read):
        assert reader.readline()
    reader.close()
    err = proc.stderr.read().decode()
    return proc.wait(timeout=60), err


@CLOSED_STDOUT
def test_closed_stdout_exits_1_without_a_traceback(argv, lines_read):
    # buffered stdout as in a shell
    assert _run_into_closed_stdout(argv, lines_read, unbuffered=False) == (1, "")


@CLOSED_STDOUT
def test_closed_stdout_exits_1_when_stdout_is_unbuffered(argv, lines_read):
    # unbuffered, one short write into the closed pipe used to drop the
    # rest of the output and exit 0
    assert _run_into_closed_stdout(argv, lines_read, unbuffered=True) == (1, "")


OUT_COMMANDS = {
    "zeta": ("zeta", "--group", "SL2", "--q", "5", "--N", "10"),
    "abscissa": ("abscissa", "--example", "sl2-primes"),
    "construct": ("construct", "fixed", "--rho", "2", "--p", "5"),
    "prg": ("prg", "--spec", json.dumps(sl2_over_primes_spec(3).to_jsonable())),
    "gens": ("gens", "--group", "C3"),
}


STREAMED_COMMANDS = {
    f"{command}-{fmt}": (*argv, "--N", "300", "--format", fmt)
    for command, argv in (("zeta", ("zeta", "--spec", json.dumps(sl2_over_primes_spec(3).to_jsonable()))),
                          ("slopes", ("abscissa", "--example", "sl2-primes", "--empirical")))
    for fmt in ("csv", "json")
}
STREAMED_COMMANDS["abscissa-csv"] = ("abscissa", "--example", "sl2-primes", "--format", "csv")


@pytest.mark.parametrize("argv", [*STREAMED_COMMANDS.values(), *OUT_COMMANDS.values()],
                         ids=[*STREAMED_COMMANDS, *OUT_COMMANDS])
def test_out_gets_the_bytes_of_stdout(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(dirichlet, "ROWS_PER_CHUNK", 7)  # tables of many chunks
    code, out = run(capsys, *argv)
    target = tmp_path / "out"
    assert code == 0 and run(capsys, *argv, "--out", str(target)) == (0, "")
    assert target.read_bytes() == out.encode() and out.endswith("\n")


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_parse_error(capsys, monkeypatch, tmp_path, command, where):
    out = str(tmp_path / "nope" / "x.json") if where == "missing-directory" else str(tmp_path)
    # refused before any work starts
    monkeypatch.setattr(growth, "truncated_zeta", None)
    code, err = _spec_error(capsys, *OUT_COMMANDS[command], "--out", out)
    assert code == 2
    assert err.splitlines()[-1].endswith(f"error: argument --out: cannot write {out!r}: " + (
        "No such file or directory" if where == "missing-directory" else "Is a directory"
    ))
    assert os.listdir(tmp_path) == []


def test_out_probe_leaves_no_file_behind(capsys, tmp_path):
    target = tmp_path / "x.json"
    code, _ = _spec_error(capsys, "zeta", "--spec", "{not json", "--N", "5", "--out", str(target))
    assert code == 2 and not target.exists()
    target.write_text("kept")
    code, _ = _spec_error(capsys, "zeta", "--spec", "{not json", "--N", "5", "--out", str(target))
    assert code == 2 and target.read_text() == "kept"


@pytest.mark.parametrize(
    "flag", [("--stages", "2"), ("--stages", "4"), ("--family", "A")], ids=["stages", "stages-4", "family"]
)
def test_targets_json_refuses_stages_and_family(capsys, tmp_path, flag):
    path = tmp_path / "targets.json"
    targets = constructor.default_diagonal_targets(Fraction(2), 2, 5)
    path.write_text(json.dumps(_targets_jsonable(targets)))
    code, err = _spec_error(
        capsys, "construct", "diagonal", "--rho", "2", "--targets-json", str(path), *flag
    )
    assert code == 2
    assert err == f"error: {flag[0]} does not apply with --targets-json\n"


def test_construct_defaults_are_four_stages_of_family_a(capsys):
    base = ("construct", "diagonal", "--rho", "2", "--p", "5")
    default = run(capsys, *base)
    assert default[0] == 0 and run(capsys, *base, "--stages", "4", "--family", "A") == default
    assert run(capsys, *base, "--budget", str(10 ** 9)) == default
    base = ("construct", "fixed", "--rho", "2", "--p", "5")
    assert run(capsys, *base) == run(capsys, *base, "--family", "A", "--rank", "1")


@pytest.mark.parametrize("family,rank", [("A", 1), ("B", 2), ("C", 3), ("D", 4), ("E6", 6),
                                         ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
def test_construct_fixed_rank_defaults_to_the_familys_smallest(capsys, family, rank):
    base = ("construct", "fixed", "--rho", "2", "--p", "5", "--family", family)
    default = run(capsys, *base)
    assert default[0] == 0 and default == run(capsys, *base, "--rank", str(rank))


DIAGONAL = ("construct", "diagonal", "--rho", "2", "--p", "5", "--stages", "2")
FIXED = ("construct", "fixed", "--rho", "2", "--p", "5")
UNREAD_FLAGS = {
    "diagonal-rank": (
        (*DIAGONAL, "--rank", "3", "--twisted", "--q", "25"),
        "--rank does not apply to construct diagonal",
    ),
    "diagonal-twisted": (
        (*DIAGONAL, "--twisted"),
        "--twisted does not apply to construct diagonal",
    ),
    "diagonal-q": ((*DIAGONAL, "--q", "25"), "--q does not apply to construct diagonal"),
    "fixed-stages": (
        (*FIXED, "--stages", "9", "--budget", "1", "--targets-json", "/nonexistent"),
        "--stages does not apply to construct fixed",
    ),
    "fixed-budget": ((*FIXED, "--budget", "1"), "--budget does not apply to construct fixed"),
    "fixed-targets-json": (
        (*FIXED, "--targets-json", "/nonexistent"),
        "--targets-json does not apply to construct fixed",
    ),
    "zeta-group-spec": (
        ("zeta", "--group", "SL2", "--q", "5", "--N", "5", "--spec", "/nonexistent"),
        "--spec does not apply with --group",
    ),
    "zeta-spec-q": (
        ("zeta", "--spec", '{"strata":[]}', "--q", "7", "--N", "3"),
        "--q applies only with --group",
    ),
    "abscissa-example-spec": (
        ("abscissa", "--example", "sl2-primes", "--spec", "/nonexistent"),
        "--spec does not apply with --example",
    ),
    "abscissa-spec-d": (
        ("abscissa", "--spec", "/nonexistent", "--d", "3", "--empirical"),
        "--d applies only with --example",
    ),
    "abscissa-N": (
        ("abscissa", "--example", "sl2-primes", "--N", "1000000"),
        "--N applies only with --empirical",
    ),
    # a zero is given too, although it equals False
    "zeta-spec-q-zero": (
        ("zeta", "--spec", '{"strata":[]}', "--q", "0", "--N", "3"),
        "--q applies only with --group",
    ),
    "abscissa-N-zero": (
        ("abscissa", "--example", "sl2-primes", "--N", "0"),
        "--N applies only with --empirical",
    ),
}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the flags were checked")


@pytest.mark.parametrize("argv,message", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
def test_flag_the_command_does_not_read_is_parse_error(capsys, monkeypatch, argv, message):
    for module, name in [
        (constructor, "build_fixed_type"),
        (constructor, "build_diagonal"),
        (growth, "truncated_zeta"),
        (growth, "empirical_slope"),
        (growth, "exact_abscissa"),
        (growth, "sl2_over_primes_spec"),
        (cli, "_load_spec"),
        (cli, "_load_targets"),
    ]:
        monkeypatch.setattr(module, name, _no_work)
    code, err = _spec_error(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [("zeta", "--N", "10"), ("abscissa", "--empirical", "--N", "10")],
    ids=["zeta", "abscissa"],
)
def test_no_horizon_flag(capsys, monkeypatch, argv):
    # every truncation runs to its exact horizon, so there is no --J to cut it
    monkeypatch.setattr(cli, "_load_spec", _no_work)
    code, err = _spec_error(capsys, *argv, "--spec", "S", "--J", "3")
    assert code == 2
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --J 3")
    assert "Traceback" not in err


NEGATIVE_SCHEDULE = {
    "strata": [
        {
            **GEOM_STAGE,
            "schedule": {"kind": "schedule", "rho": "1", "rho0": "1/2", "m0": 5, "n0": 1, "j0": 1},
        }
    ]
}


@pytest.mark.parametrize("argv", [("zeta", "--N", "100"), ("abscissa",), ("prg",)])
def test_schedule_with_negative_exponents_is_a_precondition_error(capsys, argv):
    # f(j) = k_j - 5j < 0: zeta used to end in a traceback, abscissa to print -3
    code, err = _spec_error(capsys, *argv, "--spec", json.dumps(NEGATIVE_SCHEDULE))
    assert code == 3
    assert err.startswith("error: schedule needs D = n0*num - m0*den >= 0")
    assert "Traceback" not in err


def _ones_poly(count):
    return {"strata": [{**GEOM_STAGE, "schedule": {"kind": "poly", "coeffs": [1] * count}}]}


def test_poly_schedule_past_the_coefficient_cap_is_refused(capsys, monkeypatch):
    # the sign check keeps derivatives whose coefficients grow factorially,
    # so a longer list is refused before the check runs
    def no_check(coeffs):
        raise AssertionError("_first_negative ran")

    code, out = run(capsys, "prg", "--spec", json.dumps(_ones_poly(growth.MAX_POLY_COEFFS)))
    assert code == 0
    assert json.loads(out)["prg"] is False
    monkeypatch.setattr(growth, "_first_negative", no_check)
    for count in (growth.MAX_POLY_COEFFS + 1, 3000):
        code, err = _spec_error(capsys, "prg", "--spec", json.dumps(_ones_poly(count)))
        assert code == 3
        assert err == f"error: {count} coefficients: a poly schedule takes at most 256\n"


def test_poly_schedule_past_the_bit_cap_is_refused(capsys, monkeypatch):
    # j^20 (j - R)(j - R - 2) with R = 10^1000: the sign check would bisect
    # over [1, ~10^2000] at every derivative level
    def no_check(coeffs):
        raise AssertionError("_first_negative ran")

    monkeypatch.setattr(growth, "_first_negative", no_check)
    R = 10 ** 1000
    coeffs = [0] * 20 + [R * (R + 2), -(2 * R + 2), 1]
    spec = {"strata": [{**GEOM_STAGE, "schedule": {"kind": "poly", "coeffs": coeffs}}]}
    code, err = _spec_error(capsys, "prg", "--spec", json.dumps(spec))
    assert code == 3
    assert err == (
        "error: 23 coefficients of up to 6644 bits: a poly schedule takes at most 1024 "
        "in count * bits\n"
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)
VALID_SPECS = [
    sl2_over_primes_spec(3).to_jsonable(),
    constructor.build_fixed_type(Fraction(3, 2), LieType("A", 2, False), 5).to_jsonable(),
    {
        "strata": [
            {
                "index": "geometric",
                "q": 4,
                "lie_type": {"family": "B", "rank": 3},
                "flag": "cover",
                "skip": 1,
                "schedule": {"kind": "poly", "coeffs": [1, 2]},
            }
        ]
    },
]


def _pointers(node, prefix=()):
    """The key paths to every value below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _pointers(child, prefix + (key,))


def _with_field(spec, path, value):
    spec = copy.deepcopy(spec)
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


ONE_FIELD_REPLACED = st.sampled_from(
    [(spec, path) for spec in VALID_SPECS for path in _pointers(spec)]
).flatmap(lambda sp: JSON_VALUES.map(lambda value: _with_field(*sp, value)))


# every example takes well under 0.1 s; the deadline turns a slow one into a failure
@settings(max_examples=200, deadline=2000, derandomize=True)
@given(JSON_VALUES | ONE_FIELD_REPLACED)
def test_any_json_spec_ends_in_a_documented_exit(spec):
    text = json.dumps(spec)
    for argv in (["zeta", "--N", "100"], ["abscissa"], ["prg"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            stdin, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                code = main([*argv, "--spec", "-"])
            finally:
                sys.stdin = stdin
        assert code in (0, 2, 3, 4), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue()


def hall_phi_a5(d):
    return 60 ** d - 5 * 12 ** d - 6 * 10 ** d - 10 * 6 ** d + 20 * 3 ** d + 60 * 2 ** d - 60


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(finite_groups.catalog_names()),
    st.lists(st.integers(-2, 60), max_size=3),
    st.none() | st.integers(-2, 10 ** 60),
)
def test_gens_ends_in_a_count_or_a_precondition_exit(group, ds, k):
    argv = ["gens", "--group", group, *(a for d in ds for a in ("--d", str(d)))]
    if k is not None:
        argv += ["--min-gens", str(k)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), (argv, err.getvalue())
    if code == 0 and group == "A5":
        phi = json.loads(out.getvalue())["phi"]
        assert phi == {str(d): hall_phi_a5(d) for d in ds or [2]}


def _reported_classes():
    """Every subclass of errors.ReportedError, at any depth."""
    found, todo = [], [errors.ReportedError]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.append(cls)
            todo.append(cls)
    return found


def _mixed_backends(spec, N):
    return dirichlet.convolve(
        dirichlet.DirichletSeries(N, {1: 1}), dirichlet.DirichletSeries(N, {1: 0.0}, "log"), N
    )


def _no_rational_abscissa(spec):
    return growth.RateSummary("infinite", None, ())


# one real failure per ReportedError subclass: (argv, the function to
# patch first or None, its stand-in, exit code, stderr prefix)
REPORTED_CASES = {
    errors.SpecFormatError: (
        ["zeta", "--spec", "{", "--N", "10"], None, None, 2, "error: invalid JSON",
    ),
    errors.PreconditionError: (
        ["zeta", "--group", "SL2", "--q", "6", "--N", "10"], None, None, 3,
        "error: q = 6 is not a prime power",
    ),
    dirichlet.BackendMismatch: (
        ["zeta", "--group", "SL2", "--q", "5", "--N", "10"], (growth, "truncated_zeta"),
        _mixed_backends, 3, "error: cannot convolve series with different backends",
    ),
    errors.BudgetExceededError: (
        ["construct", "diagonal", "--rho", "2", "--p", "5", "--budget", "1"], None, None, 4,
        "error: work budget 1 exhausted",
    ),
    dirichlet.RangeOverflow: (
        ["construct", "diagonal", "--rho", "1000000", "--stages", "1", "--p", "5"], None, None, 4,
        "error: 5**2999995 is too large to materialize",
    ),
    errors.InvariantError: (
        ["construct", "diagonal", "--rho", "2", "--p", "5", "--stages", "1"],
        (constructor, "exact_abscissa"), _no_rational_abscissa, 5,
        "internal invariant failure: postcondition failed",
    ),
}


def test_every_reported_error_has_a_cli_case():
    assert set(REPORTED_CASES) == set(_reported_classes())


@pytest.mark.parametrize("cls", list(REPORTED_CASES), ids=lambda cls: cls.__name__)
def test_reported_error_exits_with_its_code_and_label(capsys, monkeypatch, cls):
    argv, target, stand_in, code, prefix = REPORTED_CASES[cls]
    if target is not None:
        monkeypatch.setattr(*target, stand_in)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(errors.ReportedError) as info:
        args.func(args)
    assert type(info.value) is cls
    capsys.readouterr()
    assert main(argv) == code == cls.exit_code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix)
    assert err.count("\n") == 1  # one line, no traceback


def test_module_docstring_lists_the_reported_exit_codes():
    # "Exit codes: 0 ok, 1 stdout closed early, and ...: 2 parse error, ..."
    text = " ".join(cli.__doc__.split("Exit codes:")[1].split("\n\n")[0].split())
    listed = {int(c) for c in re.findall(r"(?:^|[:,] )(\d) ", text)}
    assert listed == {0, 1} | {cls.exit_code for cls in _reported_classes()}
    assert {0, 1}.isdisjoint(cls.exit_code for cls in _reported_classes())


def test_budget_exit_writes_the_partial_certificate_to_out(capsys, tmp_path):
    path = tmp_path / "cert.json"
    argv = ["construct", "diagonal", "--rho", "2", "--p", "5", "--budget", "200"]
    with pytest.raises(errors.BudgetExceededError) as info:
        constructor.build_diagonal(Fraction(2), constructor.default_diagonal_targets(2, 4, 5), 200)
    assert main([*argv, "--out", str(path)]) == 4
    assert capsys.readouterr() == ("", "error: work budget 200 exhausted\n")
    cert = json.loads(path.read_text())
    assert cert == {"partial_certificate": info.value.partial.to_jsonable()}
    assert len(cert["partial_certificate"]["stages"]) == 3
    # a failure with no partial certificate leaves --out unwritten
    path = tmp_path / "zeta.json"
    assert main(["zeta", "--group", "SL2", "--q", "6", "--N", "10", "--out", str(path)]) == 3
    assert not path.exists()


def test_the_readme_quick_start_runs_and_prints_what_its_comments_state():
    # the python block under README's "Library quick start", run in a child
    # under -W error, each bare expression's value printed, then t's order
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    block = ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1)).body
    lines = [f"print(repr({ast.unparse(s.value)}))" if isinstance(s, ast.Expr) else ast.unparse(s) for s in block]
    source = "\n".join(lines + ["print(t.order)"])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", source], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert proc.returncode == 0, proc.stderr
    evaluated, *values = proc.stdout.splitlines()
    float(evaluated)
    assert values == ["Fraction(5, 1)", "228", "Fraction(3, 2)", "True", "2280", "120", "3", "4896"]
