"""Every refusal of src/repgrowth/ that no other in-process test reaches, one
row each: the call, the exception class it raises and a fragment of its
message, or the exit code of a command through cli.main.  With these, each
line that `python tests/line_trace.py` finds unrun is on its allowlist."""
import math
from fractions import Fraction

import pytest

from repgrowth import cli
from repgrowth.char_tables import DegreeTable, min_nontrivial_degree
from repgrowth.constructor import DiagonalCertificate, StageRecord, build_diagonal, default_diagonal_targets
from repgrowth.dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    RangeOverflow,
    convolve,
    cumulative,
    max_str_digits,
    mult_log,
    power_one_plus,
)
from repgrowth.errors import InvariantError, PreconditionError, SpecFormatError
from repgrowth.finite_groups import automorphism_count, permutation_group, psl2_group
from repgrowth.growth import (
    DiagonalStratum,
    GeometricStratum,
    GroupSpec,
    PolyExponent,
    PrimeStratum,
    Schedule,
    prg_verdict,
    sl2_over_primes_spec,
    truncated_zeta,
)
from repgrowth.invariants import sim_C
from repgrowth.lie_data import A1, LieType, PairSet, canonical_pair_set, validate_pair_set, xi_terms

A2 = LieType("A", 2)
S = DirichletSeries(10, {1: 1, 2: 3})
C2_CUBED = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]  # (Z/2)^3 on six points


def _set(obj, name, value):
    setattr(obj, name, value)


REFUSALS = {
    # char_tables
    "degree-table-mass": (lambda: DegreeTable("SL2", 5, ((1, 1), (2, 1)), 120), InvariantError, "sum d^2*mult"),
    "least-degree-of-trivial-table": (
        lambda: min_nontrivial_degree(DegreeTable("SL2", 1, ((1, 1),), 1)),
        PreconditionError, "no nontrivial character",
    ),
    # constructor
    "certificate-n-m-not-increasing": (
        lambda: DiagonalCertificate(Fraction(2), (StageRecord(1, Fraction(1), A2, 5, 0, 1, ()),), False),
        InvariantError, "strictly increasing",
    ),
    "diagonal-without-targets": (lambda: build_diagonal(Fraction(2), []), PreconditionError, "at least one stage target"),
    "default-targets-0-stages": (
        lambda: default_diagonal_targets(Fraction(2), 0, 5), PreconditionError, "at least one stage",
    ),
    "default-targets-at-rho0": (
        lambda: default_diagonal_targets(Fraction(5, 3), 1, 5), PreconditionError, "inadmissible for A2",
    ),
    # dirichlet
    "bigpower-base-1": (lambda: BigPower(1, 2), PreconditionError, "base >= 2"),
    "mult-log-0": (lambda: mult_log(0), PreconditionError, "multiplicity must be >= 1"),
    "series-cutoff-0": (lambda: DirichletSeries(0, {}), PreconditionError, "cutoff must be a positive integer"),
    "graded-zero-count": (
        lambda: DirichletSeries(25, {0: 1, 1: 0}, EXACT, 5), PreconditionError, "must be a positive integer",
    ),
    "keys-that-do-not-compare": (
        lambda: DirichletSeries(5, {"a": 1, 2: 1}), PreconditionError, "dimension 'a' is not a positive integer",
    ),
    "float-key": (lambda: DirichletSeries(5, {2.5: 1}), PreconditionError, "dimension 2.5 is not a positive integer"),
    "str-key-in-pairs": (lambda: DirichletSeries(5, [("a", 1)]), PreconditionError, "dimension 'a' is not"),
    "bool-key": (lambda: DirichletSeries(5, {True: 1}), PreconditionError, "dimension True is not"),
    "graded-float-key": (
        lambda: DirichletSeries(25, {0.5: 1}, EXACT, 5), PreconditionError, "an exponent of 5 is not a plain integer",
    ),
    "series-attribute": (lambda: _set(S, "cutoff", 3), AttributeError, "immutable"),
    "count-too-long-to-print": (
        lambda: DirichletSeries(2, {1: 10 ** max_str_digits()}).to_csv(), RangeOverflow, "too many to print",
    ),
    "convolve-past-a-cutoff": (lambda: convolve(S, S, 11), PreconditionError, "exceeds an input cutoff"),
    "convolve-at-0": (lambda: convolve(S, S, 0), PreconditionError, "cutoff must be a positive integer"),
    "power-past-its-cutoff": (lambda: power_one_plus(S, 2, 11), PreconditionError, "exceeds the base cutoff"),
    "power-of-a-log-base-off-1": (
        lambda: power_one_plus(DirichletSeries(10, {1: 0.5}, LOG), 2, 10),
        PreconditionError, "constant term exactly 1",
    ),
    "cumulative-at-0": (lambda: cumulative(S, 0), PreconditionError, "n must be a positive integer"),
    # finite_groups
    "psl2-past-the-catalogue": (lambda: psl2_group(17), PreconditionError, "capped at p <= 13"),
    "aut-past-its-order-cap": (lambda: automorphism_count(psl2_group(11)), PreconditionError, "capped at order"),
    "aut-not-2-generated": (
        lambda: automorphism_count(permutation_group("C2^3", C2_CUBED)), PreconditionError, "not 2-generated",
    ),
    # growth
    "poly-empty": (lambda: PolyExponent(()), PreconditionError, "empty coefficient list"),
    "poly-negative-lead": (lambda: PolyExponent((5, -1)), PreconditionError, "leading coefficient must be positive"),
    "schedule-rho0-at-rho": (
        lambda: Schedule(Fraction(2), Fraction(2), 1, 1, 1), PreconditionError, "need 0 < rho0 < rho",
    ),
    "schedule-negative-m0": (
        lambda: Schedule(Fraction(2), Fraction(1), -1, 1, 1), PreconditionError, "malformed schedule data",
    ),
    "geometric-over-6": (
        lambda: GeometricStratum(A1, 6, PolyExponent((0, 1))), PreconditionError, "6 is not a prime power",
    ),
    "prime-stratum-negative-exponent": (lambda: PrimeStratum(5, -1), PreconditionError, "exponent must be >= 0"),
    "prime-stratum-rate-exponent-4": (
        lambda: PrimeStratum.from_jsonable({"index": "primes", "rate_exponent": 4}, "/strata/0"),
        SpecFormatError, "rate_exponent must be 3*E",
    ),
    "zeta-at-0": (lambda: truncated_zeta(sl2_over_primes_spec(3), 0), PreconditionError, "N must be >= 1"),
    "sl2-over-primes-d-2": (lambda: sl2_over_primes_spec(2), PreconditionError, "needs d >= 3"),
    # invariants
    "sim-c-below-1": (lambda: sim_C(S, S, 0.5, [1.0]), PreconditionError, "C must be >= 1"),
    # lie_data
    "lie-type-a-without-rank": (lambda: LieType("A"), PreconditionError, "needs an explicit rank"),
    "pair-set-attribute": (lambda: _set(canonical_pair_set(A2), "pairs", frozenset()), AttributeError, "immutable"),
    "empty-pair-set-exponent": (lambda: PairSet([]).min_dim_exponent(), PreconditionError, "no minimal exponent"),
    "pair-set-from-an-object": (lambda: PairSet.from_jsonable({}), SpecFormatError, "list of [m, n] pairs"),
    "xi-terms-at-q-1": (lambda: xi_terms(canonical_pair_set(A2), 1, 10), PreconditionError, "q must be at least 2"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_each_refusal_names_what_it_refuses(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("argv, code, message", [
    (("abscissa", "--example", "foo"), 3, "error: unknown example 'foo'\n"),
])
def test_each_command_refusal_exits_with_its_code(capsys, argv, code, message):
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().err == message


def test_the_results_no_other_test_reads():
    assert mult_log(7) == math.log(7)  # a plain int
    assert S.__eq__(1) is NotImplemented and S != 1
    report = validate_pair_set(PairSet([(1, 4)]), A2)  # |Phi+| = 3 for A2
    assert not report.ok and report.violations == (((1, 4), "n <= |Phi+| violated: 4 > 3"),)
    diagonal = GroupSpec((DiagonalStratum(Fraction(2), ()),))
    assert prg_verdict(diagonal).witness_exponent == 2  # DiagonalStratum.count_exponent


def test_the_two_reprs():
    assert repr(S) == "DirichletSeries(N=10, exact, {1:1, 2:3})"
    assert repr(psl2_group(5)) == "ConcreteGroup(PSL2_5, order=60)"
