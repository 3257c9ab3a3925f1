"""The invariant suite, shared by `repgrowth check` (one line per check of
`suite()`) and the acceptance tests (the same checks, more random cases).
Each check returns True when every case holds."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Iterable, Iterator, Tuple

from . import growth
from .char_tables import (
    cover_degree_check,
    min_nontrivial_degree,
    prime_power,
    psl2_table,
    sl2_table,
)
from .constructor import build_fixed_type, make_schedule, prec_less
from .dirichlet import EXACT, DirichletSeries, convolve, power_one_plus
from .lie_data import A1, LieType, rho0

FIELD_SIZES = [q for q in range(4, 82) if prime_power(q)]
_POWER_BASE = {1: 1, 2: 1, 3: 2, 5: 1}


def character_tables(qs: Iterable[int]) -> Iterator[Tuple[str, bool]]:
    """Class number, cover degrees and minimal degree of SL2(q); building the
    tables asserts their mass identities."""
    for q in qs:
        sl2 = sl2_table(q)
        psl2_table(q)
        expect = q + 4 if q % 2 else q + 1
        yield f"SL2({q}) class number {expect}", sl2.num_characters() == expect
        yield f"cover degree check q={q}", cover_degree_check(q)
        want = q - 1 if q % 2 == 0 else (q - 1) // 2
        yield f"SL2({q}) minimal degree closed form", min_nontrivial_degree(sl2) == want


def _random_series(rng: random.Random, N: int = 40) -> DirichletSeries:
    entries = {}
    for _ in range(rng.randint(1, 8)):
        entries[rng.randint(1, N)] = rng.randint(1, 50)
    return DirichletSeries(N, entries)


def convolution_algebra(rng: random.Random, cases: int) -> bool:
    """Convolution is associative and commutative."""
    ok = True
    for _ in range(cases):
        a, b, c = _random_series(rng), _random_series(rng), _random_series(rng)
        ok &= convolve(convolve(a, b, 40), c, 40) == convolve(a, convolve(b, c, 40), 40)
        ok &= convolve(a, b, 40) == convolve(b, a, 40)
    return ok


def power_additivity(rng: random.Random, cases: int) -> bool:
    """(1+x)^(m1+m2) = (1+x)^m1 * (1+x)^m2."""
    base = DirichletSeries(64, _POWER_BASE)
    ok = True
    for _ in range(cases):
        m1, m2 = rng.randint(1, 40), rng.randint(1, 40)
        lhs = power_one_plus(base, m1 + m2, 64)
        rhs = convolve(power_one_plus(base, m1, 64), power_one_plus(base, m2, 64), 64)
        ok &= lhs == rhs
    return ok


def backend_agreement(rng: random.Random, cases: int) -> bool:
    """The log backend has the exact backend's dimensions and its counts
    within relative 1e-9, for powers M <= 10^6."""
    base = DirichletSeries(64, _POWER_BASE)
    ok = True
    for _ in range(cases):
        M = rng.randint(2, 10 ** 6)
        exact = power_one_plus(base, M, 64)
        logd = power_one_plus(base.to_log(), M, 64)
        ok &= logd.dims == exact.dims
        for d, m in exact.items():
            ok &= abs(math.exp(logd.mult_at(d)) - m) / m < 1e-9
    return ok


def order_axioms(rng: random.Random, cases: int) -> bool:
    """prec_less is a strict total order on random pair sets."""
    ok = True
    for _ in range(cases):
        pairs = [(rng.randint(0, 6), rng.randint(1, 8)) for _ in range(rng.randint(2, 6))]
        rho = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        less = {(a, b): prec_less(a, b, rho) for a, b in product(pairs, repeat=2)}
        ok &= not any(less[a, a] for a in pairs)  # irreflexive
        ok &= all(less[a, b] != less[b, a] for a, b in less if a != b)  # total, asymmetric
        ok &= all(less[a, c] for a, b, c in product(pairs, repeat=3) if less[a, b] and less[b, c])
    return ok


def schedule_nonnegativity() -> bool:
    """f(j) >= 0 for j <= 10^4 on three schedules."""
    schedules = [
        make_schedule(Fraction(2), A1),
        make_schedule(Fraction(3, 2), LieType("A", 2)),
        make_schedule(Fraction(1, 15) + Fraction(1, 100), LieType("E8")),
    ]
    return all(s.f(j) >= 0 for s in schedules for j in range(1, 10 ** 4 + 1))


def fixed_type_postcondition(rng: random.Random, cases: int) -> bool:
    """A fixed-type tower built for rho has exact abscissa rho."""
    families = [LieType("A", r) for r in (1, 2, 3)] + [LieType("B", 2), LieType("G2")]
    ok = True
    for _ in range(cases):
        t = rng.choice(families)
        rho = rho0(t) + Fraction(rng.randint(1, 20), 4)
        spec = build_fixed_type(rho, t, rng.choice([5, 7, 11]))
        ok &= growth.exact_abscissa(spec).abscissa == rho
    return ok


def union_factorization(rng: random.Random, cases: int) -> bool:
    """On the exact backend the series of a union of strata is the convolve
    of the strata's own series (what build_diagonal's memo rests on): two
    fixed-type towers over q in {5, 7}, a finite stratum and, at a dense
    N <= 2000, the prime stratum; at the sparse N = 2^200 the towers and
    the finite stratum, as the prime stratum has no sparse truncation."""
    types = [LieType("A", 2), LieType("A", 3), LieType("B", 2), LieType("G2")]
    ok = True
    for _ in range(cases):
        towers = [
            build_fixed_type(rho0(t) + Fraction(rng.randint(1, 8), 4), t, rng.choice([5, 7]))
            .strata[0]
            .with_simple(rng.random() < 0.5)
            for t in rng.sample(types, 2)
        ]
        factor = growth.FactorSpec(A1, rng.choice([4, 5, 7, 8, 9]), rng.random() < 0.5, 2)
        finite = growth.FiniteStratum((factor,))
        primes = growth.PrimeStratum(5, 1, simple=rng.random() < 0.5)
        for N, strata in (
            (rng.randint(500, 2000), towers + [primes, finite]),
            (2 ** 200, towers + [finite]),
        ):
            whole = growth.truncated_zeta(growth.GroupSpec(tuple(strata)), N, backend=EXACT)
            parts = (
                growth.truncated_zeta(growth.GroupSpec((s,)), N, backend=EXACT) for s in strata
            )
            ok &= whole == reduce(lambda a, b: convolve(a, b, N), parts)
    return ok


def suite() -> Iterator[Tuple[str, bool]]:
    """The named checks of `repgrowth check`, in order, with fixed seeds."""
    yield from character_tables(FIELD_SIZES)
    rng = random.Random(7)
    name = "convolution associative and commutative (100 random cases)"
    yield name, convolution_algebra(rng, 100)
    yield "power additivity (50 random cases)", power_additivity(rng, 50)
    yield "exact vs log backend agreement within 1e-9 (M <= 1e6)", backend_agreement(rng, 20)
    yield "schedule order axioms (200 random pair sets)", order_axioms(random.Random(11), 200)
    yield "schedule nonnegativity f(j) >= 0 for j <= 10^4", schedule_nonnegativity()
    name = "fixed-type construction postcondition (10 random triples)"
    yield name, fixed_type_postcondition(random.Random(13), 10)
    name = "union series = convolve of per-stratum series, N <= 2000 and 2^200 (4 cases)"
    yield name, union_factorization(random.Random(17), 4)
    yield "SL2-over-primes family abscissa 3d-4", all(
        growth.exact_abscissa(growth.sl2_over_primes_spec(d)).abscissa == 3 * d - 4
        for d in (3, 4, 5)
    )
