import itertools
import math
import random
import time
from bisect import bisect_left

import pytest

from repgrowth.char_tables import (
    DegreeTable,
    _iroot,
    _primes_to,
    _strong_probable_prime,
    a1_degrees,
    a1_term_columns,
    a1_terms,
    is_prime,
    min_nontrivial_degree,
    prime_power,
    primes_from,
    psl2_order,
    psl2_table,
    sl2_order,
    sl2_table,
    zeta_series,
)
from repgrowth.dirichlet import DirichletSeries, cumulative, evaluate
from repgrowth.errors import InvariantError, PreconditionError
from repgrowth.finite_groups import get_group
from repgrowth.invariants import cover_degree_check

PRIME_POWERS_4_81 = [q for q in range(4, 82) if prime_power(q) is not None]


def test_prime_power_recognition():
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(97) == (97, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert is_prime(7) and not is_prime(9)


def test_primes_from():
    it = primes_from(5)
    assert [next(it) for _ in range(5)] == [5, 7, 11, 13, 17]


def plain_primes_below(n):
    """Primes < n by trial division against the primes found so far."""
    out = []
    for m in range(2, n):
        if all(m % p for p in itertools.takewhile(lambda p: p * p <= m, out)):
            out.append(m)
    return out


ORACLE_PRIMES = plain_primes_below(100_001)  # every prime factor test below 10^10


def plain_prime_power(q):
    """(p, k) with q = p^k, or None, by trial division; q < 10^10."""
    if q < 2:
        return None
    for p in ORACLE_PRIMES:
        if p * p > q:
            return (q, 1)
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    raise AssertionError("oracle needs q < 10^10")


def test_prime_power_matches_trial_division_below_2e5():
    for q in range(-3, 200_001):
        assert prime_power(q) == plain_prime_power(q), q


def test_prime_power_matches_trial_division_on_random_q():
    rng = random.Random(5)
    for _ in range(20_000):
        q = rng.randrange(2, 10 ** 10)
        assert prime_power(q) == plain_prime_power(q), q


@pytest.mark.parametrize("p", [2, 3, 997, 1009, 1013, 65537, 1000003])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prime_power_of_small_and_large_primes(p, k):
    assert prime_power(p ** k) == (p, k)
    assert prime_power(p ** k * 1009 * 1013) is None


def test_prime_power_products_of_large_primes():
    assert prime_power(1009 * 1013) is None
    assert prime_power((1009 * 1013) ** 2) is None
    assert prime_power(1009 ** 2 * 1013) is None


def test_prime_power_beyond_trial_division():
    m61, m31, m89 = 2 ** 61 - 1, 2 ** 31 - 1, 2 ** 89 - 1
    assert prime_power(m61) == (m61, 1)
    assert prime_power(m61 ** 3) == (m61, 3)
    assert prime_power(m61 * m31) is None  # above the proof bound: composite is exact
    assert prime_power(m61 * m89) is None
    with pytest.raises(PreconditionError, match="cannot prove"):
        prime_power(m89)  # prime, but past the deterministic Miller-Rabin bound
    # the smallest strong pseudoprime to every base 2..41: passes, so refused
    with pytest.raises(PreconditionError, match="cannot prove"):
        prime_power(3_317_044_064_679_887_385_961_981)


# psi_k (OEIS A014233), the least strong pseudoprime to the first k prime
# bases 2, 3, 5, ..., 41: Miller-Rabin on those k bases is a proof below it
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


@pytest.mark.parametrize("k", range(1, 13))
def test_prime_power_refuses_each_base_count_edge(k):
    # psi_k passes the k bases that prove primality below it, so whatever
    # count of bases runs at psi_k has to reach the next base that fails it
    psi = PSI[k - 1]
    assert prime_power(psi) is None
    assert not _strong_probable_prime(psi)  # psi_1, psi_2, psi_4 have a factor < 1000
    assert prime_power(psi ** 2) is None


def test_prime_power_past_the_last_base_count_edge_cannot_prove():
    with pytest.raises(PreconditionError, match="cannot prove"):
        prime_power(PSI[12])
    with pytest.raises(PreconditionError, match="cannot prove"):
        prime_power(PSI[12] ** 3)


@pytest.mark.parametrize(
    "lo,hi",
    [
        (10 ** 6, 12 * 10 ** 5),
        (PSI[1] - 3000, PSI[1] + 3000),
        (PSI[2] - 3000, PSI[2] + 3000),
        (1999999999800, 2 * 10 ** 12 + 2),
    ],
)
def test_prime_power_agrees_with_the_sieve(lo, hi):
    # past 10^6 every prime takes the Miller-Rabin path; the windows at psi_2
    # and psi_3 hold primes on both sides of a change in the base count; the
    # last, the 9 primes of the zeta-sparse-primes pin, sieves by the primes
    # to about 1.4 * 10^6
    sieved = set(itertools.takewhile(lambda p: p < hi, primes_from(lo)))
    got = {n: prime_power(n) for n in range(lo, hi)}
    assert {n for n, pk in got.items() if pk == (n, 1)} == sieved
    assert all(pk is None or pk[0] ** pk[1] == n for n, pk in got.items())


def test_prime_power_with_an_exponent_past_the_small_primes():
    # 1009 is the first exponent the perfect-power loop takes from the sieve;
    # at 8981 bits it draws 1009 only to stop, past 997, the last it tries
    assert prime_power(1009 ** 1009) == (1009, 1009)
    assert prime_power(1009 ** 900) == (1009, 900)


def test_iroot_is_the_floor_root_up_to_14300_bits():
    rng = random.Random(27)
    cases = []
    for _ in range(400):
        k = rng.randint(2, 1601)
        r = rng.randint(2, 1 << max(1, 14300 // k))
        cases += [(rng.getrandbits(rng.randint(1, 14300)) or 1, k), (r ** k, k), (r ** k - 1, k)]
    for n, k in cases:
        x = _iroot(n, k)
        assert x ** k <= n < (x + 1) ** k, (n.bit_length(), k)


def test_prime_power_of_a_huge_mersenne_prime_is_refused_quickly():
    # 4423 bits with no factor below 1000: one root for each of the 94 prime
    # exponents up to 491, each started near the root, and one Miller-Rabin
    # base, since no count of bases proves anything past psi_13
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="cannot prove"):
        prime_power(2 ** 4423 - 1)
    assert time.perf_counter() - start < 1.0


def test_a_base_2_strong_pseudoprime_past_psi_13_is_refused():
    # 2^97 - 1 = 11447 * 13842607235828485645766393, like every composite
    # Mersenne number a strong pseudoprime to base 2, and past psi_13, where
    # base 2 alone runs: refused (exit 3), where base 3 would have shown it
    # composite
    q = 11447 * 13842607235828485645766393
    assert q == 2 ** 97 - 1 and q > PSI[12]
    with pytest.raises(PreconditionError, match="cannot prove"):
        prime_power(q)


@pytest.mark.parametrize("start", [0, 1, 2, 5, 63, 64, 65, 66, 127, 128, 129, 1000, 12345])
def test_primes_from_matches_trial_division(start):
    want = [p for p in ORACLE_PRIMES if p >= start][:3000]
    assert want[-1] < ORACLE_PRIMES[-1]
    assert list(itertools.islice(primes_from(start), 3000)) == want


def test_primes_from_matches_one_plain_sieve_across_its_base_sieves():
    # windows past hi = 10^6 cross off by the primes of a base sieve, formed
    # again at 4 * 10^6; from each start, the primes to 5 * 10^6 are those of
    # one sieve of that whole range
    n = 5 * 10 ** 6
    plain = _primes_to(n)
    assert len(plain) == 348513
    for start in (0, 999_000, 3_999_000):
        assert list(itertools.takewhile(n.__ge__, primes_from(start))) == plain[bisect_left(plain, start):]


def test_sl2_5_table_matches_brute_force_class_count():
    t = sl2_table(5)
    assert dict(t.degrees) == {1: 1, 5: 1, 6: 1, 4: 2, 3: 2, 2: 2}
    assert t.order == 120
    # oracle: conjugacy classes of explicit 2x2 matrices mod 5
    G = get_group("SL2_5")
    assert len(G.conjugacy_classes()) == 9
    assert t.num_characters() == 9


def test_sl2_4_table():
    t = sl2_table(4)
    assert dict(t.degrees) == {1: 1, 4: 1, 5: 1, 3: 2}
    assert t.order == 60


def test_sl2_7_mass():
    t = sl2_table(7)
    assert sum(m * d * d for d, m in t.degrees) == 336


def test_psl2_5_is_alt5():
    t = psl2_table(5)
    assert dict(t.degrees) == {1: 1, 5: 1, 3: 2, 4: 1}
    assert t.order == 60
    # oracle: A5 conjugacy classes by permutation enumeration
    assert len(get_group("A5").conjugacy_classes()) == 5
    assert t.num_characters() == 5


def test_psl2_4_and_psl2_5_give_the_same_multiset():
    # Alt(5) = PSL2(4) = PSL2(5): the even and odd formula paths must agree
    assert psl2_table(4).degrees == psl2_table(5).degrees


def test_psl2_7_table_and_class_count():
    t = psl2_table(7)
    assert dict(t.degrees) == {1: 1, 7: 1, 3: 2, 6: 1, 8: 1}
    assert t.order == 168
    assert len(get_group("PSL2_7").conjugacy_classes()) == 6
    assert t.num_characters() == 6


def test_psl2_13_mass():
    assert sum(m * d * d for d, m in psl2_table(13).degrees) == 1092


@pytest.mark.parametrize("q", PRIME_POWERS_4_81)
def test_mass_identity_all_desk_scale_q(q):
    # the constructors assert sum(mult * d^2) == order; exercise both
    assert sl2_table(q).order == sl2_order(q)
    assert psl2_table(q).order == psl2_order(q)


@pytest.mark.parametrize("q", PRIME_POWERS_4_81)
def test_character_counts_match_class_numbers(q):
    expected = q + 4 if q % 2 else q + 1
    assert sl2_table(q).num_characters() == expected


@pytest.mark.parametrize("q", PRIME_POWERS_4_81)
def test_cover_degree_check(q):
    assert cover_degree_check(q)


@pytest.mark.parametrize("q", PRIME_POWERS_4_81)
def test_min_degree_closed_forms(q):
    want = q - 1 if q % 2 == 0 else (q - 1) // 2
    assert min_nontrivial_degree(sl2_table(q)) == want


def test_cover_degree_examples():
    # q=5: 3 <= 2^2-1; q=9: 5 <= 4^2-1; q=4: identical tables
    assert min_nontrivial_degree(psl2_table(5)) == 3
    assert min_nontrivial_degree(sl2_table(5)) == 2
    assert min_nontrivial_degree(psl2_table(9)) == 5
    assert min_nontrivial_degree(sl2_table(9)) == 4


def test_small_q_rejected():
    for q in (2, 3):
        with pytest.raises(PreconditionError):
            sl2_table(q)
        with pytest.raises(PreconditionError):
            psl2_table(q)
    with pytest.raises(PreconditionError):
        sl2_table(6)


def test_zeta_series():
    assert dict(zeta_series(DegreeTable("Trivial", 1, ((1, 1),), 1), 10).items()) == {1: 1}
    assert dict(zeta_series(psl2_table(5), 4).items()) == {1: 1, 3: 2, 4: 1}
    full = zeta_series(sl2_table(5), 120)
    assert cumulative(full, 120) == 9
    want = {1: 0.0, 2: math.log(2), 3: math.log(2), 4: math.log(2)}
    assert zeta_series(sl2_table(5), 4, "log") == DirichletSeries(4, want, "log")
    with pytest.raises(PreconditionError, match="unknown backend"):
        zeta_series(sl2_table(5), 120, "bogus")


def test_sim2_grid_sanity():
    # zeta(SL2(q)) - 1 within factor 2^(1+sigma) of q^(1-sigma) on the grid
    for q in [q for q in PRIME_POWERS_4_81 if q >= 17]:
        s = DirichletSeries(q + 1, [(d, m) for d, m in sl2_table(q).degrees if d > 1])
        for sigma in (0.5, 1.0, 2.0, 4.0):
            f = evaluate(s, sigma)
            g = q ** (1 - sigma)
            c = 2 ** (1 + sigma)
            assert f <= c * g and g <= c * f


def test_large_q_tables_big_integers():
    q = 5 ** 12
    t = psl2_table(q)
    assert t.order == q * (q * q - 1) // 2
    assert min_nontrivial_degree(t) == (q + 1) // 2


def test_a1_degrees_branches_list_degrees_in_increasing_order():
    # a1_degrees does not sort: each of its four branches (even q, odd q
    # cover, q = 1 and q = 3 mod 4 simple) must list its degrees in order
    for q in range(4, 2001):
        if prime_power(q) is None:
            continue
        for simple in (False, True):
            degrees = [d for d, _ in a1_degrees(q, simple)]
            assert all(a < b for a, b in zip(degrees, degrees[1:])), (q, simple)


@pytest.mark.parametrize("simple", [False, True], ids=["cover", "simple"])
def test_a1_term_columns_are_a1_terms_by_family(simple):
    # column k, read at position i, is the k-th nontrivial family of
    # a1_terms(qs[i]), a multiplicity 0 kept (PSL2(5) at q + 1, and the
    # simple view's half family of the other residue); each family's
    # degrees increase strictly along the odd prime powers
    qs = [q for q in range(5, 3000, 2) if prime_power(q)]
    columns = list(a1_term_columns(qs, simple))
    for i, q in enumerate(qs):
        got = sorted((ds[i], ms[i]) for ds, ms in columns if ms[i])
        assert got == sorted((d, m) for d, m in a1_terms(q, simple)[1:] if m), q
    for ds, _ in columns:
        assert all(a < b for a, b in zip(ds, ds[1:]))


@pytest.mark.parametrize("q", [2, 3])
def test_a1_degrees_guard_rejects_the_excluded_fields(q):
    # no prime-power check, but the single-linear-character guard still runs
    for simple in (False, True):
        with pytest.raises(InvariantError, match="one linear character"):
            a1_degrees(q, simple)


def test_degree_table_counts_every_linear_character():
    with pytest.raises(InvariantError, match="one linear character"):
        DegreeTable("S3", 2, ((1, 1), (1, 1), (2, 1)), 6)



def _a1_branch(q, simple):
    if q % 2 == 0:
        return "even q"
    if not simple:
        return "odd q cover"
    return "simple, q = 1 mod 4" if q % 4 == 1 else "simple, q = 3 mod 4"


def test_a1_degrees_mass_identity_holds_on_every_branch():
    # a1_degrees sums no mass per call: on each branch both sides of
    # sum(m * d^2) = |G| are polynomials in q of degree <= 3, so agreement
    # at four q of the branch proves it for every q; here every prime power
    # 4 <= q <= 2000 is checked, in both views
    seen = {}
    for q in range(4, 2001):
        if prime_power(q) is None:
            continue
        for simple in (False, True):
            degrees = a1_degrees(q, simple)
            order = psl2_order(q) if simple else sl2_order(q)
            assert sum(m * d * d for d, m in degrees) == order, (q, simple)
            assert [m for d, m in degrees if d == 1] == [1], (q, simple)
            seen.setdefault(_a1_branch(q, simple), set()).add(q)
    assert len(seen) == 4
    assert all(len(qs) >= 4 for qs in seen.values()), seen.keys()
