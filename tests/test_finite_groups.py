import functools
import itertools
import random
import time
from collections import Counter, deque

import pytest

from repgrowth.errors import InvariantError, PreconditionError
from repgrowth.finite_groups import (
    AUT_ORDER_LIMIT,
    ConcreteGroup,
    _compose,
    _elements,
    _mat_mul,
    _psl2_canon,
    _randrange_draws,
    alternating_group_5,
    automorphism_count,
    counts_jsonable,
    cyclic_group,
    generating_tuple_count,
    get_group,
    min_generators_power,
    permutation_group,
    psl2_group,
    sl2_group,
)

S3_GENS = [(1, 0, 2), (0, 2, 1)]


def bfs_closure(G, gens):
    """Oracle: breadth-first search over right multiplication by gens,
    sharing no code with ConcreteGroup.closure."""
    seen = {G.identity}
    queue = [G.identity]
    for x in queue:
        for g in gens:
            y = G.table[x][g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def naive_pair_count(G):
    """Oracle: closure of every ordered pair, no caching tricks."""
    return sum(
        1
        for x in range(G.order)
        for y in range(G.order)
        if len(bfs_closure(G, (x, y))) == G.order
    )


def test_cyclic_basics():
    C2 = get_group("C2")
    assert generating_tuple_count(C2, 1) == 1
    C3 = get_group("C3")
    assert generating_tuple_count(C3, 1) == 2
    assert automorphism_count(C3) == 2


def test_a5_not_cyclic():
    assert generating_tuple_count(get_group("A5"), 1) == 0


def test_phi2_a5_vs_naive_oracle():
    A5 = get_group("A5")
    phi2 = generating_tuple_count(A5, 2)
    assert phi2 == naive_pair_count(A5)
    # Aut acts freely on generating pairs
    assert phi2 % automorphism_count(A5) == 0


def test_phi2_c3_vs_naive_oracle():
    C3 = get_group("C3")
    assert generating_tuple_count(C3, 2) == naive_pair_count(C3)


def test_phi_monotone_and_bounded():
    A5 = get_group("A5")
    phi2 = generating_tuple_count(A5, 2)
    phi3 = generating_tuple_count(A5, 3)
    assert phi2 <= phi3 <= 60 ** 3
    assert phi2 <= 60 ** 2


def test_aut_a5():
    # |Aut(A5)| = 120 (= |S5|), recovered by exhaustive extension counting
    assert automorphism_count(get_group("A5")) == 120


def test_aut_psl2_7():
    P = get_group("PSL2_7")
    aut = automorphism_count(P)
    assert aut == 336
    assert aut == 2 * P.order
    assert generating_tuple_count(P, 2) % aut == 0


def test_min_generators_transition_a5():
    A5 = get_group("A5")
    k_star = generating_tuple_count(A5, 2) // automorphism_count(A5)
    assert k_star == 19
    assert min_generators_power(A5, 1) == 2
    assert min_generators_power(A5, k_star) == 2
    assert min_generators_power(A5, k_star + 1) == 3


def test_wiegold_b_plus_2_at_desk_scale():
    # d(A5^(60^1)) = 1 + 2
    assert min_generators_power(get_group("A5"), 60) == 3


def test_min_generators_monotone_in_k():
    A5 = get_group("A5")
    values = [min_generators_power(A5, k) for k in (1, 10, 19, 20, 60, 1000)]
    assert values == sorted(values)


def test_min_generators_rejects_non_simple():
    with pytest.raises(PreconditionError):
        min_generators_power(get_group("SL2_5"), 2)  # has a center
    with pytest.raises(PreconditionError):
        min_generators_power(get_group("C3"), 2)  # abelian


def test_simplicity_detection():
    assert get_group("A5").is_nonabelian_simple()
    assert get_group("PSL2_7").is_nonabelian_simple()
    assert not get_group("SL2_5").is_nonabelian_simple()
    assert not get_group("C3").is_nonabelian_simple()


def hall_phi_a5(d):
    """Oracle: P. Hall's closed form of phi_d(A5), a Moebius sum over its
    subgroup lattice."""
    return 60 ** d - 5 * 12 ** d - 6 * 10 ** d - 10 * 6 ** d + 20 * 3 ** d + 60 * 2 ** d - 60


def test_phi_a5_is_halls_polynomial():
    A5 = alternating_group_5()
    assert [generating_tuple_count(A5, d) for d in range(1, 61)] == [
        hall_phi_a5(d) for d in range(1, 61)
    ]


def test_phi_for_a_smaller_d_after_a_larger_one():
    G = psl2_group(7)
    assert generating_tuple_count(G, 4) == 790518960
    assert generating_tuple_count(G, 2) == 19152


def test_huge_k_certified_beyond_enumeration():
    # Wiegold's b+2 at b = 10
    assert min_generators_power(get_group("A5"), 60 ** 10) == 12


def test_min_generators_power_past_the_old_budget():
    # 6,450,000 lies in (phi_4/|Aut|, phi_5/|Aut|] = (106549, 6464040]
    A5 = alternating_group_5()
    ks = (6450000, 10 ** 7, 10 ** 8 + 1, 10 ** 9 + 7, 60 ** 10)
    assert [min_generators_power(A5, k) for k in ks] == [5, 6, 6, 7, 12]


@pytest.mark.parametrize("make, d", [(alternating_group_5, 2419), (lambda: psl2_group(7), 1934)])
def test_largest_k_the_cli_parses_takes_bounded_time(make, d):
    # 10^4299 is below 10^4300, the smallest int argparse cannot read
    G = make()
    start = time.perf_counter()
    assert min_generators_power(G, 10 ** 4299) == d
    assert time.perf_counter() - start < 30


def test_unknown_group_id():
    with pytest.raises(PreconditionError):
        get_group("M11")


def test_counts_jsonable():
    out = counts_jsonable(get_group("C3"), [1, 2])
    assert out == {"group": "C3", "phi": {"1": 2, "2": 8}, "aut": 2}


def test_sl2_5_center_and_order():
    G = get_group("SL2_5")
    assert G.order == 120
    # -I is central: conjugacy class of size 1 besides the identity
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes[0] == 1 and sizes[1] == 1


def test_custom_permutation_group_guard():
    with pytest.raises(PreconditionError):
        permutation_group("big", [tuple(range(1, 9)) + (0,)])  # 9 points
    S3 = permutation_group("S3", S3_GENS)
    assert S3.order == 6
    assert automorphism_count(S3) == 6
    assert generating_tuple_count(S3, 2) == naive_pair_count(S3)


@pytest.mark.parametrize(
    "G", [permutation_group("S3", S3_GENS), alternating_group_5()], ids=["S3", "A5"]
)
def test_closure_matches_bfs_on_every_pair(G):
    for x in range(G.order):
        for y in range(G.order):
            assert G.closure((x, y)) == bfs_closure(G, (x, y))


def test_closure_matches_bfs_on_random_psl2_7_tuples():
    G = psl2_group(7)
    rng = random.Random(7)
    tuples = [
        tuple(rng.randrange(G.order) for _ in range(k)) for k in (1, 2, 3) for _ in range(150)
    ]
    # tuples drawn inside proper subgroups, so that closures stop short of G
    subgroups = {bfs_closure(G, t) for t in tuples} - {frozenset(range(G.order))}
    for H in sorted(subgroups, key=sorted):
        elems = sorted(H)
        tuples += [tuple(rng.choice(elems) for _ in range(k)) for k in (2, 3)]
    proper = 0
    for t in tuples:
        want = bfs_closure(G, t)
        assert G.closure(t) == want
        proper += len(want) < G.order
    assert proper > 100


def test_phi3_sl2_3_vs_brute_force():
    G = sl2_group(3)
    assert G.order == 24
    brute = sum(
        1
        for t in itertools.product(range(G.order), repeat=3)
        if len(bfs_closure(G, t)) == G.order
    )
    assert generating_tuple_count(G, 3) == brute


@pytest.mark.parametrize(
    "make, phi2, phi3, aut",
    [
        (lambda: sl2_group(5), 9120, 1601280, 120),
        # phi_2(PSL2(7)) = 57 * 336: Hall's count of generating pairs
        (lambda: psl2_group(7), 19152, 4491648, 336),
    ],
    ids=["SL2_5", "PSL2_7"],
)
def test_counts_frozen(make, phi2, phi3, aut):
    G = make()
    assert counts_jsonable(G, [2, 3]) == {
        "group": G.name,
        "phi": {"2": phi2, "3": phi3},
        "aut": aut,
    }


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_psl2_canon_is_min_of_m_and_minus_m(p):
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p != 1:
            continue
        m = ((a, b), (c, d))
        neg = (((-a) % p, (-b) % p), ((-c) % p, (-d) % p))
        assert _psl2_canon(m, p) == min(m, neg)


def _sl2(p):
    return (
        ((1, 0), (0, 1)),
        [((1, 1), (0, 1)), ((0, p - 1), (1, 0))],
        lambda a, b: _mat_mul(a, b, p),
        lambda: sl2_group(p),
    )


def _psl2(p):
    def canon(m):
        return _psl2_canon(m, p)

    return (
        canon(((1, 0), (0, 1))),
        [canon(((1, 1), (0, 1))), canon(((0, p - 1), (1, 0)))],
        lambda a, b: canon(_mat_mul(a, b, p)),
        lambda: psl2_group(p),
    )


@pytest.mark.parametrize(
    "kind,p",
    [(k, p) for k in ("SL2", "PSL2") for p in (2, 3, 5, 7, 11, 13) if (k, p) != ("SL2", 13)],
)
def test_matrix_groups_match_the_per_group_builders(kind, p):
    """The shared matrix builder against ConcreteGroup on the identity,
    generators and mul that sl2_group and psl2_group each used to pass;
    |Aut| against |PGL2(p)| (S3 and S4 for p = 2, 3), and simplicity against
    the pairwise commutation test it replaced."""
    identity, gens, mul, make = (_sl2 if kind == "SL2" else _psl2)(p)
    old = ConcreteGroup(f"{kind}_{p}", identity, gens, mul)
    G = make()
    assert (G.name, G.order, G.table, G.inverse) == (old.name, old.order, old.table, old.inverse)
    if G.order <= AUT_ORDER_LIMIT:
        assert automorphism_count(G) == {2: 6, 3: 24}.get(p, p * (p * p - 1))
    t = G.table
    abelian = all(t[a][b] == t[b][a] for a in range(G.order) for b in range(a))
    simple = not abelian and all(
        len(G.closure(tuple(c))) == G.order for c in G.conjugacy_classes() if c != {G.identity}
    )
    assert G.is_nonabelian_simple() == simple == (kind == "PSL2" and p >= 5)


# name: (identity, generators, multiplication, public constructor)
BUILDS = {
    "A5": (tuple(range(5)), [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], _compose, alternating_group_5),
    "C2": ((0, 1), [(1, 0)], _compose, lambda: cyclic_group(2)),
    "C3": ((0, 1, 2), [(1, 2, 0)], _compose, lambda: cyclic_group(3)),
    "S3": ((0, 1, 2), S3_GENS, _compose, lambda: permutation_group("S3", S3_GENS)),
    "SL2_3": _sl2(3),
    "SL2_5": _sl2(5),
    "SL2_7": _sl2(7),
    "PSL2_5": _psl2(5),
    "PSL2_7": _psl2(7),
    "PSL2_11": _psl2(11),
}


def plain_bfs(identity, gens, mul):
    """Oracle: the elements in the order a FIFO queue from the identity
    reaches them, right-multiplying by each generator in turn."""
    elements, seen, queue = [identity], {identity}, deque([identity])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
                queue.append(y)
    return elements


@functools.lru_cache(maxsize=None)
def n2_oracle(name):
    """Oracle: table, inverse and identity index from mul on all n^2 pairs
    of the plain-BFS elements, the way the table was once built."""
    identity, gens, mul, _ = BUILDS[name]
    elements = plain_bfs(identity, gens, mul)
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mul(x, y)] for y in elements] for x in elements]
    e = index[identity]
    return table, [row.index(e) for row in table], e


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_shared_element_builder_is_a_plain_bfs(name):
    identity, gens, mul, build = BUILDS[name]
    want = plain_bfs(identity, gens, mul)
    elements, right, first = _elements(identity, gens, mul)
    assert elements == want
    index = {e: i for i, e in enumerate(want)}
    assert right == [[index[mul(x, g)] for x in want] for g in gens]
    assert all(want[j] == mul(want[i], gens[k]) and i < j for j, (i, k) in enumerate(first, 1))
    # the constructors index the elements in that order
    assert build().table == n2_oracle(name)[0]


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_table_from_generator_columns_matches_the_n2_oracle(name):
    identity, gens, mul, _ = BUILDS[name]
    G = ConcreteGroup(name, identity, gens, mul)
    assert (G.table, G.inverse, G.identity) == n2_oracle(name)


@pytest.mark.parametrize("name", ["C2", "S3", "A5", "SL2_5", "PSL2_7"])
def test_wrong_identity_fails_the_mul_spot_check(name):
    # searched from a generator, the same elements come out, and the table
    # is that of a group, but not of mul
    _, gens, mul, _ = BUILDS[name]
    with pytest.raises(InvariantError, match="mul disagrees with the table"):
        ConcreteGroup(name, gens[0], gens, mul)


@pytest.mark.parametrize("name", ["S3", "A5", "PSL2_7"])
def test_mul_swapped_at_involutions_fails_the_mul_spot_check(name):
    identity, gens, mul, _ = BUILDS[name]

    def swapped(x, y):  # y*x whenever x is an involution
        return mul(y, x) if x != identity and mul(x, x) == identity else mul(x, y)

    with pytest.raises(InvariantError, match="mul disagrees with the table"):
        ConcreteGroup(name, identity, gens, swapped)


def test_mul_right_only_on_the_generators_fails_the_mul_spot_check():
    # the search multiplies by generators only; the other products are
    # 6-tuples, not elements, which only the spot check sees
    identity, gens, mul, _ = BUILDS["A5"]

    def partial(x, y):
        return mul(x, y) if y in gens else mul(x, y) + (5,)

    with pytest.raises(InvariantError, match="mul disagrees with the table"):
        ConcreteGroup("A5", identity, gens, partial)


def test_element_builder_stops_at_the_order_limit():
    with pytest.raises(PreconditionError, match="order limit"):
        sl2_group(13)  # order 2184 > ORDER_LIMIT


def coset_free_phi(G, d):
    """Oracle: phi_d(G) by c(<gens>, r) = sum over every z in G of
    c(<gens, z>, r - 1), memoized on the subgroup that bfs_closure returns;
    no coset representatives and no conjugacy classes."""
    whole = frozenset(range(G.order))
    memo = {}

    def count(gens, r):
        H = bfs_closure(G, gens)
        if r == 0:
            return int(H == whole)
        if (H, r) not in memo:
            memo[H, r] = sum(
                count(gens, r - 1) if z in H else count(gens + (z,), r - 1)
                for z in range(G.order)
            )
        return memo[H, r]

    return count((), d)


ORACLE_GROUPS = {
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "S3": lambda: permutation_group("S3", S3_GENS),
    "SL2_3": lambda: sl2_group(3),
    "A5": alternating_group_5,
    "SL2_5": lambda: sl2_group(5),
    "PSL2_5": lambda: psl2_group(5),
    "PSL2_7": lambda: psl2_group(7),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_phi_matches_the_coset_free_oracle(name):
    G = ORACLE_GROUPS[name]()
    for d in (1, 2, 3, 4):
        assert generating_tuple_count(G, d) == coset_free_phi(G, d)


@pytest.mark.parametrize(
    "make, classes, subgroups",
    [(alternating_group_5, 9, 59), (lambda: sl2_group(5), 12, 76), (lambda: psl2_group(7), 15, 179)],
    ids=["A5", "SL2_5", "PSL2_7"],
)
def test_registry_holds_one_entry_per_conjugacy_class(make, classes, subgroups):
    G = make()
    generating_tuple_count(G, 3)
    assert len(G._sub_sets) == classes
    # every subgroup is reached (all of them are 2-generated) and filed
    # under its class
    assert len(G._sub_index) == subgroups
    t, inv = G.table, G.inverse
    for sid, H in enumerate(G._sub_sets):
        for g in range(G.order):
            assert G._sub_index[frozenset(t[t[g][h]][inv[g]] for h in H)] == sid
    assert sorted(set(G._sub_index.values())) == list(range(classes))


def coset_orbit(G, H, z):
    """Oracle: the right cosets of H reached from Hz by z -> zh for every h
    in H and z -> gzg^-1 for every g in the normalizer of H, each coset as
    a frozenset."""
    t, inv = G.table, G.inverse
    normalizer = [g for g in range(G.order) if frozenset(t[t[g][h]][inv[g]] for h in H) == H]
    start = frozenset(t[h][z] for h in H)
    orbit, queue = {start}, [start]
    for coset in queue:
        y = min(coset)
        for w in [t[y][h] for h in H] + [t[t[g][y]][inv[g]] for g in normalizer]:
            image = frozenset(t[h][w] for h in H)
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    return orbit


def per_coset_classes(G, sid):
    """Reference: the class graph before orbits, the class of <H, z> for
    the least z of every right coset Hz != H, by closing each one."""
    H = G._sub_sets[sid]
    cosets = {frozenset(G.table[h][z] for h in H) for z in range(G.order)} - {H}
    return {c: G._sub_index[bfs_closure(G, tuple(H) + (min(c),))] for c in cosets}


def orbit_count(G, H):
    """Oracle: the number of orbits of the right cosets Hz != H under the
    moves of coset_orbit."""
    cosets = {frozenset(G.table[h][z] for h in H) for z in range(G.order)} - {H}
    count = 0
    while cosets:
        cosets -= coset_orbit(G, H, min(map(min, cosets)))
        count += 1
    return count


@pytest.mark.parametrize("name", ["A5", "S3", "SL2_3", "SL2_5", "PSL2_5", "PSL2_7"])
def test_coset_orbits_keep_the_class_of_every_coset(name):
    G = ORACLE_GROUPS[name]()
    generating_tuple_count(G, 1)
    for sid, H in enumerate(G._sub_sets):
        edges = G._sub_edges[sid]
        assert sum(edges.values()) == G.order // len(H) - 1
        assert edges == Counter(per_coset_classes(G, sid).values())


@pytest.mark.parametrize(
    "make, orbits, conjugators",
    [(alternating_group_5, 28, 6), (lambda: sl2_group(5), 50, 12), (lambda: psl2_group(7), 71, 13)],
    ids=["A5", "SL2_5", "PSL2_7"],
)
def test_class_graph_closes_one_coset_per_orbit(make, orbits, conjugators, monkeypatch):
    G = make()
    calls = []
    closure = ConcreteGroup.closure

    def counted(self, gens):
        calls.append(gens)
        return closure(self, gens)

    monkeypatch.setattr(ConcreteGroup, "closure", counted)
    generating_tuple_count(G, 2)
    monkeypatch.undo()
    # one closure per orbit, and one per greedy generator of N_G(H) over
    # H; each of those at least doubles the subgroup it extends
    assert sum(orbit_count(G, H) for H in G._sub_sets) == orbits
    assert len(calls) == orbits + conjugators
    t, inv = G.table, G.inverse
    bound = 0
    for H in G._sub_sets:
        normalizer = [g for g in range(G.order) if frozenset(t[t[g][h]][inv[g]] for h in H) == H]
        bound += (len(normalizer) // len(H)).bit_length() - 1
    assert conjugators <= bound


def random_permutation_group(seed):
    """A seeded random permutation group on 4 to 6 points, generated by 1
    to 3 random permutations, drawn again until its order is at most 120."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(4, 6)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        G = permutation_group(f"R{seed}", gens)
        if G.order <= 120:
            return G


@pytest.mark.parametrize("seed", range(10))
def test_phi_matches_the_coset_free_oracle_on_random_permutation_groups(seed):
    G = random_permutation_group(seed)
    for d in (1, 2, 3):
        assert generating_tuple_count(G, d) == coset_free_phi(G, d)


# phi_2 and phi_3 where coset_free_phi takes too long, as the per-coset
# class graph computed them
@pytest.mark.parametrize(
    "make, phi2, phi3",
    [
        (lambda: sl2_group(7), 76608, 35933184),
        (lambda: psl2_group(11), 335280, 280874880),
        (lambda: psl2_group(13), 1081080, 1295068320),
    ],
    ids=["SL2_7", "PSL2_11", "PSL2_13"],
)
def test_phi_pinned_past_the_coset_free_oracle(make, phi2, phi3):
    G = make()
    assert (generating_tuple_count(G, 2), generating_tuple_count(G, 3)) == (phi2, phi3)


@pytest.mark.parametrize("n", [2, 3, 60, 120, 168, 336, 660, 1092])
def test_spot_check_draws_are_the_randrange_draws(n):
    rng = random.Random(0)
    assert _randrange_draws(random.Random(0), n, 3000) == [rng.randrange(n) for _ in range(3000)]


def brute_aut(G):
    """Oracle: |Aut G| from every image pair (x, y) of a generating pair,
    without the conjugacy-class shortcut or any order test."""
    a, b = next(
        (a, b)
        for a in range(G.order)
        for b in range(G.order)
        if len(bfs_closure(G, (a, b))) == G.order
    )
    words = {G.identity: ()}
    queue = [G.identity]
    for h in queue:
        for i, g in enumerate((a, b)):
            k = G.table[h][g]
            if k not in words:
                words[k] = words[h] + (i,)
                queue.append(k)
    count = 0
    for x in range(G.order):
        for y in range(G.order):
            phi = {}
            for h, word in words.items():
                v = G.identity
                for i in word:
                    v = G.table[v][(x, y)[i]]
                phi[h] = v
            hom = all(
                phi[G.table[h][k]] == G.table[phi[h]][phi[k]]
                for h in range(G.order)
                for k in (a, b)
            )
            count += hom and len(set(phi.values())) == G.order
    return count


@pytest.mark.parametrize(
    "make, aut",
    [(lambda: permutation_group("S3", S3_GENS), 6), (lambda: sl2_group(3), 24), (alternating_group_5, 120)],
    ids=["S3", "SL2_3", "A5"],
)
def test_automorphism_count_matches_brute_force(make, aut):
    G = make()
    assert automorphism_count(G) == brute_aut(G) == aut


# d(G^k) at both ends of the k ranges where the answer is 3 and where it is 4:
# (phi_2/|Aut|, phi_3/|Aut|] and (phi_3/|Aut|, 2 phi_3/|Aut|]
@pytest.mark.parametrize(
    "make, k, d",
    [
        (alternating_group_5, 20, 3),
        (alternating_group_5, 1668, 3),
        (alternating_group_5, 1669, 4),
        (alternating_group_5, 3336, 4),
        (lambda: psl2_group(7), 58, 3),
        (lambda: psl2_group(7), 13368, 3),
        (lambda: psl2_group(7), 13369, 4),
        (lambda: psl2_group(7), 26736, 4),
    ],
)
def test_min_generators_power_at_the_range_ends(make, k, d):
    assert min_generators_power(make(), k) == d
