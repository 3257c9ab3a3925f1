"""Exhaustive oracles on tiny concrete groups: generating-tuple counts
(Eulerian functions), automorphism counts by homomorphism extension, and
the minimal generator number of cartesian powers of a simple group.

Everything here is exact enumeration by design: the statements being
verified are exact, so exact verification beats sampling.
"""
from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, InvariantError, PreconditionError

ORDER_LIMIT = 2000
TUPLE_BUDGET = 10 ** 8
AUT_ORDER_LIMIT = 400


def _compose(p1: tuple, p2: tuple) -> tuple:
    # (p1*p2)(i) = p1(p2(i))
    return tuple(p1[p2[i]] for i in range(len(p1)))


def _mat_mul(a: tuple, b: tuple, p: int) -> tuple:
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        ((a11 * b11 + a12 * b21) % p, (a11 * b12 + a12 * b22) % p),
        ((a21 * b11 + a22 * b21) % p, (a21 * b12 + a22 * b22) % p),
    )


class ConcreteGroup:
    """A finite group as an explicit multiplication table over element
    indices, built from its identity, generators and mul; immutable after
    construction and safe to share.

    The right-regular action of the generators fills the table (Cayley's
    theorem) with n * |gens| mul calls: _elements first reaches each
    element y other than the identity as y = x * g, so the column of right
    multiplication by y is g's index map applied to x's column.  A seeded
    spot check then compares mul with the table on 1000 random pairs, and
    tests associativity on 1000 random triples."""

    def __init__(self, name: str, identity, gens: Sequence, mul):
        elements, right, first = _elements(identity, gens, mul)
        self.name = name
        self.order = n = len(elements)
        self.identity = 0
        cols = [range(n)]
        for x, g in first:
            cols.append(list(map(right[g].__getitem__, cols[x])))
        self.table: List[List[int]] = list(map(list, zip(*cols)))
        self._spot_check(elements, mul)
        self.inverse: List[int] = [row.index(0) for row in self.table]
        self._whole: FrozenSet[int] = frozenset(range(n))
        # caches shared across the counting operations; the subgroup
        # registry maps every subgroup reached to its conjugacy class index
        self._sub_index: Dict[FrozenSet[int], int] = {}
        self._sub_sets: List[FrozenSet[int]] = []
        self._sub_gens: List[Tuple[int, ...]] = []
        self._sub_reps: List[Tuple[int, ...]] = []
        self._extend_cache: Dict[Tuple[int, int], int] = {}
        self._count_cache: Dict[Tuple[int, int], int] = {}
        self._aut_cache: Optional[int] = None
        self._simple_cache: Optional[bool] = None

    def _spot_check(self, elements: List, mul) -> None:
        # mul against the table on random pairs (a product that is not an
        # element fails too), and associativity on random triples
        rng = random.Random(0)
        n = self.order
        t = self.table
        index = {e: i for i, e in enumerate(elements)}
        for _ in range(1000):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if index.get(mul(elements[a], elements[b])) != t[a][b]:
                raise InvariantError(f"{self.name}: mul disagrees with the table")
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise InvariantError("multiplication table is not associative")

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def closure(self, gens: Sequence[int]) -> FrozenSet[int]:
        """Subgroup generated by gens, by Dimino's algorithm: each new
        generator g outside the subgroup H built so far adds the right coset
        Hg, and right multiplication of the coset representatives by the
        generators finds the remaining cosets of H in <H, g>.  Finite groups
        need no explicit inverses (inverse = power).  Once more than |G|/2
        elements are found the subgroup is G, by Lagrange."""
        t = self.table
        n = self.order
        seen = {self.identity}
        used: List[int] = []
        for g in gens:
            if g in seen:
                continue
            used.append(g)
            sub = list(seen)
            reps = [g]
            for r in reps:
                if r not in seen:
                    seen.update([t[h][r] for h in sub])
                    if 2 * len(seen) > n:
                        return self._whole
                    tr = t[r]
                    reps += [tr[s] for s in used]
        return frozenset(seen)

    def conjugacy_classes(self) -> List[FrozenSet[int]]:
        remaining = set(range(self.order))
        out = []
        t = self.table
        while remaining:
            x = min(remaining)
            cls = {t[t[g][x]][self.inverse[g]] for g in range(self.order)}
            out.append(frozenset(cls))
            remaining -= cls
        return out

    def is_nonabelian_simple(self) -> bool:
        """Simple iff the normal closure of every nontrivial class is the
        whole group (normal subgroups are unions of classes); abelian iff
        every class is a single element."""
        if self._simple_cache is None:
            classes = self.conjugacy_classes()
            self._simple_cache = len(classes) < self.order and all(
                len(self.closure(tuple(cls))) == self.order
                for cls in classes
                if cls != frozenset((self.identity,))
            )
        return self._simple_cache

    # -- subgroup registry for the tuple-count recursion ------------------

    def _register(self, sub: FrozenSet[int], gens: Tuple[int, ...]) -> int:
        """Index of the conjugacy class of the subgroup sub, generated by
        gens.  The first subgroup H seen of a class is its representative:
        every conjugate gHg^-1 maps to the same index, and only H stores one
        representative of each right coset Hz outside H (<H, z> = <H, hz>
        for every h in H, so an extension of H depends only on the coset)."""
        sid = self._sub_index.get(sub)
        if sid is None:
            sid = len(self._sub_sets)
            self._sub_sets.append(sub)
            self._sub_gens.append(gens)
            t = self.table
            inv = self.inverse
            covered = set(sub)
            reps = []
            for z in range(self.order):
                if z not in covered:
                    reps.append(z)
                    covered.update([t[h][z] for h in sub])
            self._sub_reps.append(tuple(reps))
            # gHg^-1 depends only on the left coset gH, and g = z^-1 runs
            # over one element of each as z runs over 1 and the reps
            for z in (self.identity, *reps):
                g = inv[z]
                self._sub_index.setdefault(frozenset([t[t[g][h]][z] for h in sub]), sid)
        return sid

    def _extend(self, sid: int, z: int) -> int:
        """Class index of <H, z> for the representative H of the class sid
        and z outside H; called once per right coset of H."""
        key = (sid, z)
        nid = self._extend_cache.get(key)
        if nid is None:
            gens = self._sub_gens[sid] + (z,)
            nid = self._register(self.closure(gens), gens)
            self._extend_cache[key] = nid
        return nid

    def __repr__(self):
        return f"ConcreteGroup({self.name}, order={self.order})"


def _elements(identity, gens: Sequence, mul) -> Tuple[List, List[List[int]], List[Tuple[int, int]]]:
    """Every element generated by gens, breadth first from the identity by
    right multiplication with one mul call per element and generator; the
    list order fixes the element indices (and holds no element twice).
    right[k][i] is the index of elements[i] * gens[k], and first[j - 1] =
    (i, k) with i < j says that elements[j] was first reached that way."""
    elements = [identity]
    index = {identity: 0}
    right: List[List[int]] = [[] for _ in gens]
    first: List[Tuple[int, int]] = []
    for i, x in enumerate(elements):  # the loop also visits the elements it appends
        for k, g in enumerate(gens):
            y = mul(x, g)
            j = index.get(y)
            if j is None:
                j = index[y] = len(elements)
                elements.append(y)
                first.append((i, k))
                if j >= ORDER_LIMIT:
                    raise PreconditionError("closure exceeded the order limit")
            right[k].append(j)
    return elements, right, first


def permutation_group(name: str, gens: Sequence[tuple]) -> ConcreteGroup:
    n = len(gens[0])
    if n > 8:
        raise PreconditionError("permutation degree capped at 8 points")
    return ConcreteGroup(name, tuple(range(n)), gens, _compose)


def cyclic_group(n: int) -> ConcreteGroup:
    gen = tuple(list(range(1, n)) + [0])
    return permutation_group(f"C{n}", [gen])


def alternating_group_5() -> ConcreteGroup:
    return permutation_group("A5", [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


def _psl2_canon(m: tuple, p: int) -> tuple:
    """The lexicographically smaller of M and -M: the first nonzero entry of
    the top row decides, and M is the smaller when that entry is below p/2."""
    (a, b), (c, d) = m
    if 2 * (a or b) < p:
        return m
    return (((-a) % p, (-b) % p), ((-c) % p, (-d) % p))


def _matrix_group(name: str, p: int, mul, center: int) -> ConcreteGroup:
    """The group that [[1, 1], [0, 1]] and [[0, -1], [1, 0]] generate under
    mul: SL2(F_p) modulo a center of the given order, with mul(1, M) the
    representative of the matrix M."""
    if p > 13:
        raise PreconditionError("matrix catalog capped at p <= 13")
    one = ((1, 0), (0, 1))
    gens = [mul(one, ((1, 1), (0, 1))), mul(one, ((0, p - 1), (1, 0)))]
    G = ConcreteGroup(f"{name}_{p}", mul(one, one), gens, mul)
    if G.order != p * (p * p - 1) // center:
        raise InvariantError(f"{name}({p}) closure has wrong order {G.order}")
    return G


def sl2_group(p: int) -> ConcreteGroup:
    """SL2(F_p) as explicit 2x2 matrices; order p(p^2-1)."""
    return _matrix_group("SL2", p, lambda a, b: _mat_mul(a, b, p), 1)


def psl2_group(p: int) -> ConcreteGroup:
    """PSL2(F_p): matrices modulo +-1 (a center of order gcd(2, p - 1)),
    represented by the lexicographically smaller of M and -M."""
    return _matrix_group(
        "PSL2", p, lambda a, b: _psl2_canon(_mat_mul(a, b, p), p), math.gcd(2, p - 1)
    )


_CATALOG = {
    "A5": alternating_group_5,
    "SL2_5": lambda: sl2_group(5),
    "PSL2_7": lambda: psl2_group(7),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
}
_instances: Dict[str, ConcreteGroup] = {}


def catalog_names() -> Tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def get_group(name: str) -> ConcreteGroup:
    if name not in _CATALOG:
        raise PreconditionError(f"unknown group id {name!r}; catalog: {catalog_names()}")
    if name not in _instances:
        _instances[name] = _CATALOG[name]()
    return _instances[name]


def generating_tuple_count(G: ConcreteGroup, d: int) -> int:
    """phi_d(G): exact number of ordered d-tuples generating G.

    Tuples are enumerated through their closure states.  Appending z to a
    tuple that generates H gives <H, z>, which depends only on the right
    coset Hz, so with c(H, r) the number of r-tuples that complete H to G,

        c(H, r) = |H| * (c(H, r-1) + sum over the cosets Hz != H of c(<H, z>, r-1)).

    Conjugation by g maps the r-tuples completing H to those completing
    gHg^-1, so c(H, r) = c(gHg^-1, r) (the symmetry behind P. Hall's
    Eulerian functions) and the recursion runs over one representative H of
    each conjugacy class of subgroups reached.  Each (class, coset) closure
    is cached, so the count is exact while the work is proportional to the
    sum over those representatives of |G:H| * d.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if G.order ** d > TUPLE_BUDGET:
        raise PreconditionError(
            f"|G|^d = {G.order}^{d} exceeds the enumeration budget {TUPLE_BUDGET}"
        )
    trivial = G._register(frozenset((G.identity,)), ())
    full_size = G.order

    def count(sid: int, r: int) -> int:
        size = len(G._sub_sets[sid])
        if r == 0:
            return 1 if size == full_size else 0
        key = (sid, r)
        got = G._count_cache.get(key)
        if got is None:
            got = size * (
                count(sid, r - 1)
                + sum(count(G._extend(sid, z), r - 1) for z in G._sub_reps[sid])
            )
            G._count_cache[key] = got
        return got

    return count(trivial, d)


def automorphism_count(G: ConcreteGroup) -> int:
    """|Aut(G)| by brute force: fix one generating pair (a, b) and count the
    images (x, y) whose extension is a bijective homomorphism.  Composing
    with an inner automorphism shows that (x, y) and (gxg^-1, gyg^-1) are
    valid together, so x runs over one element of each conjugacy class of
    elements of a's order, and each valid pair counts the class size."""
    if G.order > AUT_ORDER_LIMIT:
        raise PreconditionError(f"automorphism counting capped at order {AUT_ORDER_LIMIT}")
    if G._aut_cache is not None:
        return G._aut_cache
    # pick a of maximal order to keep the candidate pool small
    orders = [G.element_order(i) for i in range(G.order)]
    a = max(range(G.order), key=lambda i: orders[i])
    b = None
    for cand in sorted(range(G.order), key=lambda i: -orders[i]):
        if len(G.closure((a, cand))) == G.order:
            b = cand
            break
    if b is None:
        raise PreconditionError(f"{G.name} is not 2-generated")

    # every element g but the identity as a word in a, b: the breadth-first
    # search first reaches g as w * (a, b)[k], for a w reached before g
    t = G.table
    words, _, first = _elements(G.identity, (a, b), lambda x, g: t[x][g])
    steps = [(g, words[i], k) for g, (i, k) in zip(words[1:], first)]

    cand_x = [
        (min(cls), len(cls)) for cls in G.conjugacy_classes() if orders[min(cls)] == orders[a]
    ]
    cand_y = [i for i in range(G.order) if orders[i] == orders[b]]
    # an automorphism maps ab to xy, so the orders of ab and xy must agree
    order_ab = orders[t[a][b]]
    count = 0
    n = G.order
    for x, size in cand_x:
        for y in cand_y:
            if orders[t[x][y]] != order_ab:
                continue
            img = (x, y)
            phi = [G.identity] * n
            for g, w, k in steps:
                phi[g] = t[phi[w]][img[k]]
            # multiplicativity on generator right-mults extends inductively
            # to all products; bijectivity then makes phi an automorphism
            ok = True
            for h in range(n):
                ph = phi[h]
                if phi[t[h][a]] != t[ph][x] or phi[t[h][b]] != t[ph][y]:
                    ok = False
                    break
            if ok and len(set(phi)) == n:
                count += size
    G._aut_cache = count
    return count


def min_generators_power(G: ConcreteGroup, k: int) -> int:
    """d(G^k) = min{d >= 2 : phi_d(G)/|Aut G| >= k} for nonabelian simple G.

    phi_d is enumerated on demand while |G|^d stays inside the budget; past
    that the bound phi_{d+1} >= phi_d * |G| certifies the answer when it can,
    otherwise a larger enumeration is genuinely needed.
    """
    if not G.is_nonabelian_simple():
        raise PreconditionError(f"{G.name} is not nonabelian simple")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    aut = automorphism_count(G)
    d = 2
    last_d, last_phi = None, None
    while G.order ** d <= TUPLE_BUDGET:
        phi = generating_tuple_count(G, d)
        if phi // aut >= k:
            return d
        last_d, last_phi = d, phi
        d += 1
    # lower bound on d: even phi_d = |G|^d cannot reach k before this
    d_low = last_d + 1
    while G.order ** d_low < k * aut:
        d_low += 1
    # upper bound: appending arbitrary coordinates keeps tuples generating
    d_up = last_d + 1
    while last_phi * G.order ** (d_up - last_d) < k * aut:
        d_up += 1
    if d_low == d_up:
        return d_low
    raise BudgetExceededError(
        f"needs larger enumeration: d({G.name}^k) is in [{d_low}, {d_up}]"
    )


def counts_jsonable(G: ConcreteGroup, ds: Sequence[int]) -> dict:
    return {
        "group": G.name,
        "phi": {str(d): generating_tuple_count(G, d) for d in ds},
        "aut": automorphism_count(G),
    }
