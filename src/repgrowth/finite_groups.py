"""Exhaustive oracles on tiny concrete groups: generating-tuple counts
(Eulerian functions), automorphism counts by homomorphism extension, and
the minimal generator number of cartesian powers of a simple group.

Everything here is exact enumeration by design: the statements being
verified are exact, so exact verification beats sampling.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InvariantError, PreconditionError

ORDER_LIMIT = 2000
AUT_ORDER_LIMIT = 400


def _compose(p1: tuple, p2: tuple) -> tuple:
    # (p1*p2)(i) = p1(p2(i))
    return tuple([p1[i] for i in p2])


def _matrix_mul(p: int, projective: bool):
    """The product of 2x2 matrices over F_p, as nested tuples of residues,
    in one frame per call.  projective: the product modulo +-1, represented
    by the lexicographically smaller of M and -M; for a matrix of
    determinant 1 the first nonzero entry of the top row decides, and M is
    the smaller when that entry is below p/2."""

    def mul(a: tuple, b: tuple) -> tuple:
        (a11, a12), (a21, a22) = a
        (b11, b12), (b21, b22) = b
        c11 = (a11 * b11 + a12 * b21) % p
        c12 = (a11 * b12 + a12 * b22) % p
        c21 = (a21 * b11 + a22 * b21) % p
        c22 = (a21 * b12 + a22 * b22) % p
        if projective and 2 * (c11 or c12) >= p:
            return ((-c11 % p, -c12 % p), (-c21 % p, -c22 % p))
        return ((c11, c12), (c21, c22))

    return mul


class ConcreteGroup:
    """A finite group as an explicit multiplication table over element
    indices, built from its identity, generators and mul.  The table is
    fixed at construction; the caches (the conjugacy classes of elements,
    the subgroup-class graph, the phi levels, |Aut G|, simplicity) fill on
    first use, so an instance shared between threads needs a lock around
    its first counts.  The class tuple is formed once and read by the
    simplicity test, by automorphism_count and by the root of the class
    graph.

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
        self._classes: Optional[Tuple[FrozenSet[int], ...]] = None
        # caches shared across the counting operations; the subgroup
        # registry maps every subgroup reached to its conjugacy class index,
        # and _sub_edges[sid] maps the class of each <H, z> for the cosets
        # Hz != H to the number of those cosets.  _unlinked holds the
        # classes filed but without edges yet, in the order first reached.
        self._sub_index: Dict[FrozenSet[int], int] = {}
        self._sub_sets: List[FrozenSet[int]] = []
        self._sub_edges: List[Dict[int, int]] = []
        self._unlinked: Deque[tuple] = deque()
        # the tuple-count level c_r over the classes, and phi_0 .. phi_r
        self._level: List[int] = []
        self._phi: List[int] = []
        self._aut_cache: Optional[int] = None
        self._simple_cache: Optional[bool] = None

    def _spot_check(self, elements: List, mul) -> None:
        # mul against the table on random pairs (a product that is not an
        # element equals none of them, so it fails too), and associativity
        # on random triples
        t = self.table
        draws = iter(_randrange_draws(random.Random(0), self.order, 3000))
        for a, b, c in zip(draws, draws, draws):
            if mul(elements[a], elements[b]) != elements[t[a][b]]:
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

    def conjugacy_classes(self) -> Tuple[FrozenSet[int], ...]:
        """The conjugacy classes of elements, in the order of their least
        elements (so the identity's class comes first); formed on the first
        call and the same tuple after."""
        if self._classes is None:
            t = self.table
            seen: set = set()
            out = []
            for x in range(self.order):
                if x not in seen:
                    # g x g^-1, with t[g][x] read off row g
                    cls = frozenset([t[row[x]][g_inv] for row, g_inv in zip(t, self.inverse)])
                    out.append(cls)
                    seen |= cls
            self._classes = tuple(out)
        return self._classes

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

    # -- subgroup-class graph for the tuple counts -----------------------

    def _register(self, sub: FrozenSet[int], gens: Tuple[int, ...]) -> int:
        """Index of the conjugacy class of the subgroup sub, generated by
        gens.  The first subgroup H seen of a class is its representative:
        the first call for a class files every conjugate gHg^-1 under the
        same index and queues H on _unlinked, where _link builds its edges,
        so the classes are linked breadth first from the trivial class, and
        each representative keeps the shortest generator tuple that any
        chain of classes from the trivial one gives.  The trivial subgroup,
        the root, is linked at once: under the normalizer moves (see _link)
        its cosets {z} fall into orbits that are exactly the element
        classes, so it registers <min C> with edge |C| for each nontrivial
        class C, with no coset walk and no normalizer closure."""
        sid = self._sub_index.get(sub)
        if sid is not None:
            return sid
        sid = len(self._sub_sets)
        self._sub_sets.append(sub)
        edges: Dict[int, int] = {}
        self._sub_edges.append(edges)
        if len(sub) == 1:
            self._sub_index[sub] = sid
            for cls in self.conjugacy_classes()[1:]:  # the identity's class comes first
                z = min(cls)
                nid = self._register(self.closure((z,)), (z,))
                edges[nid] = edges.get(nid, 0) + len(cls)
            return sid
        t = self.table
        inv = self.inverse
        # coset[x] indexes the right coset Hx, reps[i] is the least element
        # of coset i, and coset 0 is H
        coset: Dict[int, int] = {}
        reps = []
        normal = []
        for z in range(self.order):
            if z not in coset:
                hz = [t[h][z] for h in sub]
                coset.update(zip(hz, itertools.repeat(len(reps))))
                reps.append(z)
                # gHg^-1 = g(Hz) for g = z^-1 depends only on the left coset
                # gH, and g runs over one element of each; gHg^-1 = H puts g
                # in N_G(H), where gH = Hg
                g = inv[z]
                conj = frozenset(map(t[g].__getitem__, hz))
                self._sub_index.setdefault(conj, sid)
                if conj == sub:
                    normal.append(g)
        self._unlinked.append((sid, gens, coset, reps, normal))
        return sid

    def _link(self, sid: int, gens: Tuple[int, ...], coset: Dict[int, int], reps: List[int],
              normal: List[int]) -> None:
        """The edges of the class sid, whose representative H = <gens> has
        the right cosets coset and their least elements reps, and whose
        normalizer holds the elements normal (one per coset of H).  The
        cosets Hz != H fall into orbits under two moves that keep the class
        of <H, z>: z -> zs for s in gens, since <H, zs> = <H, z>, and
        z -> gzg^-1 for g in N_G(H), since <H, gzg^-1> = g<H, z>g^-1.  The
        conjugations run over the normalizer elements that each enlarge the
        subgroup the earlier ones generate with H.  Each orbit's least
        element z is closed once, <H, z> is registered, and _sub_edges[sid]
        maps each class reached to its number of cosets."""
        t = self.table
        inv = self.inverse
        conjugators = []
        inside = self._sub_sets[sid]
        for g in normal:
            if g not in inside:
                conjugators.append(g)
                inside = self.closure(gens + tuple(conjugators))
        moves = [[coset[t[z][s]] for z in reps] for s in gens] + [
            [coset[t[t[g][z]][inv[g]]] for z in reps] for g in conjugators
        ]
        edges = self._sub_edges[sid]
        seen = [False] * len(reps)
        for i in range(1, len(reps)):
            if not seen[i]:
                seen[i] = True
                orbit = [i]
                for j in orbit:  # the loop also visits what it appends
                    for move in moves:
                        k = move[j]
                        if not seen[k]:
                            seen[k] = True
                            orbit.append(k)
                z = reps[i]
                nid = self._register(self.closure(gens + (z,)), gens + (z,))
                edges[nid] = edges.get(nid, 0) + len(orbit)

    def __repr__(self):
        return f"ConcreteGroup({self.name}, order={self.order})"


def _randrange_draws(rng: random.Random, n: int, count: int) -> List[int]:
    """count successive rng.randrange(n), drawn the way randrange draws for
    one int argument but without its per-call checks: n.bit_length() random
    bits, drawn again while they are >= n."""
    bits = rng.getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(r)
    return out


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


def _matrix_group(name: str, p: int, center: int) -> ConcreteGroup:
    """The group that [[1, 1], [0, 1]] and [[0, -1], [1, 0]] generate:
    SL2(F_p) modulo a center of order 1 or 2 (the matrices +-1), with the
    product of _matrix_mul."""
    if p > 13:
        raise PreconditionError("matrix catalog capped at p <= 13")
    mul = _matrix_mul(p, center == 2)
    one = ((1, 0), (0, 1))
    gens = [mul(one, ((1, 1), (0, 1))), mul(one, ((0, p - 1), (1, 0)))]
    G = ConcreteGroup(f"{name}_{p}", mul(one, one), gens, mul)
    if G.order != p * (p * p - 1) // center:
        raise InvariantError(f"{name}({p}) closure has wrong order {G.order}")
    return G


def sl2_group(p: int) -> ConcreteGroup:
    """SL2(F_p) as explicit 2x2 matrices; order p(p^2-1)."""
    return _matrix_group("SL2", p, 1)


def psl2_group(p: int) -> ConcreteGroup:
    """PSL2(F_p): matrices modulo +-1 (a center of order gcd(2, p - 1)),
    represented by the lexicographically smaller of M and -M."""
    return _matrix_group("PSL2", p, math.gcd(2, p - 1))


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

    Tuples are counted through their closure states.  Appending z to a
    tuple that generates H gives <H, z>, which depends only on the right
    coset Hz, so with c_r(H) the number of r-tuples that complete H to G,

        c_r(H) = |H| * (c_{r-1}(H) + sum over the cosets Hz != H of c_{r-1}(<H, z>)),

    from c_0(H) = 1 if H = G and 0 otherwise, and phi_d = c_d(1).
    Conjugation by g maps the r-tuples completing H to those completing
    gHg^-1, so c_r(H) = c_r(gHg^-1) (the symmetry behind P. Hall's Eulerian
    functions) and the levels run over one representative H of each
    conjugacy class of subgroups.  The same symmetry groups the cosets:
    z -> zs for s in H keeps <H, z>, and z -> gzg^-1 for g in N_G(H) maps
    it to its conjugate g<H, z>g^-1, so c_{r-1}(<H, z>) is constant on each
    orbit of the cosets under these moves, and the sum runs over the
    orbits, each term times the orbit's size.  The class graph is built
    once per group, breadth first from the trivial class, whose orbits are
    the conjugacy classes of elements: each representative closes one
    coset per orbit (and, past the root, one subgroup per normalizer
    generator), and its orbits that reach the same class merge into one
    edge.  After that each level costs one multiply-add per edge, and the
    levels computed so far are kept, so a larger d resumes where the last
    call stopped.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if not G._phi:
        G._register(frozenset((G.identity,)), ())
        while G._unlinked:
            G._link(*G._unlinked.popleft())
        G._level = [int(len(H) == G.order) for H in G._sub_sets]
        G._phi.append(G._level[0])
    while len(G._phi) <= d:
        c = G._level
        G._level = [
            len(H) * (c[sid] + sum(size * c[nid] for nid, size in edges.items()))
            for sid, (H, edges) in enumerate(zip(G._sub_sets, G._sub_edges))
        ]
        G._phi.append(G._level[0])
    return G._phi[d]


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
    # conjugates share their order, so one element_order per class
    orders = [0] * G.order
    for cls in G.conjugacy_classes():
        k = G.element_order(min(cls))
        for x in cls:
            orders[x] = k
    # pick a of maximal order to keep the candidate pool small
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

    phi_2, phi_3, ... are computed level by level until one reaches k |Aut G|;
    that always happens, since phi_d/|G|^d tends to 1 as d grows.
    """
    if not G.is_nonabelian_simple():
        raise PreconditionError(f"{G.name} is not nonabelian simple")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    aut = automorphism_count(G)
    d = 2
    while generating_tuple_count(G, d) // aut < k:
        d += 1
    return d


def counts_jsonable(G: ConcreteGroup, ds: Sequence[int]) -> dict:
    return {
        "group": G.name,
        "phi": {str(d): generating_tuple_count(G, d) for d in ds},
        "aut": automorphism_count(G),
    }
