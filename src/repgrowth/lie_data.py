"""Root-system bookkeeping: ranks, positive-root counts, the admissibility
threshold rk/|Phi+|, exponent-pair sets and the basic model polynomials.

Only the numerical data of the nine irreducible families is carried; no
Weyl groups, weights or character theory.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .dirichlet import EXACT, LOG, DirichletSeries
from .errors import PreconditionError, SpecFormatError, int_field, int_list

# Bourbaki irreducible ranges; C starts at 3 and D at 4 so B2=C2 and D3=A3
# are not represented twice.
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E6": (6, 6),
    "E7": (7, 7),
    "E8": (8, 8),
    "F4": (4, 4),
    "G2": (2, 2),
}

_EXCEPTIONAL_POSITIVE = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}


@dataclass(frozen=True)
class LieType:
    """A family label, a rank and an optional graph twist.  The rank may be
    omitted for the exceptional families, where it is determined."""

    family: str
    rank: Optional[int] = None
    twisted: bool = False

    def __post_init__(self):
        if self.family not in _RANK_RANGE:
            raise PreconditionError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if self.rank is None:
            if hi is None:
                raise PreconditionError(f"family {self.family} needs an explicit rank")
            object.__setattr__(self, "rank", hi)
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise PreconditionError(
                f"rank {self.rank} is outside the legal range of family {self.family}"
            )
        if self.twisted and not self._twistable():
            raise PreconditionError(
                f"{self.label()} admits no nontrivial graph automorphism"
            )

    def _twistable(self) -> bool:
        # nontrivial diagram automorphisms: A_l (l>=2), D_l (l>=4), E6
        return (
            (self.family == "A" and self.rank >= 2)
            or (self.family == "D" and self.rank >= 4)
            or self.family == "E6"
        )

    def label(self) -> str:
        core = self.family if self.family not in ("A", "B", "C", "D") else f"{self.family}{self.rank}"
        return f"2{core}" if self.twisted else core

    def to_jsonable(self) -> dict:
        return {"family": self.family, "rank": self.rank, "twisted": self.twisted}

    @classmethod
    def from_jsonable(cls, obj: dict, pointer: str = "") -> "LieType":
        if not isinstance(obj, dict) or not isinstance(obj.get("family"), str):
            raise SpecFormatError("lie_type must be an object with a family string", pointer)
        twisted = obj.get("twisted", False)
        if not isinstance(twisted, bool):
            raise SpecFormatError(f"must be true or false, got {twisted!r}", pointer + "/twisted")
        return cls(obj["family"], int_field(obj, "rank", pointer), twisted)


A1 = LieType("A", 1)


def positive_root_count(t: LieType) -> int:
    """|Phi+| for the family: A_l l(l+1)/2, B_l/C_l l^2, D_l l(l-1), plus
    the five exceptional constants."""
    r = t.rank
    if t.family == "A":
        return r * (r + 1) // 2
    if t.family in ("B", "C"):
        return r * r
    if t.family == "D":
        return r * (r - 1)
    return _EXCEPTIONAL_POSITIVE[t.family]


def rho0(t: LieType) -> Fraction:
    """The admissibility threshold rk(Phi)/|Phi+| in lowest terms."""
    return Fraction(t.rank, positive_root_count(t))


def tits_excluded(t: LieType, q: int) -> bool:
    """The finitely many (type, q) whose simply connected group is not
    quasi-simple: SL2(2), SL2(3), SU3(2), Sp4(2), G2(2)."""
    if t.family == "A" and t.rank == 1:
        return q in (2, 3)
    if t.family == "A" and t.rank == 2 and t.twisted:
        return q == 2
    if t.family == "B" and t.rank == 2:
        return q == 2  # Sp4(2), via B2 = C2
    if t.family == "G2":
        return q == 2
    return False


class PairSet:
    """A finite set of exponent pairs (m, n) with m >= 0 and n >= 1."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Tuple[int, int]]):
        frozen = frozenset((int(m), int(n)) for m, n in pairs)
        for m, n in frozen:
            if m < 0 or n < 1:
                raise PreconditionError(f"illegal exponent pair ({m}, {n})")
        object.__setattr__(self, "pairs", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("PairSet is immutable")

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair):
        return tuple(pair) in self.pairs

    def __eq__(self, other):
        return isinstance(other, PairSet) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"PairSet({sorted(self.pairs)})"

    def is_empty(self) -> bool:
        return not self.pairs

    def min_dim_exponent(self) -> int:
        """min n over the set: the model's smallest nontrivial q-exponent."""
        if not self.pairs:
            raise PreconditionError("empty pair set has no minimal exponent")
        return min(n for _, n in self.pairs)

    def to_jsonable(self) -> list:
        return [[m, n] for m, n in sorted(self.pairs)]

    @classmethod
    def from_jsonable(cls, obj, pointer: str = "") -> "PairSet":
        if not isinstance(obj, list):
            raise SpecFormatError("pair set must be a list of [m, n] pairs", pointer)
        pairs = [int_list(pair, f"{pointer}/{k}") for k, pair in enumerate(obj)]
        if any(len(pair) != 2 for pair in pairs):
            raise SpecFormatError("pair set must be a list of [m, n] pairs", pointer)
        return cls(pairs)


@functools.cache  # a PairSet is immutable; towers ask for it once per factor
def canonical_pair_set(t: LieType) -> PairSet:
    """The default model set {(rk, |Phi+|)}; it saturates every validation
    constraint and suffices for all exact abscissa computations."""
    return PairSet([(t.rank, positive_root_count(t))])


@dataclass(frozen=True)
class PairSetReport:
    ok: bool
    violations: Tuple[Tuple[Optional[Tuple[int, int]], str], ...]


def validate_pair_set(a: PairSet, t: LieType) -> PairSetReport:
    """Check m <= rk, n <= |Phi+| and m*|Phi+| <= n*rk for every pair,
    in exact integer arithmetic; failures are listed per pair per rule.  An
    empty set fails too (pair None): it has no minimal dimension."""
    rk = t.rank
    pos = positive_root_count(t)
    violations = [] if a.pairs else [(None, "the set is empty")]
    for m, n in sorted(a.pairs):
        if m > rk:
            violations.append(((m, n), f"m <= rk violated: {m} > {rk}"))
        if n > pos:
            violations.append(((m, n), f"n <= |Phi+| violated: {n} > {pos}"))
        if m * pos > n * rk:
            violations.append(
                ((m, n), f"m/n <= rk/|Phi+| violated: {m}*{pos} > {n}*{rk}")
            )
    return PairSetReport(not violations, tuple(violations))


def require_pair_set(a: PairSet, t: LieType) -> None:
    """PreconditionError listing the violations unless a is valid for t."""
    report = validate_pair_set(a, t)
    if not report.ok:
        raise PreconditionError(f"pair set rejected: {report.violations}")


def xi_terms(a: PairSet, q: int, N: int, k: Optional[int] = None) -> Dict[int, int]:
    """The entries of the basic polynomial: per pair (m, n), multiplicity q^m
    at dimension q^n; same-dimension terms accumulate, dims > N are dropped.
    Every dimension is at least q >= 2, so there is no constant term.  Given
    k with q = p^k for a prime p, each entry is keyed by the exponent k*n of
    its dimension p^(k*n) instead, and N is the largest exponent kept."""
    if q < 2:
        raise PreconditionError("q must be at least 2")
    entries: Dict[int, int] = {}
    for m, n in a:
        key = q ** n if k is None else k * n
        if key > N:
            continue
        entries[key] = entries.get(key, 0) + q ** m
    return entries


def model_xi(a: PairSet, q: int, N: int, backend: str = EXACT) -> DirichletSeries:
    """The basic polynomial xi_a(q) as a series truncated at N (see
    :func:`xi_terms`).  No constant term: callers add 1 themselves when
    forming 1 + xi."""
    if backend not in (EXACT, LOG):
        raise PreconditionError(f"unknown backend {backend!r}")
    series = DirichletSeries(N, xi_terms(a, q, N), EXACT)
    return series if backend == EXACT else series.to_log()
