"""Representation zeta functions, growth counts and abscissae of convergence
for structured models of quasi-semisimple profinite groups."""

from .dirichlet import (
    EXACT,
    LOG,
    BigPower,
    DirichletSeries,
    convolve,
    cumulative,
    evaluate,
    power_one_plus,
)
from .lie_data import LieType, PairSet, canonical_pair_set, positive_root_count, rho0, validate_pair_set, model_xi
from .char_tables import DegreeTable, min_nontrivial_degree, psl2_table, sl2_table, zeta_series
from .finite_groups import (
    ConcreteGroup,
    automorphism_count,
    generating_tuple_count,
    get_group,
    min_generators_power,
)
from .growth import (
    DiagonalStratum,
    FactorSpec,
    FiniteStratum,
    GeometricStratum,
    GroupSpec,
    PrimeStratum,
    PolyExponent,
    empirical_slope,
    exact_abscissa,
    m_n,
    prg_verdict,
    sl2_over_primes_spec,
    truncated_zeta,
)
from .constructor import (
    DiagonalCertificate,
    Schedule,
    build_diagonal,
    build_fixed_type,
    make_schedule,
    prec_min,
)

__all__ = [name for name in dir() if not name.startswith("_")]
