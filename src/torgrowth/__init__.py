"""Torsion growth of modules over integer Laurent polynomial rings.

A desk-scale laboratory for the identity between the exponential growth rate
of homology torsion along finite-index subgroups of Z^n and the Mahler
measure of the first non-vanishing Alexander polynomial.
"""

__version__ = "0.1.0"

from .laurent import (
    LaurentPoly,
    div_exact,
    gcd,
    normalize_unit,
    parse_poly,
    variables,
)
from .lattices import (
    FinAbGroup,
    Subgroup,
    converging_k_sequence,
    coordinate_order,
    gamma_sj,
    min_norm,
    perp,
    quotient,
    unit_vector,
)
from .groupalg import mult_matrix, project_poly
from .presmod import (
    ChainComplex,
    GroupPresentation,
    PresentedModule,
    alexander,
    alexander_complex,
    alexander_module,
    branched_module,
    delta,
    fox_derivative,
    parse_presentation,
    rank,
)
from .torsion import (
    GrowthSample,
    betti,
    cyclic_branched_oracle,
    expand,
    growth_sample,
    snf,
    torsion_order,
)
from .mahler import (
    MahlerEstimate,
    mahler_lawton,
    mahler_quadrature,
    mahler_univariate,
)
from .growthlab import ExperimentConfig, ExperimentReport, run

__all__ = [
    "LaurentPoly", "div_exact", "gcd", "normalize_unit",
    "parse_poly", "variables",
    "FinAbGroup", "Subgroup", "converging_k_sequence",
    "coordinate_order", "gamma_sj", "min_norm", "perp", "quotient", "unit_vector",
    "mult_matrix", "project_poly",
    "ChainComplex", "GroupPresentation", "PresentedModule", "alexander",
    "alexander_complex", "alexander_module", "branched_module", "delta",
    "fox_derivative", "parse_presentation", "rank",
    "GrowthSample", "betti",
    "cyclic_branched_oracle", "expand", "growth_sample",
    "snf", "torsion_order",
    "MahlerEstimate", "mahler_lawton", "mahler_quadrature",
    "mahler_univariate",
    "ExperimentConfig", "ExperimentReport", "run",
]
