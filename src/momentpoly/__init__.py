"""Orthonormal polynomial systems from finite moment sequences.

The library builds orthonormal and monic polynomial systems out of a moment
sequence (exactly, by the Chebyshev algorithm on the moments; in floats, by
Cholesky factorization of the Hankel moment matrix), extracts three-term
recurrence coefficients, converts recurrences back into moments, and computes
connection coefficients, linearization coefficients and Radon-Nikodym Fourier
expansions between measures, with an exact rational backend for
identity-level verification and a float backend for numerics.
"""

from .cholesky import (
    NotPositiveDefinite,
    TriangularTable,
    cholesky_decompose,
    identity_table,
    invert_lower_triangular,
    tri_multiply,
)
from .connect import (
    ConnectionTable,
    RibbonReport,
    RNExpansion,
    builtin_ribbon_pair,
    closed_form_gamma,
    connection_table,
    rn_expansion,
    ribbon_check,
)
from .linearize import (
    LinearizationTable,
    closed_form_linearization,
    linearization_table,
    verify_linearization_closed_forms,
)
from .moments import (
    CarlemanReport,
    FamilySpec,
    HankelMoments,
    InsufficientMoments,
    MomentSequence,
    carleman_diagnostic,
    hankel_matrix,
    load_moment_file,
    make_moments,
    save_moment_file,
)
from .polysys import (
    PolynomialSystem,
    SpectralDiagnostics,
    associated_polys,
    build_system,
    christoffel,
    diagnostics,
    eval_monic,
    eval_poly,
    kernel,
    moment_inner_product,
    monic_tables,
    recurrence_from_moments,
    recurrence_from_tables,
)
from .qkernel import (
    QBracketCache,
    QParams,
    al_salam_chihara_recurrence,
    pm_grid_report,
    pm_product,
    pm_series,
    q_bracket,
    q_factorial,
    q_hermite,
    q_hermite_recurrence,
    q_pochhammer,
)
from .recurrence import (
    AuxTables,
    RecurrenceCoefficients,
    aux_tables,
    eta_table,
    moments_from_recurrence,
    partial_solutions,
    tau_table,
)
from .scalars import FLOAT, RATIONAL, Surd, exact_sqrt

__version__ = "0.1.0"

__all__ = [
    "AuxTables",
    "CarlemanReport",
    "ConnectionTable",
    "FamilySpec",
    "FLOAT",
    "HankelMoments",
    "InsufficientMoments",
    "LinearizationTable",
    "MomentSequence",
    "NotPositiveDefinite",
    "PolynomialSystem",
    "QBracketCache",
    "QParams",
    "RATIONAL",
    "RecurrenceCoefficients",
    "RibbonReport",
    "RNExpansion",
    "SpectralDiagnostics",
    "Surd",
    "TriangularTable",
    "al_salam_chihara_recurrence",
    "associated_polys",
    "aux_tables",
    "build_system",
    "builtin_ribbon_pair",
    "carleman_diagnostic",
    "cholesky_decompose",
    "christoffel",
    "closed_form_gamma",
    "closed_form_linearization",
    "connection_table",
    "diagnostics",
    "eta_table",
    "eval_monic",
    "eval_poly",
    "exact_sqrt",
    "hankel_matrix",
    "identity_table",
    "invert_lower_triangular",
    "kernel",
    "linearization_table",
    "load_moment_file",
    "make_moments",
    "moment_inner_product",
    "moments_from_recurrence",
    "monic_tables",
    "partial_solutions",
    "pm_grid_report",
    "pm_product",
    "pm_series",
    "q_bracket",
    "q_factorial",
    "q_hermite",
    "q_hermite_recurrence",
    "q_pochhammer",
    "recurrence_from_moments",
    "recurrence_from_tables",
    "ribbon_check",
    "rn_expansion",
    "save_moment_file",
    "tau_table",
    "tri_multiply",
    "verify_linearization_closed_forms",
]
