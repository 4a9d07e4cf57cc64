"""Exterior/Clifford algebra, G2 and Spin(7) 2-form decompositions,
model heat kernels with a Duhamel oracle, Chern-Weil zeta residues, and
flat-torus spectral asymmetry bookkeeping."""

from .exact import Scalar
from .exterior import (
    DiffForm,
    FiberOp,
    MultiIndex,
    cliff_hat_op,
    cliff_op,
    ext_op,
    hodge_star,
    parse_form,
    wedge,
    word_op,
)
from .filtration import (
    CliffordWordExpansion,
    clifford_degrees,
    expand_clifford_basis,
    word_trace,
)
from .heat import (
    curvature_exponential,
    duhamel_diag_trace,
    duhamel_density,
    extract_t_coefficient,
    landau_kernel,
    mehler_det_factor,
    mehler_diag_trace,
    mehler_kernel,
    mehler_trace_degree4,
    duhamel_kernel,
    oscillator_diag_kernel,
    q_matrix,
)
from .holonomy import (
    HolonomyStructure,
    Projection,
    decompose_two_form,
    instanton_check,
    projections,
    standard_structure,
    star_ext_on_two_forms,
)
from .residue import (
    CurvatureData,
    CurvatureError,
    ResidueReport,
    chern_forms,
    full_residue_report,
    pontryagin_p1,
    random_curvature,
    residue_density,
    report_sign,
    residue_value,
    sign_report,
)
from .spectrum import (
    SpectralLevel,
    counting_functions,
    enumerate_levels,
    heat_trace,
    mellin_equivalence,
    twisted_levels,
    write_levels_csv,
    zeta_partial,
)
from .wordops import WordOperator

__version__ = "0.1.0"
