"""Exterior/Clifford algebra, G2 and Spin(7) 2-form decompositions,
model heat kernels with a Duhamel oracle, Chern-Weil zeta residues, and
flat-torus spectral asymmetry bookkeeping.

The names below are exported lazily (PEP 562): ``import specasym`` loads
no submodule, and each name imports its module on first access.  So
``import specasym.heat`` or ``import specasym.cli`` pays only for the
modules it uses, and numpy loads only with ``filtration``, ``verify`` or
the flat-torus level counts.  ``FiberOp`` and the ``holonomy`` operators
are sparse maps keyed by basis masks and need no numpy; ``FiberOp`` is
only the exterior product and its adjoint, which the algebra suite and
the word expansion of ``filtration`` read.  Clifford words act through
the closed forms ``exterior.apply_word`` and ``wordops.word_mul``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact": ("Scalar",),
    "exterior": (
        "DiffForm",
        "FiberOp",
        "parse_form",
    ),
    "filtration": (
        "CliffordWordExpansion",
        "expand_clifford_basis",
    ),
    "heat": (
        "curvature_exponential",
        "duhamel_density",
        "landau_kernel",
        "mehler_det_factor",
        "mehler_diag_trace",
        "mehler_kernel",
        "duhamel_kernel",
        "oscillator_diag_kernel",
        "q_matrix",
    ),
    "holonomy": (
        "HolonomyStructure",
        "Projection",
        "bundle_weight_check",
        "decompose_two_form",
        "instanton_check",
        "projections",
        "standard_structure",
        "star_ext_on_two_forms",
    ),
    "residue": (
        "CurvatureData",
        "CurvatureError",
        "ResidueReport",
        "chern_forms",
        "full_residue_report",
        "pontryagin_p1",
        "random_curvature",
        "residue_density",
        "report_sign",
        "residue_value",
        "sign_report",
    ),
    "spectrum": (
        "SpectralLevel",
        "counting_functions",
        "enumerate_levels",
        "heat_trace",
        "mellin_equivalence",
        "twisted_levels",
        "write_levels_csv",
        "zeta_partial",
    ),
    "wordops": ("WordOperator",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
