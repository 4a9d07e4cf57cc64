"""The package's record classes: constructor parameters and defaults, the
``repr`` text, ``==`` over the shown fields only, and unhashability.  The
expected values were read off the records as they were when the classes
were generated by the standard library's record decorator."""

import inspect
from fractions import Fraction

import pytest

from specasym.exact import Scalar
from specasym.exterior import DiffForm
from specasym.filtration import CliffordWordExpansion
from specasym.holonomy import HolonomyStructure, InstantonReport, Projection
from specasym.residue import ResidueReport, SignReport
from specasym.spectrum import Levels, MellinReport
from specasym.verify import CheckResult

_W = DiffForm(7, {7: Fraction(1), 24: Fraction(-1, 2)})

# (build, its repr, build with one shown field changed)
_RECORDS = {
    "Projection": (
        lambda: Projection("7", 7, 3, {(3, 3): 2, (5, 3): -1}),
        "Projection(target='7', n=7, den=3, entries={(3, 3): 2, (5, 3): -1})",
        lambda: Projection("7", 7, 3, {(3, 3): 2, (5, 3): 1}),
    ),
    "HolonomyStructure": (
        lambda: HolonomyStructure("g2", 7, _W, [(2, 7), (-1, 14)], {(3, 3): 1}, ()),
        "HolonomyStructure(kind='g2', n=7, defining_form=(1)*e123 + (-1/2)*e45, "
        "eigenvalue_table=[(2, 7), (-1, 14)])",
        lambda: HolonomyStructure("g2", 7, _W, [(2, 7), (-1, 13)], {(3, 3): 1}, ()),
    ),
    "InstantonReport": (
        lambda: InstantonReport(False, 0.5),
        "InstantonReport(ok=False, max_component=0.5)",
        lambda: InstantonReport(False, 0.25),
    ),
    "ResidueReport": (
        lambda: ResidueReport("g2", False, _W, Scalar.of(1),
                              Scalar.term(Fraction(4, 9), pi_half=-4), Scalar.of(0),
                              Fraction(3, 2)),
        "ResidueReport(kind='g2', twisted=False, density=(1)*e123 + (-1/2)*e45, integral=1, "
        "b_coefficient=4/9*pi^-2, residue=0, pole_location=Fraction(3, 2), "
        "untwisted_constant_ok=None, instanton=None)",
        lambda: ResidueReport("g2", False, _W, Scalar.of(1),
                              Scalar.term(Fraction(4, 9), pi_half=-4), Scalar.of(0),
                              Fraction(3, 2), untwisted_constant_ok=True),
    ),
    "SignReport": (
        lambda: SignReport("spin7", Scalar.of(-2), -1, True, False, "residue is negative"),
        "SignReport(kind='spin7', residue=-2, sign=-1, is_instanton=True, "
        "nonpositivity_violated=False, note='residue is negative')",
        lambda: SignReport("spin7", Scalar.of(-2), -1, True, False, "residue < 0"),
    ),
    "Levels": (
        lambda: Levels(7, 4, [1, 2], [2, 12], 0),
        "Levels(n=7, den=4, nums=[1, 2], counts=[2, 12], zero_modes=0)",
        lambda: Levels(7, 4, [1, 2], [2, 12], 1),
    ),
    "MellinReport": (
        lambda: MellinReport(4.0, 0.25, 0.25, 1e-12),
        "MellinReport(s=4.0, direct=0.25, mellin=0.25, quad_error=1e-12)",
        lambda: MellinReport(4.0, 0.25, 0.25, 0.0),
    ),
    "CheckResult": (
        lambda: CheckResult("algebra: x", "pass"),
        "CheckResult(name='algebra: x', status='pass', detail='', seconds=0.0)",
        lambda: CheckResult("algebra: x", "pass", seconds=0.5),
    ),
    "CliffordWordExpansion": (
        lambda: CliffordWordExpansion(5, {(1, 0): Fraction(1, 2)}),
        "CliffordWordExpansion(n=5, coefficients={(1, 0): Fraction(1, 2)})",
        lambda: CliffordWordExpansion(5, {(1, 0): Fraction(-1, 2)}),
    ),
}

# constructor parameters in order, with their defaults
_PARAMETERS = {
    Projection: [("target",), ("n",), ("den",), ("entries",)],
    HolonomyStructure: [("kind",), ("n",), ("defining_form",), ("eigenvalue_table",),
                        ("star_ext",), ("projection_pair",)],
    InstantonReport: [("ok",), ("max_component",)],
    ResidueReport: [("kind",), ("twisted",), ("density",), ("integral",), ("b_coefficient",),
                    ("residue",), ("pole_location",), ("untwisted_constant_ok", None),
                    ("instanton", None)],
    SignReport: [("kind",), ("residue",), ("sign",), ("is_instanton",),
                 ("nonpositivity_violated",), ("note",)],
    Levels: [("n",), ("den",), ("nums",), ("counts",), ("zero_modes",)],
    MellinReport: [("s",), ("direct",), ("mellin",), ("quad_error",)],
    CheckResult: [("name",), ("status",), ("detail", ""), ("seconds", 0.0)],
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_repr_and_equality(name):
    build, text, changed = _RECORDS[name]
    rec = build()
    assert type(rec).__name__ == name
    assert repr(rec) == text
    assert rec == build() and not rec != build()
    assert rec != changed() and not rec == changed()
    assert rec.__eq__(object()) is NotImplemented
    assert rec != object() and rec != tuple(vars(rec).values())
    assert type(rec).__hash__ is None
    with pytest.raises(TypeError):
        hash(rec)


@pytest.mark.parametrize("cls", list(_PARAMETERS), ids=lambda cls: cls.__name__)
def test_record_constructor_parameters(cls):
    got = [(p.name,) if p.default is p.empty else (p.name, p.default)
           for p in inspect.signature(cls).parameters.values()]
    assert got == _PARAMETERS[cls]


def test_record_defaults():
    rep = ResidueReport("spin7", True, _W, Scalar.of(1), Scalar.of(2), Scalar.of(3), Fraction(2))
    assert rep.untwisted_constant_ok is None and rep.instanton is None
    check = CheckResult("x", "info")
    assert (check.detail, check.seconds) == ("", 0.0)
    a, b = CliffordWordExpansion(7), CliffordWordExpansion(n=7)
    assert a.coefficients == {} and a.coefficients is not b.coefficients
    assert a == b and repr(a) == "CliffordWordExpansion(n=7, coefficients={})"
    a.coefficients[(0, 0)] = Fraction(1)
    assert b.coefficients == {} and a != b
    by_keyword = Levels(n=8, den=1, nums=[3], counts=[448], zero_modes=1)
    assert by_keyword == Levels(8, 1, [3], [448], 1)


def test_fields_outside_equality_and_repr():
    """``star_ext`` and ``projection_pair`` of a structure and the
    ``columns`` of a projection enter neither ``==`` nor ``repr``."""
    s = HolonomyStructure("g2", 7, _W, [(2, 7)], {(3, 3): 1}, ())
    t = HolonomyStructure("g2", 7, _W, [(2, 7)], {(3, 3): -1}, (None, None))
    assert s == t and repr(s) == repr(t)
    p = Projection("7", 7, 3, {(3, 3): 2, (5, 3): -1})
    assert p.columns == {3: ((3, 2), (5, -1))}
    q = Projection("7", 7, 3, {(3, 3): 2, (5, 3): -1})
    q.columns = {}
    assert p == q and repr(p) == repr(q)


def test_record_equality_compares_field_tuples():
    """A NaN field is equal to itself: the fields compare as tuples, which
    test identity before ``==``."""
    nan = float("nan")
    assert InstantonReport(False, nan) == InstantonReport(False, nan)
    assert InstantonReport(False, nan) != InstantonReport(False, float("nan"))
