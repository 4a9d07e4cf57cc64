import json
from fractions import Fraction
from pathlib import Path

import pytest

from specasym.exact import Scalar
from specasym.exterior import DiffForm
from specasym.holonomy import decompose_two_form
from specasym.residue import (
    CurvatureData,
    CurvatureError,
    chern_forms,
    characteristic_density_form,
    full_residue_report,
    gamma_pole_factor,
    instanton_line_curvature,
    pontryagin_p1,
    random_curvature,
    residue_density,
    residue_value,
    sign_report,
    twisted_constant,
    untwisted_constant,
)


def test_p1_flat():
    assert pontryagin_p1(CurvatureData(7, 1)).is_zero()


def test_p1_block_diagonal_two_plane():
    # R_1212 = R_3434 = kappa only: each Omega wedge is a repeated 2-form
    cd = CurvatureData(7, 1, {(1, 2, 1, 2): Fraction(5), (3, 4, 3, 4): Fraction(5)}, {})
    assert pontryagin_p1(cd).is_zero()


def test_p1_coupled_curvature():
    # Omega_12 = Omega_34 = kappa (e12 + e34); value frozen from the
    # literal wedge-arithmetic oracle: p1 = (kappa^2/pi^2) e1234
    kappa = Fraction(2)
    cd = CurvatureData(
        7,
        1,
        {
            (1, 2, 1, 2): kappa,
            (1, 2, 3, 4): kappa,
            (3, 4, 3, 4): kappa,
        },
        {},
    )
    omega = cd.rhat(1, 2).scale(2)
    assert omega == DiffForm.monomial(7, (1, 2), kappa) + DiffForm.monomial(7, (3, 4), kappa)
    p1 = pontryagin_p1(cd)
    expected = DiffForm.monomial(7, (1, 2, 3, 4), Scalar.term(kappa ** 2, pi_half=-4))
    assert p1 == expected


def test_chern_flat_and_rank_one():
    c1, c2 = chern_forms(CurvatureData(7, 1))
    assert c1.is_zero() and c2.is_zero()
    cd = random_curvature(7, 1, seed=4, with_riemann=False)
    c1, c2 = chern_forms(cd)
    assert c2.is_zero()  # rank deficiency


def test_chern_rank_one_line():
    # Fhat = -i f alpha with alpha real: c1 = (f / 2 pi) alpha
    f = Fraction(3)
    alpha = DiffForm.monomial(7, (1, 2)) + DiffForm.monomial(7, (4, 7), -2)
    entries = {}
    for m, c in alpha.terms.items():
        lo, hi = (m & -m).bit_length(), (m & (m - 1)).bit_length()
        entries[(lo, hi)] = {(0, 0): Scalar.term(0, -f * c)}
    cd = CurvatureData(7, 1, {}, entries)
    c1, _ = chern_forms(cd)
    assert c1 == alpha.scale(Scalar.term(Fraction(f, 2), pi_half=-2))


def test_residue_density_flat(g2):
    assert residue_density(g2, CurvatureData(7, 1)).is_zero()


@pytest.mark.parametrize("kind", ["g2", "spin7"])
@pytest.mark.parametrize("riemann,bundle", [(True, False), (False, True), (True, True)],
                         ids=["riemann", "bundle", "both"])
def test_residue_density_is_the_top_part_of_the_wedge(g2, spin7, kind, riemann, bundle):
    """The density reads only the dvol coefficient of w ^ ((1/3) p1 + c1^2 - c2);
    it equals the whole wedge, exactly and in its repr."""
    s = g2 if kind == "g2" else spin7
    for r, seed in ((1, 30), (2, 31)):
        cd = random_curvature(s.n, r, seed=seed, with_riemann=riemann, with_bundle=bundle)
        want = s.defining_form.wedge(characteristic_density_form(cd))
        got = residue_density(s, cd)
        assert not want.is_zero()
        assert got == want and repr(got) == repr(want)


def test_residue_density_instanton_line(g2):
    # Fhat = -i f P14(e12): density = -(f^2/4 pi^2) |alpha|^2 dvol
    f = 3
    cd = instanton_line_curvature(g2, base=(1, 2), scale=-f)
    _, alpha = decompose_two_form(g2, DiffForm.monomial(7, (1, 2)))
    # alpha in the 14-part pairs against phi by alpha ^ phi = -*alpha
    assert alpha.wedge(g2.defining_form) == -(alpha.hodge())
    density = residue_density(g2, cd)
    expected = DiffForm.dvol(7).scale(
        Scalar.term(-Fraction(f * f, 4) * alpha.norm_sq(), pi_half=-4)
    )
    assert density == expected


def test_residue_value_g2_untwisted(g2):
    # residue = (4/9 pi^2) * P with P = integral of p1 ^ phi, via
    # b = pi^{-3/2} (P/3) and Gamma(5/2) = (3/4) sqrt(pi)
    p = Scalar.of(Fraction(5))
    integral = p * Fraction(1, 3)
    report = residue_value(g2, twisted=False, integral=integral,
                           density=DiffForm.dvol(7).scale(integral))
    assert report.residue == Scalar.term(Fraction(4, 9), pi_half=-4) * p
    assert report.b_coefficient == Scalar.pi_pow(-3) * p * Fraction(1, 3)
    assert report.pole_location == Fraction(3, 2)
    assert report.untwisted_constant_ok is True


def test_residue_value_spin7_untwisted(spin7):
    p = Scalar.of(Fraction(7))
    integral = p * Fraction(1, 3)
    report = residue_value(spin7, twisted=False, integral=integral,
                           density=DiffForm.dvol(8).scale(integral))
    assert report.residue == Scalar.term(Fraction(1, 6), pi_half=-4) * p
    assert report.pole_location == Fraction(2)
    assert report.untwisted_constant_ok is True


def test_residue_value_twisted_constants(g2, spin7):
    one = Scalar.of(1)
    rep = residue_value(g2, twisted=True, integral=one, density=DiffForm.dvol(7))
    assert rep.residue == twisted_constant("g2")
    rep = residue_value(spin7, twisted=True, integral=one, density=DiffForm.dvol(8))
    assert rep.residue == twisted_constant("spin7")
    # internal consistency: twisted constant / 3 = untwisted constant
    for kind in ("g2", "spin7"):
        assert twisted_constant(kind) * Fraction(1, 3) == untwisted_constant(kind)


def test_gamma_factors_exact():
    assert gamma_pole_factor(3) == Scalar.term(Fraction(3, 4), pi_half=1)
    assert gamma_pole_factor(4) == Scalar.of(2)
    with pytest.raises(ValueError):
        gamma_pole_factor(5)


def test_full_report_end_to_end(g2):
    cd = instanton_line_curvature(g2, base=(1, 2), scale=3)
    report = full_residue_report(g2, cd)
    assert report.twisted
    assert report.instanton.ok
    # residue = (4/3 pi^2) integral, integral < 0
    assert report.residue == twisted_constant("g2") * report.integral
    assert report.residue.real_float() < 0
    # exact value: integral = -(9/4 pi^2) |alpha|^2 with |alpha|^2 = 2/3
    assert report.integral == Scalar.term(Fraction(-3, 2), pi_half=-4)
    assert report.residue == Scalar.term(Fraction(-2), pi_half=-8)


def test_sign_report_flat(g2):
    rep = sign_report(g2, CurvatureData(7, 1))
    assert rep.sign == 0 and not rep.nonpositivity_violated


def test_sign_report_instanton_negative(g2):
    rep = sign_report(g2, instanton_line_curvature(g2, scale=2))
    assert rep.sign == -1
    assert rep.is_instanton
    assert not rep.nonpositivity_violated


def test_sign_report_refuses_non_instanton(g2):
    # a 7-part line curvature fails the instanton gate
    iv = g2.defining_form.interior(1)
    entries = {}
    for m, c in iv.terms.items():
        lo, hi = (m & -m).bit_length(), (m & (m - 1)).bit_length()
        entries[(lo, hi)] = {(0, 0): Scalar.i() * Scalar.of(c)}
    rep = sign_report(g2, CurvatureData(7, 1, {}, entries))
    assert rep.sign is None
    assert rep.is_instanton is False


def test_density_parts_are_real(g2):
    cd = random_curvature(7, 2, seed=6)
    dens = characteristic_density_form(cd)
    for c in dens.terms.values():
        assert all(im == 0 for (_, im) in c.terms.values())


def test_residue_quadratic_scaling(g2):
    cd = random_curvature(7, 1, seed=7)
    r1 = full_residue_report(g2, cd).residue
    r3 = full_residue_report(g2, cd.scaled(3)).residue
    assert r3 == r1 * 9


def test_report_floats_past_the_float_range_are_null(g2):
    """Float fields that do not fit a float read None (JSON null); the
    exact fields keep the value."""
    big = 10 ** 400
    rep = residue_value(g2, True, Scalar.of(big), DiffForm.dvol(7).scale(big))
    out = rep.to_dict()
    assert out["integral"] == {"exact": str(big), "float": None}
    assert out["b_coefficient"]["float"] is None and out["residue"]["float"] is None
    cd = CurvatureData(7, 1, {}, {(2, 3): {(0, 0): Scalar.i(big)}, (4, 5): {(0, 0): Scalar.i(big)}})
    out = full_residue_report(g2, cd).to_dict()
    assert out["integral"]["float"] is None
    assert out["integral"]["exact"] == repr(full_residue_report(g2, cd).integral) != "0"
    # a nonreal value past the float range is None as well, not [inf, nan]
    huge = Scalar.term(big, big)
    rep = residue_value(g2, True, huge, DiffForm.dvol(7).scale(huge))
    assert rep.to_dict()["integral"]["float"] is None


_PINS = json.loads((Path(__file__).parent / "data" / "random_curvature_pins.json").read_text())


@pytest.mark.parametrize("pin", _PINS, ids=lambda p: f"n{p['n']}-r{p['r']}-seed{p['seed']}")
def test_random_curvature_is_pinned(pin):
    """The heat suite and the verify checks run on ``random_curvature``
    data, so its draws are pinned: these are its planes and R values."""
    cd = random_curvature(pin["n"], pin["r"], seed=pin["seed"])
    assert cd.f_den == pin["f_den"]
    assert cd.f_planes == {m: (re, im) for m, re, im in pin["f_planes"]}
    assert list(cd.f_planes) == [m for m, _, _ in pin["f_planes"]]
    assert cd.r_entries == {(i, j, k, l): Fraction(v) for i, j, k, l, v in pin["r_entries"]}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_f_entries_round_trip_and_store_no_zero(r):
    """``f_entries`` is the format the constructor takes, with no zero
    value and no empty map."""
    for seed in range(4):
        cd = random_curvature(7, r, seed=seed)
        assert cd.f_entries
        assert CurvatureData(cd.n, cd.r, cd.r_entries, cd.f_entries) == cd
        assert all(m and all(m.values()) and set(m) <= {(a, b) for a in range(r) for b in range(r)}
                   for m in cd.f_entries.values())


@pytest.mark.parametrize("key", [(0, 2), (2, 0), (-1, 0), (0, 5), (1.5, 0)])
def test_bundle_map_key_outside_the_rank_is_rejected(key):
    with pytest.raises(CurvatureError, match="^bundle curvature matrix has wrong rank$"):
        CurvatureData(7, 2, {}, {(1, 2): {(0, 0): Scalar.i(), key: Scalar.i()}})
