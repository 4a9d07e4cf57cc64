import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import specasym
from specasym.cli import _form_to_dict, _json_text, main
from specasym.exact import Scalar
from specasym.exterior import DiffForm
from specasym.holonomy import standard_structure, star_ext_on_two_forms, two_form_basis


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_basic(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--kind", "g2", "--form", "e12")
    assert code == 0
    doc = json.loads(out)
    assert doc["norms"]["p7"]["exact"] == "1/3"
    assert doc["norms"]["p14"]["exact"] == "2/3"


def test_decompose_zero(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--kind", "g2", "--form", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["p7"] == {} and doc["p14"] == {}


def test_decompose_degree_gate(capsys):
    code, _, err = run_cli(capsys, "decompose", "--kind", "g2", "--form", "e1")
    assert code == 2
    assert "2-form" in err


def test_decompose_parse_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "--kind", "g2", "--form", "e12 + zap")
    assert code == 2


def test_decompose_descending_monomial_is_the_negated_ascending_one(capsys):
    """e21 = -e12, so every coefficient and no norm changes sign."""
    _, asc, _ = run_cli(capsys, "decompose", "--kind", "g2", "--form", "e12")
    _, desc, _ = run_cli(capsys, "decompose", "--kind", "g2", "--form", "e21")
    _, neg, _ = run_cli(capsys, "decompose", "--kind", "g2", "--form=-e12")
    assert desc == neg
    asc, desc = json.loads(asc), json.loads(desc)
    assert desc["norms"] == asc["norms"]
    for part in ("input", "p7", "p14"):
        assert desc[part].keys() == asc[part].keys()
        for key, value in asc[part].items():
            assert desc[part][key] == {"exact": str(-Fraction(value["exact"])),
                                       "float": -value["float"]}


def test_decompose_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "decompose", "--kind", "spin7", "--form", "2 e12 - e34")
    _, out2, _ = run_cli(capsys, "decompose", "--kind", "spin7", "--form", "2 e12 - e34")
    assert out1 == out2


def _dense_decompose_text(kind, terms):
    """The ``decompose`` stdout for sum c e^i ^ e^j over (c, i, j) in
    ``terms``, from the dense Fraction projection P_7 = (A + 1) / (plus + 1)
    of A = ``star_ext_on_two_forms`` and its complement alpha - P_7 alpha,
    rendered by ``json.dumps``."""
    s = standard_structure(kind)
    plus = {"g2": 2, "spin7": 3}[kind]
    basis = two_form_basis(s.n)
    a = star_ext_on_two_forms(s.defining_form, s.n)
    alpha = dict.fromkeys(basis, Fraction(0))
    for c, i, j in terms:
        alpha[(1 << (i - 1)) | (1 << (j - 1))] += c if i < j else -c
    p7 = {t: sum((a.get((t, b), 0) + (t == b)) * alpha[b] for b in basis) / (plus + 1)
          for t in basis}
    parts = {"input": alpha, "p7": p7,
             f"p{len(basis) - 7}": {t: alpha[t] - p7[t] for t in basis}}

    def entry(c):
        return {"exact": str(c), "float": float(c)}

    def key(m):
        return "e" + "".join(str(k + 1) for k in range(s.n) if m >> k & 1)

    doc = {name: {key(m): entry(c) for m, c in part.items() if c}
           for name, part in parts.items()}
    doc["kind"] = kind
    doc["norms"] = {name: entry(sum(c * c for c in part.values()))
                    for name, part in parts.items() if name != "input"}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind", ["g2", "spin7"])
def test_decompose_stdout_equals_a_dense_fraction_projection(capsys, kind):
    """20 random forms per kind, with repeated, cancelling and descending
    terms: stdout is byte for byte the dense Fraction rendering."""
    n = 7 if kind == "g2" else 8
    rnd = random.Random(kind)
    for _ in range(20):
        terms = [(Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)), *rnd.sample(range(1, n + 1), 2))
                 for _ in range(rnd.randint(1, 7))]
        if rnd.random() < 0.3:  # a term and its cancelling descending twin
            c, i, j = terms[0]
            terms.append((c, j, i))
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} e{i}{j}" for c, i, j in terms)
        code, out, err = run_cli(capsys, "decompose", "--kind", kind, "--form", text)
        assert code == 0, err
        assert out == _dense_decompose_text(kind, terms), text


def test_residue_density_of_a_scalar_form_renders_as_before():
    """The density leaves of a Scalar form are the old {"exact": repr,
    "float": real value or null} objects, byte for byte: pi powers, a sum
    of planes, a value below and one past the float range."""
    form = DiffForm(7, {
        0: Scalar.term(Fraction(1, 3), 0, -2),
        0b11: Scalar.term(Fraction(-3, 7), 0, 1) + Scalar.term(2, 0, 3),
        0b1000001: Scalar.term(10 ** 400),
        0b1111111: Scalar.term(Fraction(1, 10 ** 400), 0, 4),
    })
    want = {"density": {
        "1": {"exact": "1/3*pi^-1", "float": 0.1061032953945969},
        "e12": {"exact": "-3/7*pi^(1/2) + 2*pi^(3/2)", "float": 10.377032914703909},
        "e1234567": {"exact": f"1/{10 ** 400}*pi^2", "float": 0.0},
        "e17": {"exact": str(10 ** 400), "float": None},
    }}
    got = _json_text({"density": _form_to_dict(form)})
    assert got == json.dumps(want, sort_keys=True, indent=2)


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_residue_flat(tmp_path, capsys):
    path = os.fspath(tmp_path / "flat.json")
    _write(path, {"n": 7, "rank": 1})
    code, out, _ = run_cli(capsys, "residue", "--kind", "g2", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["residue"]["float"] == 0.0
    assert doc["pole_location"] == "3/2"
    assert doc["sign"]["sign"] == 0


def test_residue_instanton_with_oracle(tmp_path, capsys):
    path = os.fspath(tmp_path / "inst.json")
    _write(
        path,
        {
            "n": 7,
            "rank": 1,
            "F": [
                [1, 2, [[[0, -2]]]],
                [4, 7, [[[0, -1]]]],
                [5, 6, [[[0, -1]]]],
            ],
        },
    )
    code, out, _ = run_cli(capsys, "residue", "--kind", "g2", "--input", path, "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["residue"]["float"] < 0
    assert doc["sign"]["is_instanton"] is True
    assert doc["oracle"]["relative_discrepancy"] < 1e-8
    assert doc["instanton_warning"] is None


@pytest.mark.parametrize("kind,n", [("g2", 7), ("spin7", 8)])
def test_residue_oracle_builds_the_model_traces_once(tmp_path, capsys, monkeypatch, kind, n):
    """The Mehler and the Duhamel density of one ``residue --oracle`` call
    read one build of tr Q, tr V and tr V^2; without ``--oracle`` none is
    built."""
    from specasym import heat

    builds = []
    real = heat._build_model_traces

    def spy(cd):
        builds.append(cd)
        return real(cd)

    monkeypatch.setattr(heat, "_build_model_traces", spy)
    path = os.fspath(tmp_path / "rank2.json")
    f = [[[0, 1], [1, "1/2"]], [[-1, "1/2"], [0, -2]]]
    # e45 ^ e67 pairs with e123 in phi and with e1238 in psi
    _write(path, {"n": n, "rank": 2, "R": [[4, 5, 6, 7, "3/8"], [1, 2, 4, 5, -1]],
                  "F": [[1, 2, f], [4, 5, f], [6, 7, f]]})
    code, out, _ = run_cli(capsys, "residue", "--kind", kind, "--input", path, "--oracle")
    assert code == 0 and len(builds) == 1
    oracle = json.loads(out)["oracle"]
    assert oracle["mehler_coefficient"]["exact"] != "0"
    assert oracle["relative_discrepancy"] == 0.0
    code, _, _ = run_cli(capsys, "residue", "--kind", kind, "--input", path)
    assert code == 0 and len(builds) == 1


def test_residue_warns_non_instanton(tmp_path, capsys):
    path = os.fspath(tmp_path / "noninst.json")
    # i_{e_1} phi = e23 + e45 + e67 lies in the 7-part
    _write(
        path,
        {
            "n": 7,
            "rank": 1,
            "F": [
                [2, 3, [[[0, 1]]]],
                [4, 5, [[[0, 1]]]],
                [6, 7, [[[0, 1]]]],
            ],
        },
    )
    code, out, _ = run_cli(capsys, "residue", "--kind", "g2", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["instanton_warning"] is not None
    assert doc["sign"]["sign"] is None


@pytest.mark.parametrize("size", ["1e-2", "1e-400"])
def test_residue_seven_part_below_float_range_is_refused(tmp_path, capsys, size):
    """A nonzero 7-part fails the instanton gate even when its float is 0."""
    path = os.fspath(tmp_path / "tiny.json")
    _write(path, {"n": 7, "rank": 1, "F": [[2, 3, [[[0, size]]]], [4, 5, [[[0, size]]]]]})
    code, out, _ = run_cli(capsys, "residue", "--kind", "g2", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["sign"]["is_instanton"] is False
    assert doc["sign"]["sign"] is None
    warning = doc["instanton_warning"]
    if size == "1e-400":
        assert warning == "P7 component nonzero but below the float range"
    else:
        assert warning.startswith("P7 component up to") and "0.000e+00" not in warning


_HUGE = "1" + "0" * 400  # under the 600-character cap, past the float range


def test_decompose_floats_past_the_float_range_are_null(capsys):
    code, out, err = run_cli(capsys, "decompose", "--kind", "g2", "--form", f"{_HUGE} e12")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["input"]["e12"] == {"exact": _HUGE, "float": None}
    assert all(entry["float"] is None for part in ("p7", "p14") for entry in doc[part].values())
    assert doc["norms"]["p7"] == {"exact": f"{10 ** 800}/3", "float": None}


@pytest.mark.parametrize("planes", [[(1, 2)], [(2, 3), (4, 5)]])
def test_residue_values_past_the_float_range_exit_0(tmp_path, capsys, planes):
    """F on one plane overflows the instanton check's floats, F on e23 and
    e45 the report's: both print null or inf, with the exact values."""
    path = os.fspath(tmp_path / "huge.json")
    _write(path, {"n": 7, "rank": 1, "F": [[i, j, [[[0, _HUGE]]]] for i, j in planes]})
    code, out, err = run_cli(capsys, "residue", "--kind", "g2", "--input", path, "--oracle")
    assert code == 0 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["instanton_warning"] == "P7 component up to inf"
    if len(planes) == 2:
        assert doc["integral"]["float"] is None and doc["integral"]["exact"] != "0"
        assert doc["density"]["e1234567"]["float"] is None


def test_residue_rank_two_matrices(tmp_path, capsys):
    path = os.fspath(tmp_path / "r2.json")
    # skew-Hermitian 2x2: i * Hermitian
    _write(
        path,
        {
            "n": 7,
            "rank": 2,
            "F": [
                [1, 2, [[[0, 1], [1, 2]], [[-1, 2], [0, 3]]]],
            ],
        },
    )
    code, out, _ = run_cli(capsys, "residue", "--kind", "g2", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["twisted"] is True


def test_residue_spin7_end_to_end(tmp_path, capsys):
    from specasym.holonomy import standard_structure
    from specasym.residue import instanton_line_curvature

    sp7 = standard_structure("spin7")
    cd = instanton_line_curvature(sp7, base=(1, 2), scale=1)
    rows = []
    for (i, j), m in cd.f_entries.items():
        z = m[0, 0].evalf()
        rows.append([i, j, [[[z.real, z.imag]]]])
    path = os.fspath(tmp_path / "sp7.json")
    _write(path, {"n": 8, "rank": 1, "F": rows})
    code, out, _ = run_cli(capsys, "residue", "--kind", "spin7", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["pole_location"] == "2"
    assert doc["residue"]["float"] < 0
    assert doc["sign"]["is_instanton"] is True


def test_residue_kind_dimension_mismatch(tmp_path, capsys):
    path = os.fspath(tmp_path / "dim.json")
    _write(path, {"n": 8, "rank": 1})
    code, _, err = run_cli(capsys, "residue", "--kind", "g2", "--input", path)
    assert code == 2


def test_residue_rejects_symmetry_violation(tmp_path, capsys):
    path = os.fspath(tmp_path / "bad.json")
    _write(path, {"n": 7, "rank": 1, "R": [[1, 2, 3, 4, 1], [2, 1, 3, 4, 1]]})
    code, _, err = run_cli(capsys, "residue", "--kind", "g2", "--input", path)
    assert code == 2
    assert "conflict" in err.lower() or "error" in err.lower()


def test_residue_rejects_non_skew(tmp_path, capsys):
    path = os.fspath(tmp_path / "bad2.json")
    _write(path, {"n": 7, "rank": 1, "F": [[1, 2, [[[1, 0]]]]]})
    code, _, err = run_cli(capsys, "residue", "--kind", "g2", "--input", path)
    assert code == 2


def test_residue_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "residue", "--kind", "g2", "--input",
                           os.fspath(tmp_path / "none.json"))
    assert code == 2


def test_spectrum_csv(tmp_path, capsys):
    out_path = os.fspath(tmp_path / "levels.csv")
    code, out, _ = run_cli(capsys, "spectrum", "--n", "7", "--qmax", "1", "--out", out_path)
    assert code == 0
    assert "zeta_delta_partial = 0" in out
    with open(out_path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2:5] == ["14", "98", "196"]


def test_spectrum_twisted(tmp_path, capsys):
    out_path = os.fspath(tmp_path / "tw.csv")
    code, out, _ = run_cli(
        capsys, "spectrum", "--n", "7", "--qmax", "2",
        "--theta", "1/2,0,0,0,0,0,0", "--out", out_path,
    )
    assert code == 0
    assert "zeta_delta_partial = 0" in out


def test_spectrum_theta_length_gate(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--n", "7", "--qmax", "2",
        "--theta", "1/2,0", "--out", os.fspath(tmp_path / "x.csv"),
    )
    assert code == 2


def test_spectrum_qmax_gate(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "7", "--qmax", "0",
                           "--out", os.fspath(tmp_path / "x.csv"))
    assert code == 2


def test_spectrum_io_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "7", "--qmax", "1",
                           "--out", "/nonexistent-dir/levels.csv")
    assert code == 3


def test_spectrum_deterministic(tmp_path, capsys):
    p1 = os.fspath(tmp_path / "a.csv")
    p2 = os.fspath(tmp_path / "b.csv")
    run_cli(capsys, "spectrum", "--n", "7", "--qmax", "3", "--out", p1)
    run_cli(capsys, "spectrum", "--n", "7", "--qmax", "3", "--out", p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_verify_single_suite_json(tmp_path, capsys):
    report = os.fspath(tmp_path / "rep.json")
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectrum", "--json", report)
    assert code == 0
    doc = json.load(open(report))
    assert doc["failed"] == 0
    assert any(c["status"] == "pass" for c in doc["checks"])


def test_verify_json_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectrum", "--json", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "spectrum"


def test_verify_json_to_stdout_prints_the_report_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "spectrum", "--json", "-")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    lines = err.splitlines()
    assert [line[7:].split(" -- ")[0] for line in lines[:-1]] == names
    assert lines[-1] == f"{len(names)}/{len(names)} checks passed"


def test_verify_json_records_seconds_but_prints_none(tmp_path, capsys):
    report = os.fspath(tmp_path / "rep.json")
    code, out, _ = run_cli(capsys, "verify", "--suite", "spectrum", "--json", report)
    assert code == 0
    checks = json.load(open(report))["checks"]
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in checks)
    assert all(line.startswith("[") or line.endswith("checks passed")
               for line in out.splitlines())
    assert "seconds" not in out


def _subprocess_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(specasym.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "specasym", "decompose", "--kind", "g2",
                           "--form", "e12"], capture_output=True, text=True, timeout=60,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["norms"]["p7"]["exact"] == "1/3"


def test_cli_import_does_not_load_scipy():
    """The library needs no scipy: the Mellin checks integrate on their own
    exp-sinh rule, so neither start-up nor any command loads it."""
    code = "import sys, specasym.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_spectrum_runs_with_scipy_blocked():
    """With scipy unimportable the spectrum suite still passes: its Mellin
    rows integrate on the exp-sinh rule of ``spectrum``."""
    code = ("import sys\nsys.modules['scipy'] = None\nfrom specasym import cli\n"
            "sys.exit(cli.main(['verify', '--suite', 'spectrum']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_subprocess_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_all_does_not_import_numpy_random():
    """Every suite passes and none loads ``numpy.random``: the algebra
    suite's random word pairs and the Gram check's word triples are the
    bytes of one ``random.Random(seed).randbytes`` call each."""
    code = ("import sys\nfrom specasym import cli\n"
            "code = cli.main(['verify', '--suite', 'all'])\n"
            "sys.exit(code or 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=_subprocess_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr


# numpy, the dataclasses module with the inspect it loads, spectrum
# (which only the spectrum command and verify import) and wordops (which
# only the full-kernel oracles of heat and verify import): none is on the
# start-up path
_STARTUP_HEAVY = ("numpy", "dataclasses", "inspect", "specasym.spectrum", "specasym.wordops")
_HEAVY_LOADED = f"\nprint([m for m in {_STARTUP_HEAVY!r} if m in sys.modules])"
_STARTUP_RESIDUE = {"n": 7, "rank": 1, "R": [[1, 2, 3, 4, "1/2"], [1, 3, 2, 5, -1]],
                    "F": [[1, 2, [[[0, 1]]]], [3, 6, [[[0, -2]]]]]}


@pytest.mark.parametrize("code", [
    "import sys, specasym",
    "import sys, specasym.cli",
    # the benchmark's set-up sequence
    "import sys\n"
    "from specasym.heat import calibration_constant\n"
    "from specasym.holonomy import standard_structure\n"
    "for kind in ('g2', 'spin7'):\n"
    "    calibration_constant(standard_structure(kind))",
    "import sys\n"
    "from specasym.cli import main\n"
    "assert main(['residue', '--kind', 'g2', '--input', sys.argv[1], '--oracle']) == 0",
    "import sys\n"
    "from specasym.cli import main\n"
    "assert main(['decompose', '--kind', 'spin7', '--form', '3 e12 - e78']) == 0",
    "import sys\n"
    "from specasym.exterior import DiffForm, FiberOp, apply_word\n"
    "e1 = FiberOp.ext_op(DiffForm.monomial(7, (1,)), 2)\n"
    "adj = e1.adjoint().entries\n"
    "c1 = {k: e1.entries.get(k, 0) - adj.get(k, 0) for k in e1.entries.keys() | adj.keys()}\n"
    "words = [apply_word(1, 0, s) for s in range(128)]\n"
    "assert c1 == {(t * 2 + a, s * 2 + a): sign for s, (sign, t) in enumerate(words) for a in (0, 1)}",
    "import sys\n"
    "from specasym.exterior import sparse_product\n"
    "from specasym.holonomy import projections, standard_structure, star_ext_on_two_forms\n"
    "for kind in ('g2', 'spin7'):\n"
    "    s = standard_structure(kind)\n"
    "    assert s.star_ext == star_ext_on_two_forms(s.defining_form, s.n)\n"
    "    p7 = projections(s)[0]\n"
    "    n7 = p7.entries\n"
    "    assert sparse_product(n7, n7) == {k: p7.den * v for k, v in n7.items()}",
], ids=["import-specasym", "import-cli", "setup-probe", "residue-oracle", "decompose", "fiber-op",
        "holonomy-oracle"])
def test_startup_path_does_not_load_numpy(tmp_path, code):
    """Building structures, residues, decompositions, the exterior product
    and its adjoint, Clifford word signs and the holonomy oracle runs on
    sparse maps; numpy loads only with verify,
    filtration and the torus level counts, so these calls do not pay for
    it.  The package's records are plain classes, so neither
    ``dataclasses`` nor the ``inspect`` it loads is imported either,
    ``cli`` imports ``spectrum`` only in its spectrum command, and the
    densities build no ``WordOperator``, so ``wordops`` stays unloaded."""
    path = os.fspath(tmp_path / "curvature.json")
    _write(path, _STARTUP_RESIDUE)
    proc = subprocess.run([sys.executable, "-c", code + _HEAVY_LOADED, path],
                          capture_output=True, text=True, timeout=60, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_verify_failure_exit_code(capsys, monkeypatch):
    from specasym import verify as verify_mod
    from specasym.verify import CheckResult

    def broken(seed=0):
        return [CheckResult("synthetic failing check", "fail", "injected")]

    monkeypatch.setitem(verify_mod.SUITES, "spectrum", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "spectrum")
    assert code == 1
    assert "FAILED" in err


_BAD_RESIDUE_INPUTS = {
    "r-value-text": {"n": 7, "rank": 1, "R": [[1, 2, 3, 4, "abc"]]},
    "r-value-nan": {"n": 7, "rank": 1, "R": [[1, 2, 3, 4, float("nan")]]},
    "f-entry-text": {"n": 7, "rank": 1, "F": [[1, 2, [["x"]]]]},
    "f-matrix-bare-number": {"n": 7, "rank": 1, "F": [[1, 2, [[0]]]]},
    "index-text": {"n": 7, "rank": 1, "R": [["a", 2, 3, 4, 1]]},
    "rank-bool": {"n": 7, "rank": True},
    "r-value-long-exponent": {"n": 7, "rank": 1, "R": [[1, 2, 3, 4, "1e-1000000"]]},
    # file text with number literals json.dump cannot write
    "r-literal-long-exponent": '{"n": 7, "rank": 1, "R": [[1, 2, 3, 4, 1e-1000000]]}',
    "r-literal-5000-digits": '{"n": 7, "rank": 1, "R": [[1, 2, 3, 4, %s]]}' % ("7" * 5000),
    # index ranges are checked by the CurvatureData constructor alone
    "r-index-9": {"n": 7, "rank": 1, "R": [[1, 2, 3, 9, 1]]},
    "f-index-repeated": {"n": 7, "rank": 1, "F": [[3, 3, [[[0, 1]]]]]},
    "f-index-0": {"n": 7, "rank": 1, "F": [[0, 2, [[[0, 1]]]]]},
}

_BAD_ARGV = {
    "decompose-form-zero-denominator": ("decompose", "--kind", "g2", "--form", "1/0 e12"),
    "decompose-form-glued-monomials": ("decompose", "--kind", "g2", "--form", "e12e34"),
    "decompose-form-split-coefficient": ("decompose", "--kind", "g2", "--form", "1 2 e12"),
    "decompose-form-repeated-index": ("decompose", "--kind", "g2", "--form", "e11"),
    "spectrum-theta-zero-denominator": (
        "spectrum", "--n", "7", "--qmax", "2", "--theta", "1/0,0,0,0,0,0,0", "--out",
    ),
    "spectrum-theta-long-exponent": (
        "spectrum", "--n", "7", "--qmax", "2", "--theta", "1e-1000000,0,0,0,0,0,0", "--out",
    ),
    "verify-negative-seed": ("verify", "--suite", "algebra", "--seed", "-1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RESIDUE_INPUTS) + sorted(_BAD_ARGV))
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    if case in _BAD_RESIDUE_INPUTS:
        path = os.fspath(tmp_path / "bad.json")
        doc = _BAD_RESIDUE_INPUTS[case]
        if isinstance(doc, str):
            with open(path, "w") as fh:
                fh.write(doc)
        else:
            _write(path, doc)
        argv = ("residue", "--kind", "g2", "--input", path)
    else:
        argv = _BAD_ARGV[case]
        if argv[-1] == "--out":
            argv += (os.fspath(tmp_path / "levels.csv"),)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("decompose", "--kind", "g2", "--form=--"),
    ("decompose", "--kind=--", "--form", "e12"),
    ("verify", "--suite", "spectrum", "--seed=--"),
    ("verify", "--suite", "spectrum", "--json=--"),
    ("residue", "--kind", "g2", "--input=--"),
    ("spectrum", "--n", "7", "--qmax", "2", "--theta=--", "--out", "levels.csv"),
])
def test_option_value_double_dash_exits_2(capsys, argv):
    """Python 3.11's argparse parses "--opt=--" as an empty list, which
    skips the option's type and choices; the CLI refuses it."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_residue_oracle_flat_bundle_is_independent_of_rank(tmp_path):
    """No step of a flat-bundle residue loops over the rank, so rank 10^6
    finishes at once; run in a subprocess so a regression fails, not hangs."""
    path = os.fspath(tmp_path / "flat.json")
    _write(path, {"n": 7, "rank": 10 ** 6})
    proc = subprocess.run(
        [sys.executable, "-m", "specasym.cli", "residue", "--kind", "g2", "--input", path,
         "--oracle"],
        capture_output=True, text=True, timeout=60, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["residue"]["exact"] == "0"
    assert doc["oracle"]["duhamel_coefficient"]["exact"] == "0"
    assert doc["oracle"]["relative_discrepancy"] == 0.0


@pytest.mark.parametrize("doc", [
    {"n": 7, "rank": 1, "R": [[1, 2, 3, 4, "1/2"], [1, 2, 1, 2, 1], [1, 3, 2, 5, -1]],
     "F": [[1, 2, [[[0, 1]]]], [3, 6, [[[0, -2]]]]]},
    {"n": 8, "rank": 2, "F": [[1, 2, [[[0, 1], [1, 0]], [[-1, 0], [0, 2]]]]]},
], ids=["g2-riemann-and-bundle", "spin7-bundle-only"])
def test_residue_oracle_reads_stored_curvature_entries(tmp_path, capsys, monkeypatch, doc):
    """The residue pipeline never scans index quadruples through r_component."""
    from specasym.residue import CurvatureData

    def no_scan(self, i, j, k, l):
        raise AssertionError("r_component called on the residue path")

    monkeypatch.setattr(CurvatureData, "r_component", no_scan)
    path = os.fspath(tmp_path / "curvature.json")
    _write(path, doc)
    kind = "g2" if doc["n"] == 7 else "spin7"
    code, out, _ = run_cli(capsys, "residue", "--kind", kind, "--input", path, "--oracle")
    assert code == 0
    assert json.loads(out)["oracle"]["relative_discrepancy"] == 0.0


@pytest.mark.parametrize("doc", [
    {"n": 7, "rank": 2, "R": [[1, 2, 4, 5, "1/2"], [1, 2, 6, 7, -2], [1, 3, 2, 5, -1]],
     "F": [[1, 2, [[[0, 1], [1, 0]], [[-1, 0], [0, 2]]]],
           [3, 6, [[[0, -2], [0, 0]], [[0, 0], [0, 1]]]]]},
    {"n": 8, "rank": 1, "R": [[1, 2, 4, 5, 1], [1, 2, 6, 7, 3], [2, 8, 2, 8, -1]],
     "F": [[1, 2, [[[0, 1]]]], [3, 8, [[[0, -2]]]]]},
], ids=["g2-riemann-and-bundle", "spin7-riemann-and-bundle"])
def test_residue_oracle_builds_no_model_matrices(tmp_path, capsys, monkeypatch, doc):
    """Both densities read tr Q, tr V and tr V^2 only: the Q matrix and the
    rank-r potential are never built on the residue path."""
    from specasym import heat

    def no_build(cd):
        raise AssertionError("model matrix built on the residue path")

    monkeypatch.setattr(heat, "q_matrix", no_build)
    monkeypatch.setattr(heat, "model_constant_potential", no_build)
    path = os.fspath(tmp_path / "curvature.json")
    _write(path, doc)
    kind = "g2" if doc["n"] == 7 else "spin7"
    code, out, err = run_cli(capsys, "residue", "--kind", kind, "--input", path, "--oracle")
    assert code == 0, err
    oracle = json.loads(out)["oracle"]
    assert oracle["relative_discrepancy"] == 0.0
    assert oracle["mehler_coefficient"]["exact"] != "0"


_CURVED_DOCS = {
    "g2": {"n": 7, "rank": 1, "R": [[1, 2, 4, 5, "1/2"], [1, 3, 2, 5, -1]],
           "F": [[1, 2, [[[0, 1]]]], [3, 6, [[[0, -2]]]]]},
    "spin7": {"n": 8, "rank": 2, "R": [[1, 2, 4, 5, 1], [2, 8, 2, 8, -1]],
              "F": [[1, 2, [[[0, 1], [1, 0]], [[-1, 0], [0, 2]]]]]},
}


@pytest.mark.parametrize("kind", sorted(_CURVED_DOCS))
def test_residue_oracle_builds_the_chern_weil_sums_once_per_curvature(
        tmp_path, capsys, monkeypatch, kind):
    """A call builds one CurvatureData, the input's, and its one
    construction routine runs each Chern-Weil sum once;
    characteristic_density_form and both model traces read the stored sums,
    and the constant trace normalisation needs no calibration data."""
    from specasym import cli, residue

    built, calls = [], []
    real_build = residue.CurvatureData._build

    def build_spy(self, *args):
        real_build(self, *args)
        built.append(self)

    monkeypatch.setattr(residue.CurvatureData, "_build", build_spy)
    for name in ("_p1", "_chern"):
        real = getattr(residue, name)

        def spy(*args, real=real, name=name):
            calls.append((len(built), name))  # the data under construction is built[len(built)]
            return real(*args)

        monkeypatch.setattr(residue, name, spy)
    loaded = []
    real_load = cli.load_curvature
    monkeypatch.setattr(cli, "load_curvature",
                        lambda path: loaded.append(real_load(path)) or loaded[-1])
    path = os.fspath(tmp_path / "curvature.json")
    _write(path, _CURVED_DOCS[kind])
    code, out, err = run_cli(capsys, "residue", "--kind", kind, "--input", path, "--oracle")
    assert code == 0, err
    assert json.loads(out)["oracle"]["relative_discrepancy"] == 0.0
    assert built == loaded and len(built) == 1
    assert calls == [(0, "_p1"), (0, "_chern")]


@pytest.mark.parametrize("kind", sorted(_CURVED_DOCS))
def test_residue_oracle_never_derives_scalar_f_entries(tmp_path, capsys, monkeypatch, kind):
    """The residue path reads the integer planes only; the Scalar matrices
    of f_entries are for the oracles."""
    from specasym import residue

    path = os.fspath(tmp_path / "curvature.json")
    _write(path, _CURVED_DOCS[kind])
    want = run_cli(capsys, "residue", "--kind", kind, "--input", path, "--oracle")

    def no_derive(*args):
        raise AssertionError("Scalar f_entries derived on the residue path")

    monkeypatch.setattr(residue, "_scalar_matrices", no_derive)
    assert run_cli(capsys, "residue", "--kind", kind, "--input", path, "--oracle") == want
    assert want[0] == 0


def test_structures_are_built_once_and_left_unchanged(tmp_path, capsys):
    """standard_structure returns one object per kind; after the holonomy
    suite and a residue run its maps still equal a fresh build."""
    from specasym.holonomy import standard_structure

    for kind in ("g2", "spin7"):
        assert standard_structure(kind) is standard_structure(kind)
    assert run_cli(capsys, "verify", "--suite", "holonomy")[0] == 0
    for kind, doc in sorted(_CURVED_DOCS.items()):
        path = os.fspath(tmp_path / f"{kind}.json")
        _write(path, doc)
        assert run_cli(capsys, "residue", "--kind", kind, "--input", path, "--oracle")[0] == 0
        assert run_cli(capsys, "decompose", "--kind", kind, "--form", "3 e12 - e45")[0] == 0
    for kind in ("g2", "spin7"):
        s, fresh = standard_structure(kind), standard_structure.__wrapped__(kind)
        assert fresh is not s
        assert s.star_ext == fresh.star_ext
        assert s.defining_form == fresh.defining_form
        assert s.eigenvalue_table == fresh.eigenvalue_table
        for p, q in zip(s.projection_pair, fresh.projection_pair):
            assert (p.target, p.den, p.entries) == (q.target, q.den, q.entries)


_PIPE_ARGV = {
    "decompose": ("decompose", "--kind", "g2", "--form", "3 e12 - e45"),
    "residue": ("residue", "--kind", "g2", "--oracle", "--input"),
    "spectrum": ("spectrum", "--n", "7", "--qmax", "3", "--out"),
    "verify": ("verify", "--suite", "spectrum"),
}


@pytest.mark.parametrize("command", sorted(_PIPE_ARGV))
def test_closed_stdout_exits_3_without_traceback(tmp_path, command):
    """A reader that closes the pipe early (``| head -c 1``) gives the I/O
    exit code and a quiet stderr, at the write and at interpreter exit.
    The read end is closed before the run, so every write fails."""
    argv = _PIPE_ARGV[command]
    if command == "residue":
        path = os.fspath(tmp_path / "curvature.json")
        _write(path, _CURVED_DOCS["g2"])
        argv += (path,)
    elif command == "spectrum":
        argv += (os.fspath(tmp_path / "levels.csv"),)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "specasym", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env=_subprocess_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
