import json
import os
import subprocess
import sys

import pytest

import specasym
from specasym.cli import main


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


def test_decompose_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "decompose", "--kind", "spin7", "--form", "2 e12 - e34")
    _, out2, _ = run_cli(capsys, "decompose", "--kind", "spin7", "--form", "2 e12 - e34")
    assert out1 == out2


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
        z = m[0][0].evalf()
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
    start = out.index("{")
    doc = json.loads(out[start:out.rindex("}") + 1])
    assert doc["suite"] == "spectrum"


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
    """Only the quadrature checks need scipy; they import it on first use,
    so a CLI call does not pay for it at start-up."""
    code = "import sys, specasym.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
}

_BAD_ARGV = {
    "decompose-form-zero-denominator": ("decompose", "--kind", "g2", "--form", "1/0 e12"),
    "decompose-form-glued-monomials": ("decompose", "--kind", "g2", "--form", "e12e34"),
    "decompose-form-split-coefficient": ("decompose", "--kind", "g2", "--form", "1 2 e12"),
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
    from specasym.heat import CurvatureData

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
    """characteristic_density_form and model_traces share one cached pass:
    the input curvature is summed once, and so is the calibration family,
    the only other curvature data a call builds."""
    from specasym import cli, residue

    seen, counts = [], {}
    for name in ("_p1", "_chern"):
        real = getattr(residue, name)

        def spy(cd, real=real, name=name):
            seen.append(cd)  # keeps cd alive, so its id is not reused
            counts[id(cd), name] = counts.get((id(cd), name), 0) + 1
            return real(cd)

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
    (cd,) = loaded
    assert counts[id(cd), "_p1"] == counts[id(cd), "_chern"] == 1
    assert set(counts.values()) == {1}
    assert len(counts) == 4  # the input data and the calibration family


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
