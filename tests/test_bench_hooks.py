"""The library names the benchmark reaches into must exist.

``bench/spans.py`` wraps every ``(module, attr)`` of ``SPANS``, and
``bench/run.py`` swaps the two densities on ``specasym.cli`` and probes
``calibration_constant`` on the standard structures.  A rename in ``src/``
breaks those runs; these tests catch it without running the benchmark.
So do the check-name digests of the ``verify`` suites, which
``bench/references.json`` holds.
"""

import hashlib
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans().SPANS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in SPANS],
                         ids=[f"{m}.{a}" for m, a, _ in SPANS])
def test_every_span_target_resolves(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        assert inspect.isclass(cls)
        # the tracer patches the class attribute itself, so it must be defined there
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(mod, attr))


@pytest.mark.parametrize("module,attr", [
    ("specasym.cli", "mehler_diag_trace"),
    ("specasym.cli", "duhamel_density"),
    ("specasym.heat", "calibration_constant"),
    ("specasym.holonomy", "standard_structure"),
])
def test_names_the_benchmark_runner_reads_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def _verify_references():
    with open(_BENCH / "references.json") as fh:
        return json.load(fh)["full"]["verify-structure"]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("suite", ["algebra", "holonomy", "spectrum"])
def test_verify_rows_match_the_benchmark_checks_digest(suite, seed):
    """The ``verify-structure`` gate digests the (name, status) list of each
    suite and compares it on every seed, so a renamed, dropped or failing
    row breaks the benchmark; this catches it in process."""
    from specasym.verify import run_suites

    rows = [[r.name, r.status] for r in run_suites([suite], seed)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _verify_references()[f"verify-{suite}"]["checks"]
