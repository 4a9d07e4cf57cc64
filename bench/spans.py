"""Spans and counts recorded from outside the library.

``Tracer.installed()`` swaps each public function listed in ``SPANS`` for
a wrapper that records a span (name, start, end, parent, case id). Every
binding of the function inside the ``specasym`` package is swapped, so
calls made through ``from .heat import ...`` names are seen too. Hooks in
``COUNTS`` add counts from the returned values. Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name); "Class.method" names patch the class.
SPANS = [
    ("specasym.cli", "load_curvature", "cli.load_curvature"),
    ("specasym.heat", "q_matrix", "heat.q_matrix"),
    ("specasym.heat", "mehler_det_factor", "heat.mehler_det_factor"),
    ("specasym.heat", "model_constant_potential", "heat.model_constant_potential"),
    ("specasym.heat", "curvature_exponential", "heat.curvature_exponential"),
    ("specasym.heat", "mehler_kernel", "heat.mehler_kernel"),
    ("specasym.heat", "duhamel_kernel", "heat.duhamel_kernel"),
    ("specasym.heat", "density_from_kernel", "heat.density_from_kernel"),
    ("specasym.wordops", "WordOperator._mul_op", "wordops.kernel_product"),
    ("specasym.wordops", "WordOperator.form_trace", "wordops.form_trace"),
    ("specasym.residue", "full_residue_report", "residue.full_residue_report"),
    ("specasym.residue", "sign_report", "residue.sign_report"),
    ("specasym.holonomy", "instanton_check", "holonomy.instanton_check"),
    ("specasym.holonomy", "projections", "holonomy.projections"),
    ("specasym.spectrum", "shell_counts", "spectrum.shell_counts"),
    ("specasym.spectrum", "twisted_levels", "spectrum.twisted_levels"),
    ("specasym.spectrum", "zeta_partial", "spectrum.zeta_partial"),
    ("specasym.spectrum", "write_levels_csv", "spectrum.write_levels_csv"),
    ("specasym.verify", "algebra_suite", "verify.algebra"),
    ("specasym.verify", "holonomy_suite", "verify.holonomy"),
    ("specasym.verify", "spectrum_suite", "verify.spectrum"),
    ("specasym.filtration", "expand_clifford_basis", "filtration.expand_clifford_basis"),
    ("specasym.filtration", "CliffordWordExpansion.reconstruct", "filtration.reconstruct"),
    ("specasym.filtration", "trace_identity_sweep", "filtration.trace_identity_sweep"),
    ("specasym.exterior", "FiberOp.adjoint", "exterior.fiber_op"),
    ("specasym.exterior", "FiberOp.__eq__", "exterior.fiber_op"),
]

# Layers are the package modules; ``self.<layer>_s`` is reported for each.
LAYERS = ("cli", "heat", "wordops", "residue", "holonomy", "spectrum",
          "verify", "filtration", "exterior")

ROOT_SPAN = "cli.main"


def _count_len(key: str) -> Callable:
    def hook(tracer: "Tracer", result) -> None:
        tracer.counts[key] += len(result if isinstance(result, list) else result.terms)
    return hook


def _keep_kernel(kind: str) -> Callable:
    def hook(tracer: "Tracer", result) -> None:
        tracer.kernels[kind].append(result)
    return hook


COUNTS = {
    "heat.curvature_exponential": [_count_len("heat.curvature_exponential_terms")],
    "heat.duhamel_kernel": [_count_len("heat.duhamel_terms"), _keep_kernel("duhamel")],
    "heat.mehler_kernel": [_keep_kernel("mehler")],
    "spectrum.twisted_levels": [_count_len("spectrum.twisted_level_count")],
}


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        # (name, start, end, parent index or -1, case id, round)
        self.spans: List[Tuple[str, float, float, int, str, int]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.kernels: Dict[str, list] = defaultdict(list)  # kernels of the current case
        self.case = ""
        self.round = 0
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.case, self.round))
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.case, self.round)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        hooks = COUNTS.get(name, ())

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for hook in hooks:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target in ``SPANS``; restore them on exit."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for module, attr, name in SPANS:
                mod = importlib.import_module(module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, name))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, name)
                for pkg_mod in _package_modules():
                    for key, val in list(vars(pkg_mod).items()):
                        if val is orig:
                            undo.append((pkg_mod, key, orig))
                            setattr(pkg_mod, key, wrapped)
                        elif isinstance(val, dict):
                            # registries such as verify.SUITES
                            for dkey, dval in list(val.items()):
                                if dval is orig:
                                    undo.append((val, dkey, orig))
                                    val[dkey] = wrapped
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = orig
                else:
                    setattr(owner, key, orig)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "specasym" or name.startswith("specasym."))]


def span_totals(spans, round_no: Optional[int] = None) -> Dict[str, float]:
    """Total time per span name and self time per layer.

    A span's self time is its duration minus that of its direct children;
    children never overlap, because the benchmark runs on one thread.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, _, rnd in spans:
        if parent >= 0 and (round_no is None or rnd == round_no):
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _, rnd) in enumerate(spans):
        if round_no is not None and rnd != round_no:
            continue
        totals[f"{name}_s"] += end - start
        totals[f"self.{name.split('.')[0]}_s"] += end - start - child_time[idx]
    return totals
