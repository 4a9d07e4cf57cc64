"""specasym benchmark: one workload per run, closed loop on one thread.

    python3 bench/run.py --workload heat-oracle --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each
    python3 bench/run.py --write-references      # regenerate references.json

A run measures set-up in fresh processes and runs rounds of the
workload's cases until ``--seconds`` have passed. A case is one ``specasym`` command run in process through
``specasym.cli.main``; the next case starts when the previous one ends.
Every run of every case goes through the exact-output gate (gate.py).
Times are scaled by a fixed reference computation run next to each case
and each set-up probe (reference.py), so that a busy neighbour on a shared
machine moves them less.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics from traced rounds (spans.py), which alternate with
untraced rounds so that the tracing overhead can be reported, and writes
the spans to ``bench/.work``. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import gate
import gen
import reference
from spans import ROOT_SPAN, Tracer, span_totals

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
REFERENCES = os.path.join(BENCH, "references.json")

SCALAR_BATCH = 32  # coefficients per case; their products are timed
SETUP_PROBES = 4  # fresh-process set-up probes after the rounds; their median is setup_s
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from specasym.heat import calibration_constant
from specasym.holonomy import standard_structure
for kind in ("g2", "spin7"):
    calibration_constant(standard_structure(kind))
print(time.perf_counter() - start)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "g2_s": "s",
    "spin7_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "heat.curvature_exponential_s": "s",
    "heat.curvature_exponential_terms": "count",
    "heat.mehler_det_factor_s": "s",
    "heat.q_matrix_s": "s",
    "heat.model_constant_potential_s": "s",
    "heat.mehler_kernel_s": "s",
    "wordops.kernel_product_s": "s",
    "wordops.form_trace_s": "s",
    "heat.density_from_kernel_s": "s",
    "heat.useful_term_frac": "ratio",
    "heat.duhamel_kernel_s": "s",
    "heat.duhamel_terms": "count",
    "exact.scalar_mul_s": "s",
    "exact.max_coeff_bits": "bits",
    "cli.load_curvature_s": "s",
    "residue.full_residue_report_s": "s",
    "residue.sign_report_s": "s",
    "holonomy.instanton_check_s": "s",
    "spectrum.twisted_levels_s": "s",
    "spectrum.twisted_level_count": "count",
    "spectrum.shell_counts_s": "s",
    "spectrum.zeta_partial_s": "s",
    "spectrum.write_levels_csv_s": "s",
    "verify.algebra_s": "s",
    "verify.holonomy_s": "s",
    "verify.spectrum_s": "s",
    "filtration.expand_clifford_basis_s": "s",
    "filtration.reconstruct_s": "s",
    "filtration.trace_identity_sweep_s": "s",
    "holonomy.projections_s": "s",
    "exterior.fiber_op_s": "s",
    "self.cli_s": "s",
    "self.heat_s": "s",
    "self.wordops_s": "s",
    "self.residue_s": "s",
    "self.holonomy_s": "s",
    "self.spectrum_s": "s",
    "self.verify_s": "s",
    "self.filtration_s": "s",
    "self.exterior_s": "s",
    "trace.overhead_s": "s",
}
# per-layer counts: identical on every round, so taken from one round
COUNT_METRICS = ("heat.curvature_exponential_terms", "heat.duhamel_terms",
                 "heat.useful_term_frac", "exact.max_coeff_bits",
                 "spectrum.twisted_level_count")


class Runner:
    """Runs the cases of one workload and gates every output."""

    def __init__(self, cases, references, default_seed: bool):
        from specasym import cli

        self.cli = cli
        self.cases = cases
        self.references = references
        self.default_seed = default_seed
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.captured = {}
        self.last_seconds = {}  # case id -> seconds of its latest run

    @contextlib.contextmanager
    def capturing(self):
        """Keep the full Laurent densities that ``residue --oracle`` computes."""
        originals = {key: getattr(self.cli, name) for key, name in
                     (("mehler", "mehler_diag_trace"), ("duhamel", "duhamel_density"))}

        def keep(key, fn):
            def inner(*args, **kwargs):
                self.captured[key] = fn(*args, **kwargs)
                return self.captured[key]
            return inner

        try:
            self.cli.mehler_diag_trace = keep("mehler", originals["mehler"])
            self.cli.duhamel_density = keep("duhamel", originals["duhamel"])
            yield
        finally:
            self.cli.mehler_diag_trace = originals["mehler"]
            self.cli.duhamel_density = originals["duhamel"]

    def run_case(self, case, tracer=None):
        """Run and gate one case; return its seconds."""
        if case.out and os.path.exists(case.out):
            os.remove(case.out)
        self.captured.clear()
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
                code = self.cli.main(case.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            stderr.write(traceback.format_exc())
        seconds = perf_counter() - start

        files = {}
        if case.out and os.path.exists(case.out):
            with open(case.out) as fh:
                files[case.out] = fh.read()
        out = stdout.getvalue()
        try:
            errors = gate.invariants(case, code, out, self.captured, files)
            got = gate.digests(case, code, out, self.captured, files)
        except (ValueError, KeyError, TypeError) as exc:
            errors, got = [f"unreadable output: {exc!r}"], {}
        if code != 0 and stderr.getvalue():
            errors.append(stderr.getvalue().strip().splitlines()[-1])
        self.digests[case.cid] = got
        if self.references is not None:
            errors += gate.compare(got, self.references.get(case.cid), self.default_seed)
        self.attempted += 1
        if errors:
            self.failed += 1
            for err in errors:
                print(f"FAIL {case.cid}: {err}", file=sys.stderr)
        return seconds

    def run_round(self, tracer=None, stats=None, stop_at=None):
        """Run every case once between reference timings, or stop at the
        first case that would start after ``stop_at``.

        Returns ``{case id: (seconds, reference-scaled seconds)}``; the
        reference runs before the first case and after every case, as
        often as the case's length asks for.
        """
        times = {}
        before = reference.seconds_around(self.last_seconds.get(self.cases[0].cid, 0.0))
        for case in self.cases:
            if stop_at is not None and perf_counter() >= stop_at:
                break
            if tracer:
                tracer.case = case.cid
            seconds = self.run_case(case, tracer)
            if tracer:
                _kernel_stats(tracer, stats)
            after = reference.seconds_around(seconds)
            times[case.cid] = (seconds, reference.scaled(seconds, before, after))
            self.last_seconds[case.cid] = seconds
            before = after
        return times

    def totals(self, rounds, raw=False):
        """wall_s, g2_s and spin7_s: sums over cases of each case's median
        reference-scaled seconds, or with ``raw`` of its minimum seconds."""
        out = {"wall_s": 0.0, "g2_s": 0.0, "spin7_s": 0.0}
        for case in self.cases:
            if raw:
                seconds = min(r[case.cid][0] for r in rounds if case.cid in r)
            else:
                seconds = statistics.median(r[case.cid][1] for r in rounds if case.cid in r)
            out["wall_s"] += seconds
            if case.n in (7, 8):
                out["g2_s" if case.n == 7 else "spin7_s"] += seconds
        return out


def _kernel_stats(tracer, stats) -> None:
    """Counts on the heat kernels of the case just run (outside its timing)."""
    mehler, duhamel = tracer.kernels["mehler"], tracer.kernels["duhamel"]
    tracer.kernels.clear()
    for k in mehler:
        stats["mehler_terms"] += len(k.terms)
        stats["useful_terms"] += sum(
            1 for (f, c, h) in k.terms
            if not c and not h and bin(f).count("1") == k.n - gate.DEFINING_DEGREE[k.n])
    for k in mehler + duhamel:
        stats["exact.max_coeff_bits"] = max(stats["exact.max_coeff_bits"], _max_bits(k))
    if mehler:
        stats["exact.scalar_mul_s"] += _scalar_batch_seconds(max(mehler, key=lambda k: len(k.terms)))


def _max_bits(kernel) -> int:
    best = 0
    for mat in kernel.terms.values():
        for row in mat:
            for x in row:
                for re, im in x.terms.values():
                    for f in (re, im):
                        best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


def _scalar_batch_seconds(kernel) -> float:
    coeffs = [x for key in sorted(kernel.terms) for row in kernel.terms[key]
              for x in row if not x.is_zero()][:SCALAR_BATCH]
    start = perf_counter()
    for a in coeffs:
        for b in coeffs:
            a * b
    return perf_counter() - start


@contextlib.contextmanager
def _cpu_rotation():
    """Yield ``pin(k)``, which moves this process to the k-th allowed CPU.

    Neighbours on a shared machine can slow one CPU for tens of seconds.
    Rounds on alternate CPUs let each case's minimum come from a CPU that
    was not slowed. Pinning is skipped where the platform lacks it.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:
        yield lambda k: None
        return

    def pin(k: int) -> None:
        os.sched_setaffinity(0, {allowed[k % len(allowed)]})

    try:
        yield pin
    finally:
        os.sched_setaffinity(0, allowed)


def setup_seconds(probes: int) -> list:
    """Import plus structures plus calibration in fresh interpreters.

    Each probe runs between two import references and is scaled by them
    (``reference.import_seconds``).
    """
    before = reference.import_seconds()
    out = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        after = reference.import_seconds()
        out.append(reference.scaled(float(proc.stdout), before, after,
                                    reference.IMPORT_NOMINAL))
        before = after
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "specasym")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_references(path: str, size: str, workload: str):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["seed"], doc[size].get(workload, {})


def run_workload(args) -> dict:
    from specasym.heat import calibration_constant
    from specasym.holonomy import standard_structure

    for kind in ("g2", "spin7"):
        calibration_constant(standard_structure(kind))
    ref_seed, refs = load_references(args.references, args.size, args.workload)
    os.makedirs(WORK, exist_ok=True)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        cases = gen.build_cases(args.workload, args.seed, args.size, workdir)
        runner = Runner(cases, refs, args.seed == ref_seed)
        tracer = Tracer()
        plain, traced, layer_rounds = [], [], []
        with runner.capturing(), _cpu_rotation() as next_cpu:
            deadline = perf_counter() + args.seconds
            # the first round is untimed: it fills the library's caches; it
            # is gated like every other round
            runner.run_round()
            while True:
                # in a traced run, an untraced round and the traced round
                # after it share a CPU
                next_cpu(len(traced) if args.trace else len(plain))
                if args.trace and len(plain) > len(traced):
                    tracer.round += 1
                    stats = {"mehler_terms": 0, "useful_terms": 0,
                             "exact.max_coeff_bits": 0, "exact.scalar_mul_s": 0.0}
                    tracer.counts.clear()
                    with tracer.installed():
                        traced.append(runner.run_round(tracer, stats))
                    layer_rounds.append(_layer_values(span_totals(tracer.spans, tracer.round),
                                                      tracer.counts, stats))
                else:
                    # after one whole round, a round may stop at the deadline
                    stop_at = deadline if plain and not args.trace else None
                    plain.append(runner.run_round(stop_at=stop_at))
                if perf_counter() >= deadline and plain and (not args.trace or traced):
                    break
    setup = [] if args.trace else setup_seconds(SETUP_PROBES)

    if args.trace:
        metrics = {name: min(r[name] for r in layer_rounds) for name in PER_LAYER
                   if name not in COUNT_METRICS and name != "trace.overhead_s"}
        for name in COUNT_METRICS:
            values = {r[name] for r in layer_rounds}
            if len(values) > 1:
                print(f"warning: {name} differs between rounds: {sorted(values)}", file=sys.stderr)
            metrics[name] = layer_rounds[0][name]
        metrics["trace.overhead_s"] = (runner.totals(traced)["wall_s"]
                                       - runner.totals(plain)["wall_s"])
        units = PER_LAYER
        _write_spans(args, env, tracer)
    else:
        metrics = runner.totals(plain)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    rounds = traced if args.trace else plain
    walls = sorted(sum(seconds for seconds, _ in r.values()) for r in rounds
                   if len(r) == len(cases))
    print(f"workload {args.workload}: {len(cases)} cases, {len(rounds)} measured rounds "
          f"(the last may stop at the deadline); times are per-case medians "
          f"of reference-scaled seconds")
    print(f"  round wall (unscaled): median {statistics.median(walls):.6g} s, "
          f"quartiles {_quartiles(walls)}, n = {len(walls)}")
    raw = runner.totals(rounds, raw=True)
    print("  unscaled per-case minima: " + ", ".join(f"{k} = {v:.6g} s" for k, v in raw.items()))
    for case in cases:
        scaled = sorted(r[case.cid][1] for r in rounds if case.cid in r)
        print(f"  case {case.cid}: scaled median {statistics.median(scaled):.4g} s, "
              f"range {scaled[0]:.4g}..{scaled[-1]:.4g} s")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  fail_frac = {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6g}..{q3:.6g} s"


def _layer_values(totals, counts, stats) -> dict:
    out = {name: totals.get(name, 0.0) for name in PER_LAYER if name.endswith("_s")}
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    out["exact.max_coeff_bits"] = stats["exact.max_coeff_bits"]
    out["exact.scalar_mul_s"] = stats["exact.scalar_mul_s"]
    total = stats["mehler_terms"]
    out["heat.useful_term_frac"] = stats["useful_terms"] / total if total else 0.0
    return out


def _write_spans(args, env, tracer) -> None:
    path = os.path.join(WORK, f"spans-{args.workload}-{args.size}-seed{args.seed}.json")
    fields = ("name", "start", "end", "parent", "case", "round")
    with open(path, "w") as fh:
        json.dump({"env": env, "workload": args.workload, "fields": fields,
                   "spans": tracer.spans}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def run_all(args) -> dict:
    """Run every workload in its own process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--references", args.references]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    return merged


def write_references(args) -> int:
    """Digest every case once at the default seed, for every size."""
    doc = {"seed": gen.DEFAULT_SEED}
    os.makedirs(WORK, exist_ok=True)
    for size in gen.SIZES:
        doc[size] = {}
        for workload in gen.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=WORK) as workdir:
                cases = gen.build_cases(workload, gen.DEFAULT_SEED, size, workdir)
                runner = Runner(cases, None, True)
                with runner.capturing():
                    runner.run_round()
            if runner.failed:
                print(f"error: {workload} ({size}) fails its checks", file=sys.stderr)
                return 1
            doc[size][workload] = runner.digests
            print(f"{size} {workload}: {len(cases)} cases digested")
    with open(args.references, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="specasym benchmark")
    p.add_argument("--workload", choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(gen.SIZES), default="full")
    p.add_argument("--references", default=REFERENCES, help="reference digests (JSON)")
    p.add_argument("--write-references", action="store_true",
                   help="digest the default seed and write --references")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "specasym", "cli.py")):
        print(f"error: no specasym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_references:
        return write_references(args)
    if not args.workload:
        p.error("--workload is required")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
