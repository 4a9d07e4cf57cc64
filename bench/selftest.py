"""Self-test of the benchmark at the tiny size.

    python3 bench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json
with its unit (``--trace 0`` and ``--trace 1``), that a corrupted
reference digest makes the gate fail on every workload, and that the
benchmark refuses to run without the library sources. Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
sys.path.insert(0, BENCH)

import gen  # noqa: E402

TINY = ["--size", "tiny", "--seconds", "1"]


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in gen.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(["--workload", workload, "--trace", str(trace), *TINY])
            if code != 0 or result is None:
                check(False, f"{workload} --trace {trace} ran: exit {code}\n{err}")
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} --trace {trace} passes its gate")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()
                   if isinstance(m.get("value"), (int, float))}
            check(got == want, f"{workload} --trace {trace} emits every {group} metric with its unit")
            if group == "end_to_end":
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{workload} end-to-end metrics are nonzero")

    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(BENCH, "references.json")) as fh:
        refs = json.load(fh)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in gen.WORKLOADS:
            corrupt = json.loads(json.dumps(refs))
            cases = corrupt["tiny"][workload]
            entry = cases[sorted(cases)[0]]
            key = sorted(k for k in entry if k != "exit")[0]
            entry[key] = "0" * 64
            path = os.path.join(tmp, f"corrupt-{workload}.json")
            with open(path, "w") as fh:
                json.dump(corrupt, fh)
            code, result, _ = run(["--workload", workload, "--trace", "0", "--seed",
                                   str(refs["seed"]), "--references", path, *TINY])
            check(code == 0 and result is not None and result["failed"] > 0
                  and not result["correct"],
                  f"{workload}: a corrupted '{key}' digest makes fail_frac > 0")

            if workload == "torus-spectrum":
                # spectrum digests hold on every seed, so the gate fails there too
                code, result, _ = run(["--workload", workload, "--trace", "0", "--seed",
                                       str(refs["seed"] + 1), "--references", path, *TINY])
                check(code == 0 and result is not None and result["failed"] > 0,
                      f"{workload}: the corrupted digest also fails on another seed")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = run(["--workload", gen.WORKLOADS[0], "--trace", "0", *TINY], cwd=bare)
        check(code != 0 and result is None,
              "without the library sources the benchmark exits nonzero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
