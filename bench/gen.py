"""Seeded inputs for the specasym benchmark.

A workload is a list of cases. A case is one ``specasym`` command line,
run in process through ``specasym.cli.main``, plus the input files it
reads. Curvature inputs are written as JSON in the ``load_curvature``
schema, so the program receives only files.

Sizes are fixed per workload in ``SIZES``. Sparsity patterns come from
the case name alone, and ``--seed`` picks the rational values. The work
in a case therefore hardly depends on the seed; the digits do.

Write the inputs of one workload for inspection with::

    python3 bench/gen.py --workload heat-oracle --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional

WORKLOADS = ("heat-oracle", "bundle-many", "torus-spectrum", "verify-structure")
DEFAULT_SEED = 0

# heat-oracle: (case, kind, rank, Riemann entries, bundle entries)
# bundle-many: (kind, rank, style, generators); R = 0 throughout
# torus-spectrum: (case, n, q_max, twist denominators or None)
# verify-structure: verify suites, then 2-forms per kind for `decompose`
SIZES = {
    "full": {
        "heat-oracle": [
            ("g2-r1", "g2", 1, 15, 3),
            ("g2-r2", "g2", 2, 12, 3),
            ("spin7-r1", "spin7", 1, 18, 4),
        ],
        "bundle-many": [
            (kind, rank, style, gens)
            for kind in ("g2", "spin7")
            for rank in (2, 3, 4)
            for style, gens in (("instanton", 2), ("generic", 6))
        ],
        "torus-spectrum": [
            ("n7-untwisted", 7, 1000, None),
            ("n8-untwisted", 8, 1000, None),
            ("n7-twisted", 7, 7, (2, 3, 4, 1, 1, 1, 1)),
            ("n8-twisted", 8, 5, (2, 3, 4, 1, 1, 1, 1, 1)),
        ],
        "verify-structure": {"suites": ("algebra", "holonomy", "spectrum"), "forms": 8},
    },
    "tiny": {
        "heat-oracle": [("g2-r1", "g2", 1, 6, 2), ("spin7-r1", "spin7", 1, 4, 2)],
        "bundle-many": [("g2", 2, "instanton", 1), ("spin7", 2, "generic", 2)],
        "torus-spectrum": [
            ("n7-untwisted", 7, 40, None),
            ("n8-twisted", 8, 3, (2, 3, 1, 1, 1, 1, 1, 1)),
        ],
        "verify-structure": {"suites": ("spectrum",), "forms": 2},
    },
}


@dataclass
class Case:
    """One command of a workload."""

    cid: str                   # unique within the workload
    n: Optional[int]           # 7 or 8; None for a case that is neither
    argv: List[str]            # arguments for specasym.cli.main
    out: Optional[str] = None  # file the command writes, if any


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _skew_hermitian(rank: int, rng: random.Random):
    """i*H for a random rational Hermitian H, as [[(re, im), ...], ...]."""
    herm = [[(Fraction(0), Fraction(0))] * rank for _ in range(rank)]
    for a in range(rank):
        herm[a][a] = (_nonzero_rational(rng), Fraction(0))
        for b in range(a + 1, rank):
            re, im = _nonzero_rational(rng), _nonzero_rational(rng)
            herm[a][b] = (re, im)
            herm[b][a] = (re, -im)
    # i * (re + i im) = -im + i re
    return [[(-im, re) for re, im in row] for row in herm]


def _curvature_doc(n: int, rank: int, r_entries, f_entries) -> dict:
    """The ``load_curvature`` schema, with exact rationals as strings."""
    return {
        "n": n,
        "rank": rank,
        "R": [[*key, str(v)] for key, v in sorted(r_entries.items())],
        "F": [
            [i, j, [[[str(re), str(im)] for re, im in row] for row in mat]]
            for (i, j), mat in sorted(f_entries.items())
        ],
    }


def heat_doc(cid: str, kind: str, rank: int, n_r: int, n_f: int, seed: int) -> dict:
    """Riemann plus bundle curvature on a fixed sparsity pattern."""
    n = 7 if kind == "g2" else 8
    pattern = random.Random(f"heat-oracle/{cid}")
    values = random.Random(f"{seed}/heat-oracle/{cid}")
    pairs = _pairs(n)
    quads = [a + b for x, a in enumerate(pairs) for b in pairs[x:]]
    r_entries = {key: _nonzero_rational(values) for key in pattern.sample(quads, n_r)}
    f_entries = {ij: _skew_hermitian(rank, values) for ij in pattern.sample(pairs, n_f)}
    return _curvature_doc(n, rank, r_entries, f_entries)


def bundle_doc(kind: str, rank: int, style: str, gens: int, seed: int, cid: str) -> dict:
    """Bundle curvature only (R = 0).

    ``instanton``: F = sum_a P_big(e^{b_a}) (x) i H_a, which has no 7-part,
    like ``residue.instanton_line_curvature`` at higher rank.
    ``generic``: i H on ``gens`` coordinate planes, not an instanton.
    """
    from specasym.exterior import DiffForm, indices_of
    from specasym.holonomy import decompose_two_form, standard_structure

    n = 7 if kind == "g2" else 8
    pattern = random.Random(f"bundle-many/{cid}")
    values = random.Random(f"{seed}/bundle-many/{cid}")
    planes = pattern.sample(_pairs(n), gens)
    f_entries: Dict = {}
    if style == "generic":
        for ij in planes:
            f_entries[ij] = _skew_hermitian(rank, values)
        return _curvature_doc(n, rank, {}, f_entries)
    s = standard_structure(kind)
    for ij in planes:
        _, big = decompose_two_form(s, DiffForm.monomial(n, ij))
        mat = _skew_hermitian(rank, values)
        for m, c in big.terms.items():
            key = indices_of(m)
            acc = f_entries.get(key, [[(Fraction(0), Fraction(0))] * rank for _ in range(rank)])
            f_entries[key] = [
                [(x[0] + c * y[0], x[1] + c * y[1]) for x, y in zip(ra, rb)]
                for ra, rb in zip(acc, mat)
            ]
    return _curvature_doc(n, rank, {}, f_entries)


def twist(denoms, seed: int, cid: str) -> List[Fraction]:
    """Angles a/d with a a random unit mod d, in a random coordinate order.

    theta -> 1 - theta and permuting coordinates leave the level set of
    |k + theta|^2 unchanged, so every seed has the same exact spectrum.
    """
    rng = random.Random(f"{seed}/torus-spectrum/{cid}")
    theta = []
    for d in denoms:
        units = [a for a in range(1, d) if gcd(a, d) == 1]
        theta.append(Fraction(rng.choice(units), d) if units else Fraction(0))
    rng.shuffle(theta)
    return theta


def two_form_text(n: int, rng: random.Random, terms: int = 6) -> str:
    """A random 2-form in the ``decompose --form`` syntax."""
    parts = []
    for i, j in rng.sample(_pairs(n), terms):
        c = _nonzero_rational(rng)
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)} e{i}{j}")
    return " ".join(parts).lstrip("+ ")


def build_cases(workload: str, seed: int, size: str, workdir: str) -> List[Case]:
    """Write the inputs of ``workload`` into ``workdir`` and list its cases."""
    spec = SIZES[size][workload]
    cases: List[Case] = []
    if workload == "heat-oracle":
        for cid, kind, rank, n_r, n_f in spec:
            path = _write_json(workdir, cid, heat_doc(cid, kind, rank, n_r, n_f, seed))
            n = 7 if kind == "g2" else 8
            cases.append(Case(cid, n, ["residue", "--kind", kind, "--input", path, "--oracle"]))
    elif workload == "bundle-many":
        for kind, rank, style, gens in spec:
            cid = f"{kind}-r{rank}-{style}"
            path = _write_json(workdir, cid, bundle_doc(kind, rank, style, gens, seed, cid))
            n = 7 if kind == "g2" else 8
            cases.append(Case(cid, n, ["residue", "--kind", kind, "--input", path, "--oracle"]))
    elif workload == "torus-spectrum":
        for cid, n, q_max, denoms in spec:
            out = os.path.join(workdir, f"{cid}.csv")
            argv = ["spectrum", "--n", str(n), "--qmax", str(q_max), "--out", out]
            if denoms:
                argv[-2:-2] = ["--theta", ",".join(str(t) for t in twist(denoms, seed, cid))]
            cases.append(Case(cid, n, argv, out))
    elif workload == "verify-structure":
        for suite in spec["suites"]:
            out = os.path.join(workdir, f"verify-{suite}.json")
            argv = ["verify", "--suite", suite, "--seed", str(seed), "--json", out]
            cases.append(Case(f"verify-{suite}", None, argv, out))
        for kind, n in (("g2", 7), ("spin7", 8)):
            rng = random.Random(f"{seed}/verify-structure/{kind}")
            for k in range(spec["forms"]):
                form = two_form_text(n, rng)
                cases.append(Case(f"{kind}-decompose-{k:02d}", n,
                                  ["decompose", "--kind", kind, "--form", form]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def _write_json(workdir: str, cid: str, doc: dict) -> str:
    path = os.path.join(workdir, f"{cid}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--out", required=True, help="directory for the input files")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for case in build_cases(args.workload, args.seed, args.size, args.out):
        print(case.cid, " ".join(case.argv))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    sys.exit(main())
