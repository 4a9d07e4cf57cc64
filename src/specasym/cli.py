"""Command-line interface: verification suites, decompositions, residues,
and flat-torus spectrum export.

Exit codes: 0 success, 1 invariant failure, 2 input error, 3 I/O error
(also when the reader closes stdout early, as ``| head`` does).
All JSON output is deterministic: keys sorted, floats at 17 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import pi

from .exact import Scalar
from .exterior import DiffForm, indices_of, parse_form
from .heat import CurvatureData, CurvatureError, duhamel_density, mehler_diag_trace
from .holonomy import decompose_two_form, standard_structure
from .residue import full_residue_report, report_sign
from .spectrum import (
    enumerate_levels,
    twisted_levels,
    write_levels_csv,
    zeta_partial,
)
from .verify import run_suites

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_IO = 3


def _f17(x: float) -> float:
    return float(f"{x:.17g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return _f17(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Scalar):
        return {"exact": repr(obj)}
    return obj


def _dump_json(obj, stream=None):
    print(json.dumps(_jsonable(obj), sort_keys=True, indent=2), file=stream or sys.stdout)


def _form_to_dict(form: DiffForm):
    out = {}
    for m in sorted(form.terms, key=indices_of):
        key = "e" + "".join(str(i) for i in indices_of(m)) if m else "1"
        c = form.terms[m]
        if isinstance(c, Scalar):
            out[key] = {"exact": repr(c), "float": _f17(c.real_float())}
        elif isinstance(c, Fraction):
            out[key] = {"exact": str(c), "float": _f17(float(c))}
        else:
            out[key] = {"float": _f17(float(c))}
    return out


# ----------------------------------------------------------------------
# curvature input files
# ----------------------------------------------------------------------

# Fraction expands a decimal exponent in full ("1e-999999999" would be a
# 10^9-digit integer), so text length and exponent are capped before it runs;
# 600 digits stay under every int() digit limit Python allows (at least 640).
_MAX_LENGTH = _MAX_EXPONENT = 600
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _parse_number(text: str) -> Fraction:
    """Exact rational from text such as "-1/2" or "1e-3"; ValueError past the
    caps or where Fraction fails, ZeroDivisionError for a zero denominator."""
    exp = _EXPONENT.search(text)
    if len(text) > _MAX_LENGTH or (exp and abs(int(exp.group(1))) > _MAX_EXPONENT):
        raise ValueError(f"number text longer than {_MAX_LENGTH} characters "
                         f"or with an exponent past {_MAX_EXPONENT}")
    return Fraction(text)


def _json_number(text: str) -> Fraction:
    try:
        return _parse_number(text)
    except ValueError as exc:
        raise CurvatureError(f"bad number in curvature file: {exc}") from None


def _rational(x, what: str) -> Fraction:
    """An exact rational from a JSON value: an integer, a number or a string
    such as "1/3".  Booleans, NaN, infinities and other types are rejected."""
    if isinstance(x, (int, Fraction, str)) and not isinstance(x, bool):
        try:
            return _parse_number(x) if isinstance(x, str) else Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise CurvatureError(f"{what} must be a rational number, got {x!r}")


def _index(x, what: str) -> int:
    v = _rational(x, what)
    if v.denominator != 1:
        raise CurvatureError(f"{what} must be an integer, got {x!r}")
    return int(v)


def _rows(doc, key: str, length: int) -> list:
    rows = doc.get(key, [])
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != length for row in rows
    ):
        raise CurvatureError(f"field {key!r} must be a list of {length}-element lists")
    return rows


def load_curvature(path: str) -> CurvatureData:
    """Read the JSON curvature schema with exact number parsing.

    Schema: {"n": 7|8, "rank": r, "R": [[i,j,k,l,value], ...],
             "F": [[i, j, [[[re,im], ...] x r rows]], ...]}.
    Symmetry closure is applied; conflicting redundant entries are
    rejected rather than averaged.
    """
    with open(path) as fh:
        doc = json.load(fh, parse_float=_json_number, parse_int=lambda text: (
            int(text) if len(text) <= _MAX_LENGTH else _json_number(text)))
    if not isinstance(doc, dict):
        raise CurvatureError("curvature file must contain a JSON object")
    n = doc.get("n")
    if isinstance(n, bool) or n not in (7, 8):
        raise CurvatureError("field 'n' must be 7 or 8")
    n = int(n)
    rank = doc.get("rank", 1)
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise CurvatureError("field 'rank' must be a positive integer")
    r_entries = {}
    for row in _rows(doc, "R", 5):
        key = tuple(_index(idx, f"R index in {row}") for idx in row[:4])
        if any(not (1 <= idx <= n) for idx in key):
            raise CurvatureError(f"R indices out of range in {row}")
        v = _rational(row[4], f"R value in {row}")
        if key in r_entries and r_entries[key] != v:
            raise CurvatureError(f"conflicting duplicate R entry {row}")
        r_entries[key] = v
    f_entries = {}
    for row in _rows(doc, "F", 3):
        i, j = (_index(idx, f"F index in {row}") for idx in row[:2])
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise CurvatureError(f"bad F indices ({i}, {j})")
        mat = row[2]
        if not isinstance(mat, list) or len(mat) != rank or any(
            not isinstance(r_, list) or len(r_) != rank for r_ in mat
        ):
            raise CurvatureError(f"F[{i},{j}] matrix must be {rank}x{rank}")
        if any(not isinstance(c, list) or len(c) != 2 for r_ in mat for c in r_):
            raise CurvatureError(f"F[{i},{j}] entries must be [re, im] pairs")
        what = f"F[{i},{j}] entry"
        entries = tuple(
            tuple(Scalar.term(_rational(c[0], what), _rational(c[1], what)) for c in r_)
            for r_ in mat
        )
        key, flip = ((i, j), False) if i < j else ((j, i), True)
        if flip:
            entries = tuple(tuple(-x for x in row_) for row_ in entries)
        if key in f_entries and f_entries[key] != entries:
            raise CurvatureError(f"conflicting redundant F entries for {key}")
        f_entries[key] = entries
    # the constructor enforces the index symmetries and skew-Hermiticity
    return CurvatureData(n, rank, r_entries, f_entries)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_INPUT
    names = ["algebra", "holonomy", "heat", "spectrum"] if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    failures = [r for r in results if r.status == "fail"]
    for r in results:
        line = f"[{r.status.upper():4s}] {r.name}"
        if r.detail:
            line += f" -- {r.detail}"
        print(line)
    summary = {
        "suite": args.suite,
        "checks": [r.to_dict() for r in results],
        "failed": len(failures),
    }
    if args.json:
        payload = json.dumps(_jsonable(summary), sort_keys=True, indent=2)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as exc:
                print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
                return EXIT_IO
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        for r in failures:
            print(f"FAILED: {r.name}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_decompose(args) -> int:
    try:
        s = standard_structure(args.kind)
        form = parse_form(s.n, args.form)
        if not form.is_zero() and form.degree() != 2:
            print(f"error: expected a 2-form, got degrees {form.degrees()}", file=sys.stderr)
            return EXIT_INPUT
        a7, rest = decompose_two_form(s, form)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    big = "14" if s.kind == "g2" else "21"
    _dump_json(
        {
            "kind": s.kind,
            "input": _form_to_dict(form),
            "p7": _form_to_dict(a7),
            f"p{big}": _form_to_dict(rest),
            "norms": {
                "p7": {"exact": str(a7.norm_sq()), "float": _f17(float(a7.norm_sq()))},
                f"p{big}": {
                    "exact": str(rest.norm_sq()),
                    "float": _f17(float(rest.norm_sq())),
                },
            },
        }
    )
    return EXIT_OK


def cmd_residue(args) -> int:
    try:
        cd = load_curvature(args.input)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CurvatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    s = standard_structure(args.kind)
    if cd.n != s.n:
        print(f"error: curvature dimension {cd.n} does not match {args.kind}", file=sys.stderr)
        return EXIT_INPUT
    report = full_residue_report(s, cd)
    signs = report_sign(report)
    payload = report.to_dict()
    payload["density"] = _form_to_dict(report.density)
    payload["sign"] = {
        "sign": signs.sign,
        "is_instanton": signs.is_instanton,
        "note": signs.note,
    }
    if args.oracle:
        power = Fraction(-s.degree, 2)
        a = mehler_diag_trace(s, cd).t_coefficient(power)
        b = duhamel_density(s, cd).t_coefficient(power)
        if a == b:
            rel = 0.0
        else:
            fa, fb = a.evalf(), b.evalf()
            rel = abs(fa - fb) / max(abs(fa), abs(fb), 1e-300)
        payload["oracle"] = {
            "mehler_coefficient": {"exact": repr(a)},
            "duhamel_coefficient": {"exact": repr(b)},
            "relative_discrepancy": _f17(rel),
        }
    _dump_json(payload)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.qmax < 1:
        print("error: --qmax must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if args.theta:
        try:
            theta = [_parse_number(x) for x in args.theta.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: bad --theta: {exc}", file=sys.stderr)
            return EXIT_INPUT
        try:
            levels = twisted_levels(args.n, theta, args.qmax)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        levels = enumerate_levels(args.n, args.qmax)
    try:
        write_levels_csv(levels, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    n7 = sum(lv.mult_7 for lv in levels)
    nbig = sum(lv.mult_big for lv in levels)
    s_probe = 4.0 if args.n == 7 else 4.5
    zdelta, _ = zeta_partial(levels, "delta", s_probe)
    print(f"levels = {len(levels)}")
    print(f"N_7 = {n7}")
    print(f"N_big = {nbig}")
    print(f"N_big / N_7 = {Fraction(nbig, n7) if n7 else 'n/a'}")
    print(f"zeta_delta_partial = {_f17(zdelta)}")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specasym",
        description="Holonomy 2-form decompositions, model heat kernels, "
        "zeta residues, and flat-torus spectra.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("--suite", choices=["algebra", "holonomy", "heat", "spectrum", "all"],
                   default="all")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", help="write the machine-readable report here ('-' for stdout)")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("decompose", help="split a 2-form into irreducible parts")
    d.add_argument("--kind", choices=["g2", "spin7"], required=True)
    d.add_argument("--form", required=True, help="e.g. '3 e12 - e45'")
    d.set_defaults(func=cmd_decompose)

    r = sub.add_parser("residue", help="zeta-residue pipeline on a curvature file")
    r.add_argument("--kind", choices=["g2", "spin7"], required=True)
    r.add_argument("--input", required=True, help="curvature JSON file")
    r.add_argument("--oracle", action="store_true",
                   help="also run the Duhamel oracle and print the discrepancy")
    r.set_defaults(func=cmd_residue)

    sp = sub.add_parser("spectrum", help="export flat-torus 2-form spectra as CSV")
    sp.add_argument("--n", type=int, choices=[7, 8], required=True)
    sp.add_argument("--qmax", type=int, required=True)
    sp.add_argument("--theta", help="comma-separated twist angles, e.g. '1/2,0,0,0,0,0,0'")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=cmd_spectrum)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a small report sits in the buffer: write it here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): the flush at interpreter
        # exit would fail again, so it goes to the null device instead
        _stdout_to_devnull()
        return EXIT_IO


def _stdout_to_devnull():
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-process stream such as StringIO has no descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
