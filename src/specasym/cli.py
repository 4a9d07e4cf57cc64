"""Command-line interface: verification suites, decompositions, residues,
and flat-torus spectrum export.

Exit codes: 0 success, 1 invariant failure, 2 input error, 3 I/O error
(also when the reader closes stdout early, as ``| head`` does).
All JSON output is deterministic: keys sorted, floats as the ``repr`` of
the double; an exact value is a ``JsonLeaf``, {"exact": text, "float": x}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, isfinite, lcm

from .exact import Scalar
from .exterior import DiffForm, indices_of, parse_form
from .heat import duhamel_density, mehler_diag_trace
from .holonomy import projections, standard_structure
from .residue import CurvatureData, CurvatureError, full_residue_report, report_sign

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_IO = 3


# an exact value's text and float or None: {"exact": ..., "float": ...}
JsonLeaf = namedtuple("JsonLeaf", "exact float")


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` after this CLI's
    conversions: dict keys through ``str``, tuples as lists, a Fraction as
    its string, a Scalar as {"exact": repr}, a JsonLeaf as its object.  One
    recursive pass; an indented ``json.dumps`` runs in pure Python."""
    parts = []
    _json_parts(obj, "\n", parts.append)
    return "".join(parts)


def _json_parts(obj, newline: str, out) -> None:
    """Append the text of ``obj`` to ``out``; ``newline`` is "\n" plus the
    indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        out(_quote(obj))
    elif type(obj) is JsonLeaf:
        inner = newline + "  "
        out('{%s"exact": %s,%s"float": %s%s}'
            % (inner, _quote(obj.exact), inner, _float_text(obj.float), newline))
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        items = obj.items()
        if not all(type(k) is str for k in obj):
            items = {str(k): v for k, v in items}.items()
        for key, value in sorted(items):
            out(sep + _quote(key) + ": ")
            _json_parts(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out(sep)
            _json_parts(value, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif obj is True or obj is False:
        out("true" if obj else "false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif obj is None or isinstance(obj, float):
        out(_float_text(obj))
    elif isinstance(obj, Fraction):
        out(_quote(str(obj)))
    elif isinstance(obj, Scalar):
        _json_parts({"exact": repr(obj)}, newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x) -> str:
    return ("null" if x is None else float.__repr__(x) if isfinite(x) else
            "NaN" if x != x else "Infinity" if x > 0 else "-Infinity")


def _leaf(c) -> JsonLeaf:
    """The leaf of an int, Fraction or Scalar, its float None past the float
    range."""
    if not isinstance(c, Scalar):
        return _ratio_leaf(c.numerator, c.denominator)
    try:
        x = c.real_float()
    except OverflowError:
        return JsonLeaf(repr(c), None)
    return JsonLeaf(repr(c), x if isfinite(x) else None)


def _ratio_leaf(num: int, den: int) -> JsonLeaf:
    """The leaf of the rational num / den, den > 0, read off the integers:
    the text of the reduced fraction, and the float of int true division,
    which rounds as ``float(Fraction)`` does (None past the float range)."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    text = str(num) if den == 1 else f"{num}/{den}"
    try:
        x = num / den
    except OverflowError:
        return JsonLeaf(text, None)
    return JsonLeaf(text, x if isfinite(x) else None)


@cache
def _term_key(mask: int) -> str:
    return "e" + "".join(map(str, indices_of(mask))) if mask else "1"


def _form_to_dict(form: DiffForm):
    """{"e12": leaf, ...} of an exact form; the writer sorts the keys."""
    return {_term_key(m): _leaf(c) for m, c in form.terms.items()}


def _projected(den: int, nums: dict):
    """The {"e12": leaf, ...} terms and the squared-norm leaf of a 2-form
    given as integer numerators over ``den`` (``Projection.numerators``),
    both read off the integers: the norm is sum x^2 over den^2."""
    return ({_term_key(m): _ratio_leaf(x, den) for m, x in nums.items()},
            _ratio_leaf(sum(x * x for x in nums.values()), den * den))


# ----------------------------------------------------------------------
# curvature input files
# ----------------------------------------------------------------------

# Fraction expands a decimal exponent in full ("1e-999999999" would be a
# 10^9-digit integer), so text length and exponent are capped before it runs;
# 600 digits stay under every int() digit limit Python allows (at least 640).
_MAX_LENGTH = _MAX_EXPONENT = 600
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")
# plain ASCII "-12" or "3/4", which Fraction reads the same on every Python
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_number(text: str) -> Fraction:
    """Exact rational from text such as "-1/2" or "1e-3"; ValueError past the
    caps or where Fraction fails, ZeroDivisionError for a zero denominator."""
    if len(text) <= _MAX_LENGTH:
        plain = _PLAIN.fullmatch(text)
        if plain:
            num, den = plain.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
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


def _rational(x, what: str, row=None) -> Fraction:
    """An exact rational from a JSON value: an integer, a number or a string
    such as "1/3".  Booleans, NaN, infinities and other types are rejected.
    An error names the value as ``what``, "in" ``row`` if one is given; the
    row is formatted only then."""
    # str first: the ABCMeta isinstance check against Fraction is the slow one
    if isinstance(x, (str, int, Fraction)) and not isinstance(x, bool):
        try:
            return _parse_number(x) if isinstance(x, str) else Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise CurvatureError(f"{_label(what, row)} must be a rational number, got {x!r}")


def _label(what: str, row) -> str:
    return what if row is None else f"{what} in {row}"


def _ratio(x, what: str, row=None):
    """(numerator, denominator > 0) of a JSON value, not reduced.  JSON
    integers and plain ASCII text ("-12", "6/8") are read with int();
    every other form, and every bad value, goes through ``_rational``,
    whose error names ``row`` if one is given."""
    if type(x) is int:
        return x, 1
    if type(x) is str and len(x) <= _MAX_LENGTH:
        plain = _PLAIN.fullmatch(x)
        if plain:
            num, den = plain.groups()
            den = int(den) if den else 1
            if den:
                return int(num), den
    v = _rational(x, what, row)
    return v.numerator, v.denominator


def _f_numerators(mat, i: int, j: int):
    """(den, re, im) of the r x r F[i,j] matrix of [re, im] pairs: row-major
    integer numerators over one denominator, the lcm of the entries' own."""
    what = f"F[{i},{j}] entry"
    parts = [_ratio(x, what) for row in mat for pair in row for x in pair]
    den = lcm(*[d for _, d in parts])
    nums = [p * (den // d) for p, d in parts]
    return den, nums[0::2], nums[1::2]


def _same_matrix(a, b) -> bool:
    """Whether two (den, re, im) triples hold the same values."""
    (da, *pa), (db, *pb) = a, b
    return all(x * db == y * da for p, q in zip(pa, pb) for x, y in zip(p, q))


def _index(x, what: str, row) -> int:
    if type(x) is int:  # a plain JSON integer; bool is refused by _rational
        return x
    v = _rational(x, what, row)
    if v.denominator != 1:
        raise CurvatureError(f"{_label(what, row)} must be an integer, got {x!r}")
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
    Every value is read into an integer (numerator, denominator) pair,
    and ``CurvatureData.from_planes`` puts R and F over one least
    denominator each.  Symmetry closure is applied; conflicting redundant
    entries, compared by cross-multiplying, are rejected rather than
    averaged.
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
    r_ratios = {}
    for row in _rows(doc, "R", 5):
        i, j, k, l, value = row
        key = (i, j, k, l)
        if not (type(i) is type(j) is type(k) is type(l) is int):
            key = tuple(_index(idx, "R index", row) for idx in key)
        num, den = v = _ratio(value, "R value", row)
        old = r_ratios.get(key)
        if old is not None and old[0] * den != num * old[1]:
            raise CurvatureError(f"conflicting duplicate R entry {row}")
        r_ratios[key] = v
    f_planes = {}
    for row in _rows(doc, "F", 3):
        i, j = (_index(idx, "F index", row) for idx in row[:2])
        mat = row[2]
        if not isinstance(mat, list) or len(mat) != rank or any(
            not isinstance(r_, list) or len(r_) != rank for r_ in mat
        ):
            raise CurvatureError(f"F[{i},{j}] matrix must be {rank}x{rank}")
        if any(not isinstance(c, list) or len(c) != 2 for r_ in mat for c in r_):
            raise CurvatureError(f"F[{i},{j}] entries must be [re, im] pairs")
        entry = _f_numerators(mat, i, j)
        key = (i, j)
        if i > j:  # F_ji = -F_ij
            key, entry = (j, i), (entry[0], [-x for x in entry[1]], [-x for x in entry[2]])
        if key in f_planes and not _same_matrix(f_planes[key], entry):
            raise CurvatureError(f"conflicting redundant F entries for {key}")
        f_planes[key] = entry
    # the constructor checks the index ranges and symmetries and
    # skew-Hermiticity
    return CurvatureData.from_planes(n, rank, r_ratios, f_planes)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    # verify (and numpy, through filtration) loads only for this command
    from .verify import run_suites

    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_INPUT
    names = ["algebra", "holonomy", "heat", "spectrum"] if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    failures = [r for r in results if r.status == "fail"]
    # with --json -, stdout carries the JSON document alone
    report = sys.stderr if args.json == "-" else sys.stdout
    for r in results:
        line = f"[{r.status.upper():4s}] {r.name}"
        if r.detail:
            line += f" -- {r.detail}"
        print(line, file=report)
    summary = {
        "suite": args.suite,
        "checks": [r.to_dict() for r in results],
        "failed": len(failures),
    }
    if args.json:
        payload = _json_text(summary)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as exc:
                print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
                return EXIT_IO
    print(f"{len(results) - len(failures)}/{len(results)} checks passed", file=report)
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
        (a7, n7), (rest, nbig) = (_projected(*p.numerators(form)) for p in projections(s))
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    big = "14" if s.kind == "g2" else "21"
    print(_json_text({
        "kind": s.kind,
        "input": _form_to_dict(form),
        "p7": a7,
        f"p{big}": rest,
        "norms": {"p7": n7, f"p{big}": nbig},
    }))
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
            "relative_discrepancy": rel,
        }
    print(_json_text(payload))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    # spectrum loads only for this command, so residue and decompose calls
    # do not compile it
    from .spectrum import enumerate_levels, twisted_levels, write_levels_csv, zeta_partial

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
        n7, nbig = write_levels_csv(levels, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    s_probe = 4.0 if args.n == 7 else 4.5
    zdelta, _ = zeta_partial(levels, "delta", s_probe)
    print(f"levels = {len(levels)}")
    print(f"N_7 = {n7}")
    print(f"N_big = {nbig}")
    print(f"N_big / N_7 = {Fraction(nbig, n7) if n7 else 'n/a'}")
    print(f"zeta_delta_partial = {zdelta}")
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


_PARSER = build_parser()  # built once; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # Python 3.11's argparse turns "--opt=--" into [], past type and choices
    if any(isinstance(v, list) for v in vars(args).values()):
        _PARSER.error("an option value cannot be '--'")
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
