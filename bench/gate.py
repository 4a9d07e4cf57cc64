"""Exact-output gate: digests of every exact output and checks on any seed.

``digests`` reduces one case run to SHA-256 digests of its exact outputs.
``references.json`` holds them for ``gen.DEFAULT_SEED``, generated from the
unmodified library with ``python3 bench/run.py --write-references``.
Spectrum and verify digests do not depend on the seed (see ``gen.twist``),
so they are compared on every seed. Heat and decompose digests are
compared on the default seed; on every seed, ``invariants`` requires
Mehler = Duhamel exactly and the exact decompose identities.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Dict, List

SEED_FREE = ("csv", "summary", "checks")
DEFINING_DEGREE = {7: 3, 8: 4}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(case, code, stdout: str, captured: Dict, files: Dict[str, str]) -> Dict[str, str]:
    """Digest every exact output of one run of ``case``."""
    cmd = case.argv[0]
    out = {"exit": str(code)}
    if cmd == "residue":
        out["stdout"] = _sha(stdout)
        for key in ("mehler", "duhamel"):
            out[key] = _sha(repr(captured.get(key)))
    elif cmd == "spectrum":
        out["csv"] = _sha(files.get(case.out, ""))
        # the last line names the output path, which differs per run
        out["summary"] = _sha("\n".join(ln for ln in stdout.splitlines()
                                        if not ln.startswith("wrote ")))
    elif cmd == "verify":
        doc = json.loads(files.get(case.out) or "{}")
        out["checks"] = _sha(json.dumps([[c["name"], c["status"]] for c in doc.get("checks", [])]))
    else:
        out["stdout"] = _sha(stdout)
    return out


def compare(got: Dict[str, str], want: Dict[str, str], default_seed: bool) -> List[str]:
    """Digest mismatches against the reference entry of the case."""
    if not want:
        return ["no reference digests for this case"]
    return [f"{key} digest differs from the reference"
            for key, ref in want.items()
            if (default_seed or key in SEED_FREE or key == "exit") and got.get(key) != ref]


def invariants(case, code, stdout: str, captured: Dict, files: Dict[str, str]) -> List[str]:
    """Checks that hold on every seed."""
    if code != 0:
        return [f"exit code {code}"]
    cmd = case.argv[0]
    if cmd == "residue":
        return _residue_invariants(case, stdout, captured)
    if cmd == "verify":
        doc = json.loads(files.get(case.out) or "{}")
        failed = [c["name"] for c in doc.get("checks", []) if c["status"] == "fail"]
        return [f"verify check failed: {name}" for name in failed] or (
            [] if doc.get("checks") else ["verify wrote no checks"])
    if cmd == "decompose":
        return _decompose_invariants(stdout)
    return []


def _residue_invariants(case, stdout: str, captured: Dict) -> List[str]:
    errors = []
    mehler, duhamel = captured.get("mehler"), captured.get("duhamel")
    if mehler is None or duhamel is None:
        return ["Mehler or Duhamel density was not computed"]
    if mehler != duhamel:
        errors.append("Mehler density differs from Duhamel density")
    power = Fraction(-DEFINING_DEGREE[case.n], 2)
    if any(p != power for p in mehler.t_support()):
        errors.append(f"density has t-powers other than t^{power}: {mehler.t_support()}")
    doc = json.loads(stdout)
    if doc["oracle"]["relative_discrepancy"] != 0.0:
        errors.append("residue --oracle reports a nonzero discrepancy")
    if case.cid.endswith("instanton") and doc["sign"]["is_instanton"] is not True:
        errors.append("instanton input failed the instanton gate")
    return errors


def _decompose_invariants(stdout: str) -> List[str]:
    doc = json.loads(stdout)
    big = "p14" if "p14" in doc else "p21"

    def vec(part):
        return {k: Fraction(v["exact"]) for k, v in doc[part].items()}

    alpha, a7, rest = vec("input"), vec("p7"), vec(big)
    keys = set(alpha) | set(a7) | set(rest)
    errors = []
    if any(a7.get(k, 0) + rest.get(k, 0) != alpha.get(k, 0) for k in keys):
        errors.append("p7 + p_big differs from the input form")
    if sum(a7.get(k, 0) * rest.get(k, 0) for k in keys) != 0:
        errors.append("p7 and p_big are not orthogonal")
    norms = {part: Fraction(doc["norms"][part]["exact"]) for part in ("p7", big)}
    if norms["p7"] != sum(v * v for v in a7.values()) or norms[big] != sum(
            v * v for v in rest.values()):
        errors.append("reported norms differ from the components")
    return errors
