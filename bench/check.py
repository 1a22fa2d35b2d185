"""Output checks and accuracy scores of one benchmark run.

``check_document`` validates a CLI solutions document against the README's
schema and exit-code contract.  ``compare`` requires the CLI's solutions to
equal the library loop's, pair by pair, to 1e-12 relative: this is the gate
a batched or reordered CLI must pass.  ``accuracy`` scores the documents
against the generator's hidden truth.
"""

from __future__ import annotations

import math

REL_TOL = 1e-12
MATCH_TOL = 1e-4        # relative range error that still counts as a match
DIGITS_CAP = 16.0

EXIT_CODES = {"input": 2, "numerical": 4, "degenerate": 3}
SOLUTION_KEYS = {
    "pair", "method", "rho1", "rhodot1", "rho2", "rhodot2", "state1", "state2",
    "elements1", "elements2", "elliptic", "lenz_residual", "compat_lenz",
    "compat_anomaly", "energy_offset", "covariance1", "covariance2", "chi4",
    "selected", "unselectable", "flags",
}
STATE_KEYS = {"epoch_mjd", "r", "v"}
ELEMENT_KEYS = {"a", "e", "i", "Omega", "omega", "ell", "epoch_mjd"}
# Scalars that are residuals of identities: near zero their relative error
# is meaningless, so they are compared against this natural scale instead
# (dimensionless Lenz/anomaly terms and chi4; energies in au^2/day^2).
RESIDUAL_SCALE = {"lenz_residual": 1.0, "compat_lenz": 1.0,
                  "compat_anomaly": 1.0, "chi4": 1.0, "energy_offset": 1e-4}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _numbers(x, n) -> bool:
    return isinstance(x, list) and len(x) == n and all(_is_number(v) for v in x)


def check_document(doc, code: int, n1: int, n2: int, method: str) -> list[str]:
    """Problems with one CLI solutions document and its exit code."""
    problems = []
    for key, want in (("format", "arclink-solutions"), ("method", method),
                      ("units", "au-day")):
        if doc.get(key) != want:
            problems.append(f"{key} is {doc.get(key)!r}, expected {want!r}")
    for key in ("mu", "chi4_threshold"):
        if not _is_number(doc.get(key)):
            problems.append(f"{key} is not a finite number")
    if not isinstance(doc.get("solutions"), list) or not isinstance(doc.get("errors"), list):
        return problems + ["solutions or errors is not a list"]

    def pair_ok(p):
        return (isinstance(p, list) and len(p) == 2
                and all(isinstance(v, int) for v in p)
                and 0 <= p[0] < n1 and 0 <= p[1] < n2)

    for k, sol in enumerate(doc["solutions"]):
        where = f"solution {k}"
        if not isinstance(sol, dict) or set(sol) != SOLUTION_KEYS:
            problems.append(f"{where}: keys differ from the solutions schema")
            continue
        if not pair_ok(sol["pair"]):
            problems.append(f"{where}: bad pair {sol['pair']!r}")
        for key in ("rho1", "rhodot1", "rho2", "rhodot2", "lenz_residual",
                    "compat_lenz", "energy_offset"):
            if not _is_number(sol[key]):
                problems.append(f"{where}: {key} is not a finite number")
        if not (_is_number(sol["rho1"]) and sol["rho1"] > 0
                and _is_number(sol["rho2"]) and sol["rho2"] > 0):
            problems.append(f"{where}: non-positive range")
        for key in ("state1", "state2"):
            s = sol[key]
            if (not isinstance(s, dict) or set(s) != STATE_KEYS
                    or not _is_number(s["epoch_mjd"])
                    or not _numbers(s["r"], 3) or not _numbers(s["v"], 3)):
                problems.append(f"{where}: malformed {key}")
        for key in ("elements1", "elements2"):
            el = sol[key]
            if el is not None and (not isinstance(el, dict) or set(el) != ELEMENT_KEYS
                                   or not all(_is_number(v) for v in el.values())):
                problems.append(f"{where}: malformed {key}")
        for key in ("covariance1", "covariance2"):
            if sol[key] is not None and not _numbers(sol[key], 36):
                problems.append(f"{where}: malformed {key}")
        if sol["chi4"] is not None and not _is_number(sol["chi4"]):
            problems.append(f"{where}: chi4 is not a finite number or null")
        if sol["compat_anomaly"] is not None and not _is_number(sol["compat_anomaly"]):
            problems.append(f"{where}: compat_anomaly is not a finite number or null")
        if sol["selected"] not in (None, True, False) or not isinstance(sol["elliptic"], bool) \
                or not isinstance(sol["unselectable"], bool):
            problems.append(f"{where}: malformed selection flags")
        if not isinstance(sol["flags"], list) or not all(isinstance(f, str) for f in sol["flags"]):
            problems.append(f"{where}: flags is not a list of strings")
    codes = set()
    for k, err in enumerate(doc["errors"]):
        if (not isinstance(err, dict) or set(err) != {"pair", "code", "flags", "message"}
                or not pair_ok(err["pair"]) or err["code"] not in EXIT_CODES
                or not isinstance(err["message"], str)):
            problems.append(f"error {k}: malformed record")
            continue
        codes.add(err["code"])
    # input > numerical > degenerate decides the exit code of a batch.
    want = next((EXIT_CODES[c] for c in ("input", "numerical", "degenerate")
                 if c in codes), 0)
    if code != want:
        problems.append(f"exit code {code}, expected {want} for error codes {sorted(codes)}")
    return problems


def _differ(a, b, key="", scale=0.0) -> str | None:
    """Where two JSON values differ beyond REL_TOL, or None.  Lists of
    numbers compare against their largest entry, scalars against their
    own size (or RESIDUAL_SCALE for residual fields)."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return f"{key}: keys differ"
        for k in a:
            diff = _differ(a[k], b[k], k, RESIDUAL_SCALE.get(k, 0.0))
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list) and a and all(_is_number(x) for x in a):
        if len(a) != len(b) or not all(_is_number(x) for x in b):
            return f"{key}: length or type differs"
        size = max(abs(x) for x in a + b)
        if any(abs(x - y) > REL_TOL * size for x, y in zip(a, b)):
            return f"{key}: {a} != {b}"
        return None
    if _is_number(a) and _is_number(b):
        if abs(a - b) > REL_TOL * max(abs(a), abs(b), scale):
            return f"{key}: {a!r} != {b!r}"
        return None
    return None if a == b else f"{key}: {a!r} != {b!r}"


def compare(doc, library_batch) -> list[str]:
    """CLI solutions against the library loop's for the same batch,
    matched by pair and then by range."""
    problems = []

    def by_pair(solutions):
        out = {}
        for sol in solutions:
            out.setdefault(tuple(sol["pair"]), []).append(sol)
        for sols in out.values():
            sols.sort(key=lambda s: (s["rho1"], s["rho2"]))
        return out

    cli, lib = by_pair(doc["solutions"]), by_pair(library_batch["solutions"])
    for pair in sorted(set(cli) | set(lib)):
        a, b = cli.get(pair, []), lib.get(pair, [])
        if len(a) != len(b):
            problems.append(f"pair {pair}: CLI has {len(a)} solution(s), library {len(b)}")
            continue
        for x, y in zip(a, b):
            diff = _differ(x, y)
            if diff:
                problems.append(f"pair {pair}: {diff}")
    cli_err = {tuple(e["pair"]): e["code"] for e in doc["errors"]}
    lib_err = {tuple(e["pair"]): e["code"] for e in library_batch["errors"]}
    if cli_err != lib_err:
        problems.append(f"errors differ: CLI {cli_err}, library {lib_err}")
    return problems


def range_error(sol, link) -> float:
    return max(abs(sol["rho1"] - link["rho1"]) / link["rho1"],
               abs(sol["rho2"] - link["rho2"]) / link["rho2"])


def digits(error: float) -> float:
    return DIGITS_CAP if error <= 0.0 else min(DIGITS_CAP, -math.log10(error))


def accuracy(docs, truth_links, pairs) -> dict:
    """Recall, range digits and false links of a workload's documents
    (one per batch, with ``pairs`` pairs attempted in each).

    A true pair is recalled when one of its solutions matches both ranges
    to MATCH_TOL and is selected wherever selection ran (``selected`` is
    not null).  Its digits come from the nearest solution, selected or
    not; a true pair without any solution scores 0.
    """
    all_digits, recalled_digits = [], []
    false_links = nonlinks = 0
    for doc, links, n in zip(docs, truth_links, pairs):
        sols = {}
        for sol in doc["solutions"]:
            sols.setdefault(tuple(sol["pair"]), []).append(sol)
        true_pairs = {tuple(link["pair"]) for link in links}
        for link in links:
            mine = sols.get(tuple(link["pair"]), [])
            errors = [range_error(s, link) for s in mine]
            all_digits.append(digits(min(errors)) if errors else 0.0)
            if any(e <= MATCH_TOL and s["selected"] is not False
                   for s, e in zip(mine, errors)):
                recalled_digits.append(all_digits[-1])
        nonlinks += n - len(links)
        false_links += sum(s["selected"] is True for pair, mine in sols.items()
                           if pair not in true_pairs for s in mine)
    return {"true_pairs": len(all_digits), "recalled": len(recalled_digits),
            "all_digits": all_digits, "recalled_digits": recalled_digits,
            "false_links": false_links, "nonlink_pairs": nonlinks}
