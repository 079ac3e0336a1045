"""Output checks for every perfbench item.

Each check returns (status, note) per checked unit: "ok", "fail", or
"defect" for the one known defect of the seed that the search workload is
meant to show -- an index-form box whose reported solutions are a strict
subset of the box's true solutions, where every missed solution is one that
the float root estimator in cubic._int_cubic_roots loses (see
lost_by_known_defect).  Both "fail" and "defect" count as failed items;
only "fail" makes a run incorrect, so any other missed solution does.
"""

from __future__ import annotations

import json

from sympy import factorint, primerange

import oracle
from gen import FIXTURES, fixture_records

OK, FAIL, DEFECT = "ok", "fail", "defect"

# The three checks the fixtures record as disputed source values; verify
# reports them as FAIL by design (acceptance criteria 1, 5 and 6).
DISPUTED = frozenset({
    "conductor of [0,0,0,29,-123]",
    "minimal discriminant of [1,0,1,-80,-275]",
    "sieve conclusion for prime 2063",
})

# checks produced by each fixture record kind (see verify._HANDLERS)
_CHECKS_PER_KIND = {"field": 3, "modrow": 3, "a2row": 2}

GOOD, BAD_CONVENTION, SKIP = "good", "bad-prime-convention", "ramified-skip"


def _error(out) -> str | None:
    return out.get("error") if isinstance(out, dict) else None


def check_verify(checks) -> list[tuple[str, str]]:
    """One status per check of the report: PASS everywhere except the
    disputed checks (FAIL) and the external claims (never computed)."""
    if _error(checks):
        return [(FAIL, checks["error"])]
    external, total = set(), 0
    for path in sorted(p.name for p in FIXTURES.glob("*.txt")):
        for kind, _, lineno in fixture_records(path):
            total += _CHECKS_PER_KIND.get(kind, 1)
            if kind == "external":
                external.add(f"{path}:{lineno}")
    out = []
    if len(checks) != total:
        out.append((FAIL, f"{len(checks)} checks reported, fixtures define {total}"))
    for check_id, description, status in checks:
        want = ("external-claim" if check_id in external
                else "fail" if description in DISPUTED else "pass")
        out.append((OK, "") if status == want else
                   (FAIL, f"{check_id} {description}: status {status}, expected {want}"))
    return out


def expected_trace_vector(a, p: int, horizon: int, traces) -> list[list]:
    """The trace vector modp.trace_vector must give on a minimal model."""
    c4, _, disc = oracle.invariants(a)
    fac = factorint(abs(disc))
    out = []
    for ell in primerange(2, horizon + 1):
        if ell == p:
            continue
        if disc % ell:
            out.append([ell, traces[ell] % p, GOOD])
        elif c4 % ell == 0 or fac[ell] % p:
            out.append([ell, 0, SKIP])  # additive, or multiplicative and ramified
        else:
            out.append([ell, traces[ell] * (1 + ell) % p, BAD_CONVENTION])
    return out


def fingerprint_reference(model: str, p: int, horizon: int, irreducible_bound: int,
                          target=None) -> dict:
    """Expected outputs of one fingerprint item, from independent counts
    (every a_l below 150 also by the O(l^2) count)."""
    a = oracle.coefficients(model)
    c4, _, disc = oracle.invariants(a)
    traces = oracle.frobenius_traces(a, primerange(2, horizon + 1), brute_below=150)
    entries = expected_trace_vector(a, p, horizon, traces)
    fac = factorint(abs(disc))
    serre = [[ell, 1] for ell in sorted(fac)
             if ell != p and c4 % ell and fac[ell] % p]
    irreducible = any((traces[ell] - 1 - ell) % p for ell in primerange(2, irreducible_bound + 1)
                      if ell != p and disc % ell)
    ref = {"entries": entries, "serre": serre,
           "reducible": "irreducible" if irreducible else "undetermined"}
    if target is not None:
        ref["compare"] = compare_vectors(entries, target["entries"])
    return ref


def compare_vectors(A, B):
    db = {ell: (t, q) for ell, t, q in B}
    for ell, t, q in A:
        if q == SKIP or ell not in db or db[ell][1] == SKIP:
            continue
        if t != db[ell][0]:
            return ["mismatch", ell]
    return "match-up-to-bound"


def check_fingerprint(inputs, outputs) -> list[tuple[str, str]]:
    H, rb = inputs["horizon"], inputs["irreducible_bound"]
    targets = {int(p): fingerprint_reference(m, int(p), H, rb)
               for p, m in inputs["targets"].items()}
    result = []
    for item, out in zip(inputs["items"], outputs):
        if _error(out):
            result.append((FAIL, f"{item['model']} p={item['p']}: {out['error']}"))
            continue
        ref = fingerprint_reference(item["model"], item["p"], H, rb, targets[item["p"]])
        bad = [key for key in ("entries", "serre", "reducible", "compare") if out[key] != ref[key]]
        if "entries" in bad:
            ell = next((r[0] for o, r in zip(out["entries"], ref["entries"]) if o != r), None)
            bad[0] = f"entries (first difference at l = {ell})"
        result.append((FAIL, f"{item['model']} p={item['p']}: wrong {', '.join(bad)}")
                      if bad else (OK, ""))
    return result


def _factorization_str(pairs) -> str:
    if not pairs:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in pairs)


def check_local(inputs, outputs) -> list[tuple[str, str]]:
    """curve-info on a minimal model: invariants, the set of bad primes and,
    at every bad p >= 5, f_p = 1 if p does not divide c4 and 2 otherwise."""
    result = []
    for item, out in zip(inputs["items"], outputs):
        model = item["model"]
        if _error(out) or out["rc"] != 0:
            result.append((FAIL, f"{model}: {_error(out) or out['stderr'].strip()}"))
            continue
        info = json.loads(out["stdout"])
        c4, c6, disc = oracle.invariants(oracle.coefficients(model))
        fac = factorint(abs(disc))
        problems = []
        if (info["c4"], info["c6"], info["disc"]) != (c4, c6, disc):
            problems.append("invariants")
        local_data = info["local"]
        if [ld["prime"] for ld in local_data] != sorted(fac):
            problems.append("bad primes")
        for ld in local_data:
            p = ld["prime"]
            if ld["discriminant_valuation"] != fac.get(p):
                problems.append(f"v_{p}(disc)")
            if p >= 5 and ld["conductor_exponent"] != (1 if c4 % p else 2):
                problems.append(f"f_{p} = {ld['conductor_exponent']}")
        conductor = [(ld["prime"], ld["conductor_exponent"]) for ld in local_data
                     if ld["conductor_exponent"]]
        if info["conductor"] != _factorization_str(conductor):
            problems.append("conductor")
        result.append((FAIL, f"{model}: wrong {', '.join(problems)}") if problems else (OK, ""))
    return result


def lost_by_known_defect(form, x: int, y: int) -> bool:
    """Whether the seed's root estimator is known to lose the solution (x, y).

    For each y > 0 the solver finds x from A x^3 + B y x^2 + C y^2 x +
    D y^3 = +-t by Cardano's formula.  When B^2 = 3AC the depressed cubic has
    no linear term, and the formula yields 0 in place of the real cube root
    whenever that root lies left of the inflection point x = -B y / 3A.  The
    float roots seed a search of +-2 around them, so these are the roots it
    misses (with their multiples, and with (-x, -y))."""
    A, B, C, _ = form
    if y < 0:
        x, y = -x, -y
    return B * B == 3 * A * C and y > 0 and (3 * A * x + B * y) * A < 0


def check_index(item, out) -> tuple[str, str]:
    label = f"index box {item['poly']} S={item['primes']} bound={item['bound']}"
    form, disc = out["form"], out["field_disc"]
    if disc != item["field_disc"] or oracle.binary_cubic_discriminant(*form) != disc:
        return FAIL, f"{label}: field discriminant {disc}, expected {item['field_disc']}"
    got = {tuple(s) for s in out["solutions"]}
    if len(got) != len(out["solutions"]):
        return FAIL, f"{label}: a solution is reported twice"
    want = oracle.index_box(form, item["primes"], item["bound"])
    if got == want:
        return OK, ""
    if got < want:
        missed = sorted(want - got, key=lambda s: (max(abs(s[0]), abs(s[1])), s))
        note = (f"{label}: {len(missed)} of {len(want)} solutions missed, "
                f"first {missed[0][:2]} with |f| = {missed[0][2]}")
        unexplained = [s for s in missed if not lost_by_known_defect(form, s[0], s[1])]
        if not unexplained:
            return DEFECT, note
        return FAIL, (f"{note}; {len(unexplained)} not lost by the known defect, "
                      f"first {unexplained[0][:2]}")
    return FAIL, f"{label}: {len(got - want)} reported solutions are not in the box's solution set"


def check_mordell(item, out) -> tuple[str, str]:
    k, S, H, e = item["k"], item["S"], item["height"], item["expbound"]
    label = f"mordell k={k} S={S} height={H} expbound={e}"
    pts = [tuple(p) for p in out["points"]]
    dens = set(oracle.denominators(S, e))
    valid = all(y * y == x**3 + k * d**6 and d in dens and abs(x) <= H for x, y, d in pts)
    if not valid or len(set(pts)) != len(pts):
        return FAIL, f"{label}: invalid or repeated point reported"
    if item["naive_check"] and set(pts) != oracle.mordell_box(k, S, H, e):
        return FAIL, f"{label}: differs from the naive isqrt scan"
    return OK, ""


def check_search(inputs, outputs) -> list[tuple[str, str]]:
    result = []
    for item, out in zip(inputs["items"], outputs):
        if _error(out):
            result.append((FAIL, f"{item['kind']} item: {out['error']}"))
        elif item["kind"] == "index":
            result.append(check_index(item, out))
        else:
            result.append(check_mordell(item, out))
    return result


def check(workload: str, inputs, outputs) -> list[tuple[str, str]]:
    if workload == "verify":
        return check_verify(outputs[0])
    return {"fingerprint": check_fingerprint, "local": check_local,
            "search": check_search}[workload](inputs, outputs)
