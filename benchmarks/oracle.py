"""Correctness references that do not come from the code being measured.

* ``naive_triple``: the normal form of p*q*r by leftmost-first rewriting of
  words, using only the tower's presentation data (the maps on the base and
  sigma/delta on lower variables) and the scalar operators.  It shares
  nothing with the package's rewriting engine or its memo tables.
* ``closed_form``: hand-derived normal forms of x_top^n * x_1.
* ``PI_VERDICTS`` and ``exit_code_problem``: the expected pi-check verdicts
  (the root-of-unity criterion of the paper) and the documented exit codes.
"""

from __future__ import annotations


def _zero(c) -> bool:
    return c.is_zero() if hasattr(c, "is_zero") else not c


def _word(exp, coeff) -> list:
    word = [("b", coeff)]
    for level, e in enumerate(exp):
        word.extend([("v", level)] * e)
    return word


def _first_out_of_order(word):
    for i in range(len(word) - 1):
        (k1, v1), (k2, v2) = word[i], word[i + 1]
        if k1 == "b" and k2 == "b":
            return i
        if k1 == "v" and (k2 == "b" or v1 > v2):
            return i
    return None


def naive_triple(tower, p, q, r, max_words: int = 500_000) -> dict:
    """Normal-form terms of p*q*r by leftmost-first word rewriting."""
    stack = [
        _word(ep, cp) + _word(eq, cq) + _word(er, cr)
        for ep, cp in p.terms.items()
        for eq, cq in q.terms.items()
        for er, cr in r.terms.items()
    ]
    total: dict = {}
    steps = 0
    while stack:
        steps += 1
        if steps > max_words:
            raise RuntimeError("naive normaliser exceeded its word budget")
        word = stack.pop()
        i = _first_out_of_order(word)
        if i is None:
            # normal word: one leading base factor, then ordered variables
            exp = [0] * tower.height
            for kind, value in word[1:]:
                exp[value] += 1
            key = tuple(exp)
            acc = word[0][1] if key not in total else total[key] + word[0][1]
            if _zero(acc):
                total.pop(key, None)
            else:
                total[key] = acc
            continue
        head, tail = word[:i], word[i + 2:]
        (k1, v1), (k2, v2) = word[i], word[i + 1]
        if k1 == "b":
            stack.append(head + [("b", v1 * v2)] + tail)
        elif k2 == "b":
            # x_i b = sigma_i(b) x_i + delta_i(b)
            sig = tower.apply_sigma0(v1, v2)
            if not _zero(sig):
                stack.append(head + [("b", sig), ("v", v1)] + tail)
            dlt = tower.apply_delta0(v1, v2)
            if not _zero(dlt):
                stack.append(head + [("b", dlt)] + tail)
        else:
            # x_i x_j = (a_ij x_j + c_ij) x_i + delta_i(x_j) for j < i
            a, c_terms = tower.sigma_var_raw(v1, v2)
            stack.append(head + [("b", a), ("v", v2), ("v", v1)] + tail)
            for exp, coeff in c_terms.items():
                stack.append(head + _word(exp, coeff) + [("v", v1)] + tail)
            for exp, coeff in tower.delta_var_raw(v1, v2).items():
                stack.append(head + _word(exp, coeff) + tail)
    return total


def closed_form(name: str, tower, n: int) -> dict:
    """Hand-derived normal form of x_top^n * x_1 on the high_degree towers.

    qplane_zeta3:  x2^n x1 = z^n x1 x2^n
    three_level:   x3^n x1 = 2^n x1 x3^n
    weyl_gf5:      y^n x   = x y^n + (n mod 5) y^(n-1)
    q-Weyl towers: x2^n x1 = q^n x1 x2^n + [n]_q x2^(n-1),
                   [n]_q = 1 + q + ... + q^(n-1)
    """
    field = tower.base.field
    h = tower.height
    lead = tuple([1] + [0] * (h - 2) + [n])
    below = tuple([0] * (h - 1) + [n - 1])
    if name == "qplane_zeta3":
        return {lead: field.gen ** n}
    if name == "three_level":
        return {lead: field.coerce(2 ** n)}
    if name == "weyl_gf5":
        out = {lead: field.one}
        if n % 5:
            out[below] = field.coerce(n % 5)
        return out
    if name in ("qweyl_zeta3", "qweyl_q"):
        q = field.gen
        q_number = field.zero
        power = field.one
        for _ in range(n):
            q_number = q_number + power
            power = power * q
        out = {lead: power}
        if not q_number.is_zero():
            out[below] = q_number
        return out
    raise KeyError(name)


# Expected pi-check verdicts.  Diagonal quantised towers are PI exactly when
# every lambda_ij is a root of unity; towers outside that shape (a c part,
# a derivation with no q, a matrix base whose sigma has no finite order on
# the base, an invalid presentation) are Undecided.
PI_VERDICTS = {
    "qplane_zeta3": "PI",
    "qweyl_zeta3": "PI",
    "qplane_lambda2": "NotPI",
    "qweyl_q": "NotPI",
    "three_level": "Undecided",
    "weyl_gf5": "Undecided",
    "mat2_inner": "Undecided",
    "broken_qskew": "Undecided",
}


def math_error_names(ot) -> set:
    """Names of the OreError kinds documented to exit with code 1.

    Parse and field errors are usage errors and exit with code 2.
    """
    usage = (ot.ParseError, ot.FieldMismatch)
    names, todo = set(), [ot.OreError]
    while todo:
        cls = todo.pop()
        if not issubclass(cls, usage):
            names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def exit_code_problem(command: str, code: int, report, math_errors: set) -> str | None:
    """Check a --json report against the documented exit codes.

    0: success, negative verdicts included; 1: a mathematical failure,
    reported as {"status": "error"} with an OreError kind, or an invalid
    tower from validate; 2: usage or parse error.  None means consistent.
    """
    if code == 0:
        if not isinstance(report, dict) or report.get("status") == "error":
            return "exit 0 with an error report"
        if report.get("command") != command:
            return f"exit 0 but the report is for {report.get('command')!r}"
        return None
    if code == 1:
        if command == "validate" and isinstance(report, dict) and report.get("valid") is False:
            return None
        if isinstance(report, dict) and report.get("status") == "error":
            if report.get("kind") in math_errors:
                return None
            return f"exit 1 with unexpected error kind {report.get('kind')!r}"
        return "exit 1 without an error report"
    return f"unexpected exit code {code}"
