"""The three workloads: products, commands and high_degree.

Each workload's ``setup(ot, seed, root)`` builds its inputs with the freshly
imported package ``ot`` and returns the list of ops of one pass.  An op is
one closed-loop call into the program plus the untimed check of its answer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
import towers


@dataclass
class Op:
    key: str  # stable name of the op, the same for every seed that draws it
    group: str  # tower or fixture the op runs on
    call: Callable[[], object]  # the timed call into the program
    check: Callable[[object], "str | None"]  # None when the answer is right
    fingerprint: Callable[[object], str]  # compares answers across passes
    known_failure: "type | None" = None  # a documented defect, still counted as failed
    report_bytes: Callable[[object], int] = lambda out: 0


# ---------------------------------------------------------------------------
# products: (p*q)*r against p*(q*r) on the ten arithmetic towers

# Two periods of the 12-triple design in towers.py per tower.  Mat2(Q(q))
# ops cost about twenty times the others, so it gets one period: that keeps
# its share of op time under half, and keeps the 90th percentile away from
# the step between its ops and everyone else's.
TRIPLES = {name: 12 if name == "mat2_inner" else 24 for name in towers.PRODUCT_TOWERS}
NAIVE_CHECKS_PER_TOWER = 1


def products_setup(ot, seed: int, root: Path) -> list:
    ops = []
    for name in towers.PRODUCT_TOWERS:
        tower = towers.build(ot, name)
        rng = random.Random(f"products:{seed}:{name}")
        triples = [towers.design_triple(ot, tower, rng, k) for k in range(TRIPLES[name])]
        naive = set(rng.sample(range(TRIPLES[name]), NAIVE_CHECKS_PER_TOWER))
        for k, (p, q, r) in enumerate(triples):
            ops.append(
                Op(
                    key=f"{name}#{k}",
                    group=name,
                    call=_associator(p, q, r),
                    check=_product_check(tower, p, q, r, k in naive),
                    fingerprint=lambda out: str(out[0]),
                )
            )
    return ops


def _associator(p, q, r):
    def call():
        return (p * q) * r, p * (q * r)

    return call


def _product_check(tower, p, q, r, with_naive: bool):
    def check(out):
        left, right = out
        if left != right:
            return "(p*q)*r != p*(q*r)"
        if with_naive and left.terms != oracle.naive_triple(tower, p, q, r):
            return "differs from the naive word normaliser"
        return None

    return check


# ---------------------------------------------------------------------------
# commands: in-process CLI runs over every fixture file


def _fixture_argvs(path: Path) -> list:
    """The commands run on one fixture: every subcommand, and a second input
    for the cheap ones, so that each pass holds over 100 distinct ops."""
    names = re.findall(r"^\s*var\s*=\s*(\w+)", path.read_text(encoding="utf-8"), re.M)
    bottom, top = names[0], names[-1]
    argvs = [
        ["validate"],
        ["mul", f"{top}^3 + {bottom}", f"{bottom}^2 {top}"],
        ["mul", f"({top} + {bottom})^2", f"{top} {bottom}"],
        ["central", f"{top}^3"],
        ["central", bottom],
        ["order", "--level", "1"],
        ["erase"],
        ["erase-all"],
    ]
    if len(names) >= 2:
        argvs.append(["order", "--level", str(len(names))])
        argvs.append(["swap", "--level", "2"])
    argvs.extend([["gr"], ["pi-check"], ["pi-check", "--witness-bound", "6"]])
    return argvs


def command_keys(root: Path) -> list:
    """(key, fixture name, full argv) for every op of the commands workload."""
    out = []
    for path in sorted((root / "tests" / "fixtures").glob("*.tw")):
        for args in _fixture_argvs(path):
            key = f"{path.stem}: {' '.join(args)}"
            out.append((key, path.stem, [args[0], "--tower", str(path), "--json"] + args[1:]))
    return out


def run_command(ot, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = ot.cli.run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def digest(out) -> str:
    code, stdout, _stderr = out
    return f"{code}:{hashlib.sha256(stdout.encode('utf-8')).hexdigest()}"


DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


@functools.lru_cache(maxsize=None)
def recorded_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))["digests"]


def commands_setup(ot, seed: int, root: Path) -> list:
    ops = []
    for key, fixture, argv in command_keys(root):
        ops.append(
            Op(
                key=key,
                group=fixture,
                call=lambda argv=argv: run_command(ot, argv),
                check=_command_check(ot, key, argv[0], fixture),
                fingerprint=digest,
                report_bytes=lambda out: len(out[1].encode("utf-8")),
            )
        )
    return ops


def _command_check(ot, key: str, command: str, fixture: str):
    """Checks of one command's answer; the references load on first use, so
    they stay out of the timed set-up."""

    def check(out):
        code, stdout, stderr = out
        try:
            report = json.loads(stdout) if stdout else None
        except ValueError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        problem = oracle.exit_code_problem(command, code, report, oracle.math_error_names(ot))
        if problem:
            return f"{problem}; stderr {stderr[:80]!r}"
        if command == "pi-check" and report["verdict"] != oracle.PI_VERDICTS.get(fixture):
            return f"verdict {report['verdict']} != {oracle.PI_VERDICTS.get(fixture)}"
        expected = recorded_digests().get(key)
        if expected is None:
            return "no recorded digest for this command"
        if digest(out) != expected:
            return "report differs from the recorded digest"
        return None

    return check


# ---------------------------------------------------------------------------
# high_degree: x_top^n * x_1 over a fixed ladder of n

HIGH_DEGREE_TOWERS = ("qweyl_zeta3", "qweyl_q", "weyl_gf5", "qplane_zeta3", "three_level")
LADDER = tuple(range(2, 43, 2))
# The sigma-only diagonal towers also run n = 1000, which exceeds the
# interpreter's recursion limit in the recursive engine.  Those ops are
# counted as failed (RecursionError) and are never dropped.
DEEP = {"qplane_zeta3": 1000, "three_level": 1000}


def high_degree_setup(ot, seed: int, root: Path) -> list:
    ops = []
    for name in HIGH_DEGREE_TOWERS:
        tower = towers.build(ot, name)
        x1 = tower.var(0)
        ladder = LADDER + ((DEEP[name],) if name in DEEP else ())
        for n in ladder:
            exp = tuple([0] * (tower.height - 1) + [n])
            x_top_n = tower.poly({exp: tower.base.one})
            ops.append(
                Op(
                    key=f"{name} n={n}",
                    group=name,
                    call=lambda a=x_top_n, b=x1: a * b,
                    check=_closed_form_check(name, tower, n),
                    fingerprint=str,
                    known_failure=RecursionError if n == DEEP.get(name) else None,
                )
            )
    return ops


def _closed_form_check(name: str, tower, n: int):
    def check(out):
        if out.terms != oracle.closed_form(name, tower, n):
            return f"x_top^{n} * x_1 differs from the closed form"
        return None

    return check


SETUPS = {
    "products": products_setup,
    "commands": commands_setup,
    "high_degree": high_degree_setup,
}
