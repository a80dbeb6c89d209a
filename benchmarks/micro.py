"""Microbenchmarks reported by the traced run.

* ``scalars.*_us``: one field operation through the public Scalar/Matrix
  operators, on seeded operand pools, after a warm-up pass.
* ``skewpoly.growth_exponent``: log-log slope of the time of x2^n * x1 on
  qweyl_zeta3 between n and 2n.
* ``skewpoly.triple_ms.<tower>``: median time of one products op on each
  of the ten products towers.

Times are normalised to the probe, like the workloads' op times.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import probe
import towers

POOL = 32
REPEATS = 5
MIN_BATCH_S = 0.02
GROWTH_N = 32
TRIPLES = 12  # one period of the triple design


def _per_op_us(fn, operands) -> float:
    """Median over REPEATS batches of the time of one fn(*operands[i]) call."""
    rounds = 1

    def batch():
        for _ in range(rounds):
            for args in operands:
                fn(*args)

    batch()  # warm-up
    while True:  # double the batch until it lasts MIN_BATCH_S
        start = time.perf_counter()
        batch()
        if time.perf_counter() - start >= MIN_BATCH_S:
            break
        rounds *= 2
    samples = [probe.normalised(batch) / (rounds * len(operands)) for _ in range(REPEATS)]
    return statistics.median(samples) * 1e6


def _mul(a, b):
    return a * b


def _add(a, b):
    return a + b


def _inv(a):
    return a.inverse()


def scalar_metrics(ot, seed: int) -> dict:
    rng = random.Random(f"micro:{seed}")
    fields = {
        "q": ot.QQ,
        "gf5": ot.GF(5),
        "cyc3": ot.CyclotomicField(3),
        "cyc5": ot.CyclotomicField(5),
        "qt": ot.FunctionField(ot.QQ, "t"),
    }
    pools = {
        key: [towers.random_scalar(field, rng) for _ in range(2 * POOL)]
        for key, field in fields.items()
    }
    qq = ot.FunctionField(ot.QQ, "q")
    pools["mat2_qt"] = [
        ot.Matrix(qq, [[towers.random_scalar(qq, rng) for _ in range(2)] for _ in range(2)])
        for _ in range(2 * POOL)
    ]

    def pairs(key):
        pool = pools[key]
        return list(zip(pool[:POOL], pool[POOL:]))

    out = {}
    for key in ("q", "gf5", "cyc3", "cyc5", "qt", "mat2_qt"):
        out[f"scalars.mul_us.{key}"] = (_per_op_us(_mul, pairs(key)), "us")
    for key in ("q", "cyc5", "qt"):
        out[f"scalars.add_us.{key}"] = (_per_op_us(_add, pairs(key)), "us")
    for key in ("cyc5", "qt"):
        out[f"scalars.inv_us.{key}"] = (_per_op_us(_inv, [(a,) for a in pools[key]]), "us")
    return out


def growth_exponent(ot) -> float:
    tower = towers.build(ot, "qweyl_zeta3")
    x1 = tower.var(0)
    times = []
    for n in (GROWTH_N, 2 * GROWTH_N):
        x2n = tower.poly({(0, n): tower.base.one})
        x2n * x1  # warm-up
        times.append(statistics.median(probe.normalised(lambda: x2n * x1) for _ in range(3)))
    return math.log(times[1] / times[0]) / math.log(2)


def triple_ms(ot, seed: int) -> dict:
    out = {}
    for name in towers.PRODUCT_TOWERS:
        tower = towers.build(ot, name)
        rng = random.Random(f"micro:{seed}:{name}")
        triples = [towers.design_triple(ot, tower, rng, k) for k in range(TRIPLES)]
        times = []
        for p, q, r in triples:
            op = lambda: ((p * q) * r, p * (q * r))  # noqa: E731
            op()  # warm-up, as in the products workload
            times.append(probe.normalised(op))
        out[f"skewpoly.triple_ms.{name}"] = (statistics.median(times) * 1e3, "ms")
    return out


def all_metrics(ot, seed: int) -> dict:
    out = scalar_metrics(ot, seed)
    out["skewpoly.growth_exponent"] = (growth_exponent(ot), "1")
    out.update(triple_ms(ot, seed))
    return out
