"""Seeded command streams for the three benchmark workloads.

Each workload is a list of CLI commands, run in order by one closed-loop
client.  ``{out}`` in an argv is replaced by a fresh output stem per pass.
The seed only chooses inputs; the generator emits documented-valid input
alone: closure pairs pass ``closure.is_admissible``, sweep momenta stay below
``qpotential.momentum_cap`` and where the arch mesh reaches Lambda's inner
layer, and the p = 1/2 anchors are always present.

table  the eleven closed curves of the reference table (seed-independent);
       closure solve, energy and Upsilon, nearly all of it arch quadrature.
torus  p = 1/2 gamma_{2,3} (holonomy pi/2, a closed 4-cover torus) plus
       gamma_{5,8} and gamma_{11,19} at seeded p, each lifted with ``hopf``
       and traced with ``curve``; profile ODE, Hopf lift, torus mesh and
       export dominate.
sweep  ``sweep`` of Lambda and Upsilon over geometric offset grids at fixed
       and seeded p, plus the envelope momenta 1e5 a_* (p = 0.3), 1e3 a_*
       (p = 0.01) and (1 + 1e-4) a_* (p = 0.99) as count-1 sweeps; many
       independent momenta, no root bracketing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from pelastica import closure, qpotential

TORUS_ANCHOR = (0.5, 2, 3)
# Pairs of the seeded torus curves.  The seed draws their p; fixing the pairs
# keeps the traced and lifted length (m periods) and the momentum range, and
# with them the work of a pass, the same for every seed.
TORUS_PAIRS = ((5, 8), (11, 19))

SWEEP_ANCHOR_P = (0.01, 0.5, 0.99)
SWEEP_COUNTS = {"lambda": 16, "upsilon": 8}
SWEEP_OFFSET_MIN = 1e-6
SWEEP_OFFSET_CAP = 1e5
# quad.integrate_over_arch grades its mesh down to theta = 1e-300 at most (it
# floors grade_floor / 8 there), so Lambda resolves its inner layer only while
# the layer's theta scale stays at or above 8e-300.  Past that point the mesh
# cannot reach the layer and Lambda is wrong (at p = 0.99 from a ~ 1.6e4 a_*,
# where it returns ~2e-4 instead of just above pi); sweeps stop before it.
LAMBDA_LAYER_FLOOR = 8e-300
# Offsets giving a = 1e5 a_*, 1e3 a_* and (1 + 1e-4) a_*.
SWEEP_ENVELOPE = ((0.3, 1e5 - 1.0), (0.01, 1e3 - 1.0), (0.99, 1e-4))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output check needs to know."""

    argv: tuple
    kind: str  # table | hopf | curve | sweep
    expect: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(a for a in self.argv if "{out}" not in a and a != "--out")


def table(rng: random.Random) -> list[Command]:
    return [Command(("table1", "--out", "{out}.csv"), "table")]


def _torus_curve(p: float, n: int, m: int) -> list[Command]:
    if not closure.is_admissible(n, m):
        raise ValueError(f"generator produced an inadmissible pair ({n}, {m})")
    ps, ns, ms = repr(p), str(n), str(m)
    expect = {"p": p, "n": n, "m": m}
    return [
        Command(("hopf", "--p", ps, "--n", ns, "--m", ms, "--out", "{out}"), "hopf", expect),
        Command(
            ("curve", "--p", ps, "--n", ns, "--m", ms,
             "--format", "csv,json,svg", "--out", "{out}"),
            "curve",
            expect,
        ),
    ]


def torus(rng: random.Random) -> list[Command]:
    # One p in each half of [0.1, 0.9], assigned to the pairs at random.
    ps = [round(rng.uniform(0.1, 0.5), 3), round(rng.uniform(0.5, 0.9), 3)]
    rng.shuffle(ps)
    commands = _torus_curve(*TORUS_ANCHOR)
    for p, (n, m) in zip(ps, TORUS_PAIRS):
        commands += _torus_curve(p, n, m)
    return commands


def lambda_layer(p: float, a: float) -> float:
    """Theta scale of Lambda's inner layer, as closure.lambda_p computes it."""
    params = qpotential.make_params(p, a)
    qp_beta = params.q_prime(params.beta)
    return (1.0 - p) * params.beta / math.sqrt(qp_beta * (params.alpha - params.beta))


def sweep_offset_max(p: float) -> float:
    """Largest grid offset: half the way to momentum_cap, at most 1e5, and
    stepped down by eighths of a decade until Lambda's layer is resolvable."""
    hi = min(SWEEP_OFFSET_CAP, 0.5 * qpotential.momentum_cap(p) / qpotential.a_star(p))
    offset, k = hi, 0
    while lambda_layer(p, qpotential.a_star(p) * (1.0 + offset)) < LAMBDA_LAYER_FLOOR:
        k += 1
        offset = hi * 10.0 ** (-k / 8.0)
    return offset


def _sweep(p: float, quantity: str, lo: float, hi: float, count: int) -> Command:
    if qpotential.a_star(p) * (1.0 + hi) >= qpotential.momentum_cap(p):
        raise ValueError(f"sweep offset {hi} at p = {p} reaches momentum_cap")
    argv = (
        "sweep", "--p", repr(p), "--quantity", quantity,
        "--offset-min", repr(lo), "--offset-max", repr(hi), "--count", str(count),
        "--out", "{out}.csv",
    )
    expect = {"p": p, "quantity": quantity, "lo": lo, "hi": hi, "count": count}
    return Command(argv, "sweep", expect)


def sweep(rng: random.Random) -> list[Command]:
    seeded = (round(rng.uniform(0.05, 0.5), 3), round(rng.uniform(0.5, 0.95), 3))
    commands = []
    for p in SWEEP_ANCHOR_P + seeded:
        for quantity, count in SWEEP_COUNTS.items():
            commands.append(_sweep(p, quantity, SWEEP_OFFSET_MIN, sweep_offset_max(p), count))
    for p, offset in SWEEP_ENVELOPE:
        for quantity in SWEEP_COUNTS:
            commands.append(_sweep(p, quantity, offset, offset, 1))
    return commands


WORKLOADS = {"table": table, "torus": torus, "sweep": sweep}


def generate(name: str, seed: int) -> list[Command]:
    return WORKLOADS[name](random.Random(seed))
