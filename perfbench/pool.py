"""Seeded workload inputs drawn from fixed, admissible pools.

Every input the benchmark can generate comes from the finite pools below,
so the sha256 goldens in ``goldens.json`` cover every seed.  The ROADMAP
anchor states are always part of a round; seeded draws add to them.

A state is ``(n, l, m, b, c)`` with Z = 1.  Admissible means a real
angular order (b + m^2 >= 0) and, when c > 0, odd l - |m|.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

State = tuple  # (n, l, m, b, c)

# ------------------------------------------------------------ figure pools

FIGURE_ANCHOR: State = (6, 5, 0, 0.5, 0.5)
SLICE_ANCHOR: State = (2, 1, 0, 0.5, 0.5)
FIGURE_POOL: tuple[State, ...] = (
    (2, 1, 0, 0.5, 0.5), (3, 2, 1, 0.5, 0.5), (4, 3, 0, 0.5, 0.5),
    (3, 1, 0, 1.0, 1.0), (4, 2, 1, 0.5, 2.0), (5, 4, 1, 0.5, 0.5),
    (4, 1, 0, 0.5, 0.5), (5, 3, 0, 0.5, 0.5), (6, 3, 2, 0.5, 0.5),
    (5, 2, 1, 0.5, 3.0), (3, 2, 1, 0.0, 0.0), (4, 2, 0, 0.0, 0.0),
)
FIXED_LEVEL = 50
# The low level L and its partner LOW_PAIR_SUM - L both lie in [5, 20];
# alternate rounds use the pair, so the series cost is nearly seed-free.
LOW_LEVELS = tuple(range(5, 21))
LOW_PAIR_SUM = 25
SLICE_LEVELS = "10:100:10"

# ------------------------------------------------------------ verify pools

VERIFY_ANCHOR: State = (6, 5, 0, 0.5, 10.0)
# Non-integer m' and gamma1 (c is not k(k - 1)); every one needs 16384
# Gauss nodes today, like the anchor, and passes.
VERIFY_NONINTEGER: tuple[State, ...] = tuple(
    (n, l, 0, b, c) for n, l, bs in ((6, 5, (0.4, 0.45, 0.5)),
                                     (6, 3, (0.4, 0.45)))
    for b in bs for c in (8.0, 10.0, 15.0)
    if (n, l, 0, b, c) != VERIFY_ANCHOR)
# Integer m' and gamma1 (b + m^2 a square, 1 + 4c a square or c = 0).
VERIFY_INTEGER: tuple[State, ...] = (
    (6, 5, 0, 0.0, 2.0), (6, 5, 2, 0.0, 6.0), (5, 2, 1, 3.0, 2.0),
    (5, 2, 1, 0.0, 2.0), (6, 5, 0, 1.0, 2.0), (4, 1, 0, 1.0, 6.0),
    (5, 4, 1, 3.0, 12.0), (6, 3, 2, 0.0, 2.0), (4, 3, 0, 0.0, 6.0),
)
# Near-hydrogen barriers: quadrature raises ConvergenceError at this
# commit.  Only the unlisted ``verify-edge`` workload runs them.
EDGE_ANCHOR: State = (6, 1, 0, 1e-3, 1e-3)
EDGE_POOL: tuple[State, ...] = ((6, 1, 0, 1e-4, 1e-4), (6, 1, 0, 1e-6, 1e-6))

# ------------------------------------------------------------- sweep pools

SWEEP_WORKERS = 2
SWEEP_VARIANTS = 4


@dataclass(frozen=True)
class Size:
    """Problem size of one configuration: full, or the tiny smoke one."""

    figure_n: int
    sweep_n: int


FULL = Size(figure_n=151, sweep_n=101)
SMOKE = Size(figure_n=15, sweep_n=15)


def admissible(state: State) -> bool:
    n, l, m, b, c = state
    return (0 <= abs(m) <= l < n and b + m * m >= 0.0
            and (c == 0.0 or (l - abs(m)) % 2 == 1))


def _fmt(x: float) -> str:
    return repr(float(x))


def state_flags(state: State) -> list[str]:
    n, l, m, b, c = state
    return ["--n", str(n), "--l", str(l), "--m", str(m),
            "--b", _fmt(b), "--c", _fmt(c)]


def state_argv(state: State) -> list[str]:
    return ["state"] + state_flags(state)


def grid_argv(state: State, n_points: int) -> list[str]:
    return ["grid"] + state_flags(state) + ["--N", str(n_points)]


def isosurface_argv(state: State, n_points: int, level: int) -> list[str]:
    return (["isosurface"] + state_flags(state)
            + ["--N", str(n_points), "--level", str(level), "--cutaway"])


def slice_argv(state: State, n_points: int) -> list[str]:
    return (["slice"] + state_flags(state)
            + ["--N", str(n_points), "--levels", SLICE_LEVELS])


def verify_argv(state: State) -> list[str]:
    return ["verify"] + state_flags(state)


def key(argv: list[str]) -> str:
    """Golden key of a command: its arguments without the output path."""
    return " ".join(argv)


def sweep_job(variant: int, size: Size) -> dict:
    """Job file of one sweep variant: six mixed runs, no near-hydrogen."""
    rng = random.Random(f"sweep-{variant}")

    def run(state, outputs, **extra):
        n, l, m, b, c = state
        entry = {"n": n, "l": l, "m": m, "b": b, "c": c,
                 "grid": {"n_points": size.sweep_n}, "outputs": outputs}
        entry.update(extra)
        return entry

    runs = [
        run(FIGURE_ANCHOR, ["grid"]),
        run(FIGURE_ANCHOR, ["isosurface"], level=FIXED_LEVEL, cutaway=True),
        run(SLICE_ANCHOR, ["slice"]),
        run(rng.choice(FIGURE_POOL), ["grid", "isosurface"],
            level=FIXED_LEVEL, cutaway=True),
        run(rng.choice(FIGURE_POOL), ["slice"]),
        run(rng.choice(VERIFY_INTEGER), ["verify"]),
    ]
    rng.shuffle(runs)
    return {"output_dir": "out", "workers": SWEEP_WORKERS, "runs": runs}


def run_state(run: dict) -> State:
    return (run["n"], run["l"], run["m"], run["b"], run["c"])


def run_file_argvs(run: dict) -> list[list[str]]:
    """The CLI commands whose output equals a sweep run's data files."""
    state, n_points = run_state(run), run["grid"]["n_points"]
    argvs = []
    for kind in run["outputs"]:
        if kind == "grid":
            argvs.append(grid_argv(state, n_points))
        elif kind == "isosurface":
            argvs.append(isosurface_argv(state, n_points, run["level"]))
        elif kind == "slice":
            argvs.append(slice_argv(state, n_points))
    return argvs


def sweep_key(job: dict) -> str:
    return json.dumps(job, sort_keys=True)


# --------------------------------------------------------------- rounds

def figure_round(rng: random.Random, index: int, low: int, size: Size):
    """Commands of one figure round; round 0 carries the anchors."""
    drawn = rng.choice(FIGURE_POOL)
    slice_state = SLICE_ANCHOR if index % 2 == 0 else drawn
    return {
        "state": [state_argv(FIGURE_ANCHOR), state_argv(drawn)],
        "grid": [grid_argv(FIGURE_ANCHOR, size.figure_n)],
        "isosurface": [isosurface_argv(FIGURE_ANCHOR, size.figure_n, lvl)
                       for lvl in (FIXED_LEVEL, low)],
        "slice": [slice_argv(slice_state, size.figure_n)],
    }


def low_levels(rng: random.Random):
    """Endless low-level series: L, 25 - L, L', 25 - L', ..."""
    while True:
        low = rng.choice(LOW_LEVELS)
        yield low
        yield LOW_PAIR_SUM - low


def verify_round(rng: random.Random, smoke: bool) -> list[State]:
    """Anchor, one non-integer draw and one integer draw, in seeded order.

    The smoke configuration keeps only the cheap integer class.
    """
    if smoke:
        states = rng.sample(VERIFY_INTEGER, 3)
    else:
        states = [VERIFY_ANCHOR, rng.choice(VERIFY_NONINTEGER),
                  rng.choice(VERIFY_INTEGER)]
    rng.shuffle(states)
    return states


def sweep_order(rng: random.Random) -> list[int]:
    order = list(range(SWEEP_VARIANTS))
    rng.shuffle(order)
    return order


def edge_round(rng: random.Random) -> list[State]:
    return [EDGE_ANCHOR, rng.choice(EDGE_POOL)]


def all_golden_inputs(size: Size):
    """Every file- or JSON-producing command a seed can draw for ``size``."""
    states = {FIGURE_ANCHOR, SLICE_ANCHOR, *FIGURE_POOL}
    for s in sorted(states):
        yield state_argv(s)
        yield slice_argv(s, size.figure_n)
    yield grid_argv(FIGURE_ANCHOR, size.figure_n)
    for lvl in (FIXED_LEVEL, *LOW_LEVELS):
        yield isosurface_argv(FIGURE_ANCHOR, size.figure_n, lvl)
    seen = set()
    for variant in range(SWEEP_VARIANTS):
        for run in sweep_job(variant, size)["runs"]:
            for argv in run_file_argvs(run):
                if key(argv) not in seen:
                    seen.add(key(argv))
                    yield argv
