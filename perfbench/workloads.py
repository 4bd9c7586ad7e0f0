"""Workload decks: the CLI argument lists each benchmark workload sends.

A workload is an endless sequence of decks.  Every deck holds the same
multiset of item shapes (cost classes); the workload seed and the deck index
choose the numeric inputs inside each shape and the order of the items.  A
run always measures whole decks, so the mix of shapes, and with it the
latency distribution, is the same on every seed.  The shape counts are chosen
so that the median and the tail percentile fall inside a shape's plateau,
not on the edge between two shapes.

Every deck draws fresh inputs (new generator seeds, new parameter grids), so
no argv repeats inside a run and a result cache in the program cannot turn
the benchmark into a cache benchmark.  The exception is domain-grid: the
domain command takes no random input, so each of its decks is the whole
grid again in a new order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True, slots=True)
class Item:
    """One CLI invocation: argv without --out, its shape and expected form.

    kind is 'verify', 'sweep' or 'domain'; reports is the number of reports
    the output must hold (1 for verify, the grid size for a sweep, 0 for
    domain, which emits a verdict document).
    """

    argv: tuple[str, ...]
    shape: str
    kind: str
    reports: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deck: Callable[[random.Random, int], list[Item]]
    #: whole decks every timed run measures at least; fixes the tail percentile
    min_decks: int
    #: shape of the set-up warm-up item: a cheap shape, so set-up stays small
    warmup: str

    def deck_items(self, seed: int, index: int) -> list[Item]:
        """Deck `index` of the run seeded with `seed`, in its run order."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        items = self.deck(rng, index)
        rng.shuffle(items)
        return items

    @property
    def tail_percentile(self) -> float:
        """Highest percentile with at least ten items beyond it in the
        shortest run the benchmark makes (min_decks whole decks)."""
        n = self.min_decks * len(self.deck(random.Random(0), 0))
        return 100.0 * (n - 10) / n


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1_000_000))


# --- random-dense -----------------------------------------------------------

RANDOM_COMBOS = tuple(
    (alpha, gamma)
    for alpha in ("poly:2", "geometric:0.9+0.2j", "poly:1", "geometric:1.05")
    for gamma in ("sqrt-poly:1", "affine:-1,3")
)
#: dim -> items per deck; the median sits inside the dim-24 plateau
RANDOM_DIMS = {64: 1, 48: 1, 32: 2, 24: 4, 16: 5}


def _random_dense(rng: random.Random, index: int) -> list[Item]:
    # (alpha, gamma) cycles with the deck index, not the seed, so every seed
    # runs the same weight mix; dim 64 starts on poly:2, the tolerance case
    items = []
    for dim, count in RANDOM_DIMS.items():
        for k in range(count):
            alpha, gamma = RANDOM_COMBOS[(index * count + k) % len(RANDOM_COMBOS)]
            argv = (
                "verify", "random", "--dim", str(dim), "--seed", _seed(rng),
                "--alpha", alpha, "--gamma", gamma,
            )
            items.append(Item(argv, f"dim{dim}", "verify", 1))
    return items


# --- projection-sweep -------------------------------------------------------

#: dim -> items per deck; the median sits in the dim-32 plateau, the tail in dim 64
PROJECTION_DIMS = {32: 6, 64: 2}
PROJECTION_ALPHAS = ("poly:1", "poly:2")
PROJECTION_SPAN = 2  # n-max - n-min: three reports per item
#: range of n-min; item cost grows with the support size, so keep it narrow
PROJECTION_N_MIN = (4, 8)


def _projection_sweep(rng: random.Random, index: int) -> list[Item]:
    items = []
    for dim, count in PROJECTION_DIMS.items():
        for k in range(count):
            n_min = rng.randint(*PROJECTION_N_MIN)
            argv = (
                "sweep", "projection", "--dim", str(dim),
                "--n-min", str(n_min), "--n-max", str(n_min + PROJECTION_SPAN),
                "--seed", _seed(rng),
                "--alpha", PROJECTION_ALPHAS[k % len(PROJECTION_ALPHAS)],
            )
            items.append(Item(argv, f"dim{dim}", "sweep", PROJECTION_SPAN + 1))
    return items


# --- three-level-sweep ------------------------------------------------------

#: steps -> items per deck; the median sits in the 11-step plateau, the tail in 13
THREE_LEVEL_STEPS = {9: 2, 11: 4, 13: 2}
_BOUNDARY = math.pi / 3.0  # end of the admissible interval [0, pi/3)


def _three_level_sweep(rng: random.Random, index: int) -> list[Item]:
    items = []
    for steps, count in THREE_LEVEL_STEPS.items():
        for _ in range(count):
            # the boundary falls halfway between two grid points, so exactly
            # (steps + 1) // 2 points are admissible whatever the width
            h = rng.uniform(0.02, 0.08)
            t_min = _BOUNDARY - ((steps - 1) // 2 + 0.5) * h
            t_max = t_min + (steps - 1) * h
            argv = (
                "sweep", "three-level", "--t-min", repr(t_min),
                "--t-max", repr(t_max), "--steps", str(steps),
                "--seed", _seed(rng),
            )
            items.append(Item(argv, f"steps{steps}", "sweep", steps))
    return items


# --- domain-grid ------------------------------------------------------------

DOMAIN_SPECS = (
    "poly:0", "poly:1", "poly:2", "sqrt-poly:1",
    "harmonic", "geometric:0.5", "geometric:1.01", "affine:1,2",
)
#: horizons stop at 16384: past it the squared terms of a geometric:1.01
#: pair overflow and the report carries Infinity (see DOMAIN_OVERFLOW_PROBE)
DOMAIN_N_MAX = (4096, 8192, 16384)
#: the smallest grid point whose output is not finite JSON at this commit;
#: run once per domain-grid run, after timing, and reported in the detail line
DOMAIN_OVERFLOW_PROBE = Item(
    ("domain", "--alpha", "geometric:1.01", "--coeff", "geometric:1.01", "--n-max", "32768"),
    "n32768",
    "domain",
    0,
)


def _domain_grid(rng: random.Random, index: int) -> list[Item]:
    # the full grid: every (alpha, coeff) pair at every horizon; the seed
    # only orders it, because the domain command has no random input
    return [
        Item(
            ("domain", "--alpha", alpha, "--coeff", coeff, "--n-max", str(n_max)),
            f"n{n_max}",
            "domain",
            0,
        )
        for alpha in DOMAIN_SPECS
        for coeff in DOMAIN_SPECS
        for n_max in DOMAIN_N_MAX
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random-dense",
            "verify random at dims 16..64: the pure-Python eigensolver dominates, "
            "real/complex alpha and monotone/non-monotone gamma branches all run",
            _random_dense,
            min_decks=2,
            warmup="dim16",
        ),
        Workload(
            "projection-sweep",
            "sweep projection at dims 32 and 64: eigensolves are short, so operator "
            "assembly, rank-one loops and check rebuilding show",
            _projection_sweep,
            min_decks=8,
            warmup="dim32",
        ),
        Workload(
            "three-level-sweep",
            "sweep three-level across the admissible boundary at pi/3: 3x3 matrices, "
            "per-call overhead, models, sequences and report rendering dominate",
            _three_level_sweep,
            min_decks=8,
            warmup="steps9",
        ),
        Workload(
            "domain-grid",
            "domain verdicts on 64 weight/coefficient pairs at n-max 4096..16384: "
            "no linear algebra, the only workload that runs domains",
            _domain_grid,
            min_decks=4,
            warmup="n4096",
        ),
    )
}
