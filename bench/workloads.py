"""The four benchmark workloads, why each exists, and what each layer metric should move.

A workload is a fixed list of slots; each slot holds a small pool of
`polyvis` command lines of about equal cost, and a seed picks one command
from every slot. So one pass over a workload is always the same layer mix,
every seed gives different inputs, and every command any seed can produce
has a recorded answer in answers.json (regenerate it with record.py).

The pools are drawn once from a fixed generator seed, never from the run
seed, so they do not change unless this file does. The string "{out}"
stands for the path of a fresh temporary CSV file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

OUT = "{out}"


@dataclass(frozen=True)
class Op:
    """One `polyvis` command line, with OUT where the --out path goes."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def writes_out(self) -> bool:
        return OUT in self.argv

    def arg(self, flag: str) -> str | None:
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None

    def resolve(self, out_path: str) -> list[str]:
        return [out_path if a == OUT else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[tuple[Op, ...], ...]

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.choice(slot) for slot in self.slots]

    def candidates(self) -> list[Op]:
        return list(dict.fromkeys(op for slot in self.slots for op in slot))


def _op(*argv) -> Op:
    return Op(tuple(str(a) for a in argv))


def _poly_value(spec: str, x: int) -> int:
    """P(x) for a descending coefficient list; the benchmark's own Horner."""
    acc = 0
    for c in spec.split(","):
        acc = acc * x + int(c)
    return acc * x


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _primes_above(n: int, count: int) -> list[int]:
    got = []
    while len(got) < count:
        n += 1
        if _is_prime(n):
            got.append(n)
    return got


# census: the columns profiled by every sieve pass dominate; degree changes
# the size of P(a), the factoring cost and the number of minimal moduli.
_CENSUS_N = (1092, 1096, 1100, 1104, 1108)
CENSUS = Workload(
    "census",
    "density --out and pruned count at N~1100: column profiling over three redundant sieve passes dominates",
    (
        tuple(_op("density", "--poly", "1,1", "--n", n, "--out", OUT) for n in _CENSUS_N),
        tuple(_op("density", "--poly", "1,0,0", "--n", n, "--out", OUT) for n in _CENSUS_N),
        tuple(_op("density", "--poly", "3,0,2,1", "--n", n, "--out", OUT) for n in _CENSUS_N),
        tuple(_op("count", "--poly", "2,5", "--n", n, "--mode", "pruned") for n in _CENSUS_N),
    ),
)

# euler: a small N keeps profiling near zero, so the Euler product's rho
# enumeration is almost all of the work; census bypasses this mechanism.
_EULER_B = (19900, 20000, 20100)
EULER = Workload(
    "euler",
    "density at N=150 with prime bound ~2e4 for degrees 1, 2 and 4: rho dominates, profiling is near zero",
    (
        tuple(_op("density", "--poly", "1", "--n", 150, "--prime-bound", b) for b in _EULER_B),
        tuple(
            _op("density", "--poly", f, "--n", 150, "--prime-bound", b)
            for f in ("1,1", "2,5", "1,0", "3,1")
            for b in _EULER_B
        ),
        tuple(
            _op("density", "--poly", f, "--n", 150, "--prime-bound", b)
            for f in ("3,0,2,1", "1,0,0,0", "1,1,1,1")
            for b in _EULER_B
        ),
    ),
)

# grid: y offsets keep every y four digits wide, so the CSV has the same
# size for every seed; the two block slots split the bundled survey.
_SURVEY = ("1,1", "2,5", "3,2", "5,1", "7,5", "2,7", "4,9", "2,3", "3,5", "1,18", "1,14", "4,5")
GRID = Workload(
    "grid",
    "classify --out over 1000^2, blocks --all, table1 and a radius scan: CSV writing leads, then profiling and scans",
    (
        tuple(
            _op("classify", "--poly", "1,1", "--region", f"1,1000,{y},{y + 999}", "--out", OUT)
            for y in range(1000, 9000, 1000)
        ),
        tuple(_op("blocks", "--poly", f, "--size", 2, "--max", "1000,1000", "--all", "--out", OUT) for f in _SURVEY[:6]),
        tuple(_op("blocks", "--poly", f, "--size", 2, "--max", "1000,1000", "--all", "--out", OUT) for f in _SURVEY[6:]),
        (_op("reproduce", "--target", "table1"),),
        tuple(
            _op("radius", "--poly", "1,1", "--region", f"{x},{x + 299},{y},{y + 299}", "--r", 3)
            for x, y in ((1, 1), (101, 1), (1, 501), (201, 301))
        ),
    ),
)


def _query_slots() -> tuple[tuple[Op, ...], ...]:
    rng = random.Random("polyvis-bench-queries")
    slots = []
    # Eight a-strata over [2e4, 1e5). Even strata hold visible points (b is
    # coprime to P(a), so the scan runs the whole column); odd strata hold
    # points of P(x) = x where a = d*q and b = q, so t = d <= 12 is a witness.
    for i in range(8):
        lo, hi = 20_000 + 10_000 * i, 29_999 + 10_000 * i
        pool = []
        for _ in range(4):
            if i % 2 == 0:
                spec = ("1,1", "2,5")[i // 2 % 2]
                a = rng.randint(lo, hi)
                b = rng.randint(2, 100_000)
                while gcd(_poly_value(spec, a), b) != 1:
                    b = rng.randint(2, 100_000)
            else:
                spec = "1"
                d = rng.randint(2, 12)
                q = rng.randint(-(-lo // d), hi // d)
                a, b = d * q, q
            pool.append(_op("visible", "--poly", spec, "--point", f"{a},{b}"))
        slots.append(tuple(pool))
    for multi in (False, False, True, True):
        pool = []
        for _ in range(4):
            a, b = rng.randint(3000, 5000), rng.randint(1, 5000)
            if multi:
                ells = rng.sample(_primes_above(max(a, b), 6), 2)
                pool.append(_op("construct", "--point", f"{a},{b}", "--multi", f"{ells[0]},{ells[1]}"))
            else:
                pool.append(_op("construct", "--point", f"{a},{b}"))
        slots.append(tuple(pool))
    for spec, r in (("1", 1), ("1,1", 1), ("2,5", 2)):
        pool = []
        for _ in range(4):
            x, y = rng.randint(1, 200), rng.randint(1, 200)
            pool.append(_op("radius", "--poly", spec, "--region", f"{x},{x + 4},{y},{y + 4}", "--r", r))
        slots.append(tuple(pool))
    return tuple(slots)


QUERIES = Workload(
    "queries",
    "15 short visible/construct/radius processes at a<=1e5: process start-up outweighs the work; no column cache",
    _query_slots(),
)

WORKLOADS = {w.name: w for w in (CENSUS, EULER, GRID, QUERIES)}


# End-to-end metrics, measured by untraced runs of fresh processes; the
# times are at the nominal host speed (see run.py).
# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# Per-layer metrics from the traced run, with the end-to-end metric and
# workload each one should move. "*.s" is self time: span time minus the
# time of the wrapped calls made inside it.
# name -> (unit, better, what it should move)
PER_LAYER = {
    "cli.s": ("s", "lower", "wall_s on census: cli.main writes the density CSV inline"),
    "visibility.s": ("s", "lower", "wall_s on census and grid: all wrapped visibility functions"),
    "visibility.minimal_moduli.s": ("s", "lower", "wall_s on census (~55% of its in-process work), grid (~35%), euler none"),
    "visibility.minimal_moduli.calls": ("count", "lower", "wall_s on census and grid"),
    "visibility.columns_computed": ("count", "lower", "wall_s on census: first computations per (cache, a)"),
    "visibility.column_reuse": ("ratio", "higher", "wall_s on census: distinct (op, family, a) / columns_computed"),
    "visibility.moduli_kept": ("count", "lower", "nothing: a fixed count every profiling algorithm must reproduce"),
    "visibility.prime_set.s": ("s", "lower", "wall_s on census (~20% with factorize)"),
    "visibility.prime_set.calls": ("count", "lower", "wall_s on census"),
    "visibility.is_visible.s": ("s", "lower", "wall_s on queries"),
    "visibility.is_visible.calls": ("count", "lower", "wall_s on queries"),
    "arith.s": ("s", "lower", "wall_s on census: all wrapped arith functions"),
    "arith.factorize.s": ("s", "lower", "wall_s on census"),
    "arith.factorize.calls": ("count", "lower", "wall_s on census"),
    "census.s": ("s", "lower", "wall_s on census and euler: all wrapped census functions"),
    "census.sieve.s": ("s", "lower", "wall_s and peak_rss_mb on census"),
    "census.passes": ("count", "lower", "wall_s and peak_rss_mb on census: sieve calls per workload pass"),
    "census.rho.s": ("s", "lower", "wall_s on euler (~97% of its in-process work), census (~17%)"),
    "census.rho.calls": ("count", "lower", "wall_s on euler: primes <= B per density op"),
    "census.constant_cp.s": ("s", "lower", "wall_s on euler"),
    "geometry.s": ("s", "lower", "wall_s on grid: all wrapped geometry functions"),
    "geometry.csv.s": ("s", "lower", "wall_s and peak_rss_mb on grid (~45% of its in-process work)"),
    "geometry.csv.rows": ("count", "lower", "nothing: fixed by the output"),
    "geometry.csv.bytes": ("bytes", "lower", "nothing: fixed by the output"),
    "geometry.classify.s": ("s", "lower", "wall_s on grid"),
    "geometry.scan.s": ("s", "lower", "wall_s on grid"),
    "geometry.radius.s": ("s", "lower", "wall_s on grid and queries"),
    "construct.s": ("s", "lower", "wall_s on queries"),
    "construct.calls": ("count", "lower", "wall_s on queries"),
    "proc.cpu_s": ("s", "lower", "wall_s everywhere: user+sys CPU of one untraced pass of child processes"),
    "proc.start_s": ("s", "lower", "wall_s on queries: pass wall in child processes minus the same pass in process"),
    "trace.overhead_s": ("s", "lower", "nothing: traced in-process pass wall minus untraced in-process pass wall"),
    "trace.spans": ("count", "lower", "nothing: spans recorded in one traced pass"),
}
