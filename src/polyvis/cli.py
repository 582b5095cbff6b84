"""Command-line surface for the visibility toolkit.

    polyvis visible   --poly 1,1 --point 13,195
    polyvis density   --poly 1 --n 1000 [--out prefix.csv] [--prime-bound B]
    polyvis count     --poly 1 --n 5 --mode pruned
    polyvis construct --point 3,5 [--prime 7 | --multi 7,11]
    polyvis blocks    --poly 1,1 --size 2 --max 1000,1000 [--all --out blocks.csv]
    polyvis classify  --poly 1,1 --region 1,50,1,50 [--out grid.csv]
    polyvis radius    --poly 1 --region 1,10,1,10 --r 0
    polyvis reproduce --target illustration|table1 [--rows 7,13,14]

Each run prints a single JSON envelope {command, family?, payload,
elapsed_ms} on stdout; CSV output goes to the --out path. Exit codes:
0 success, 1 reproduction failure, 2 bad input, including an --out path
that cannot be written, 3 resource cap exceeded. run(), the process
entry, freezes the heap on every way out: the collections at exit skip it.

Scope caps, all checked by the helpers here before any census or geometry call:
N <= 10000 (density, count); regions <= 2000 per side (blocks, classify,
and radius, which counts its region grown by r); coordinates of --point
(visible, construct) and of region corners (blocks --max, classify,
radius grown by r) <= 100000. LATTICE_SCOPE_CAP, a positive integer,
overrides all of them with one value, so under it the side cap never
binds before the coordinate cap: a side is at most the region's largest
coordinate, which is checked first. Library functions take no cap, so a
library caller bounds its own work. Fixed caps, kept in the library and
left alone by LATTICE_SCOPE_CAP: density --prime-bound <= 1000000; count
--mode oracle N <= 100 (subsets N <= 26); construct primes of at most
64 bits, at most 4 of them for --multi. blocks --out without --all,
--rows with --target illustration or naming no survey row, and an empty
--out or --rows, are bad input: an empty value is not an absent flag.

Each command pays only for its own work. Its handler cmd_<name> sits
beside the module it drives (`_COMMANDS`); only visible and reproduce live
here. The parser registers all eight names but gives arguments only to
the one argv[0] names, or to all when it names none. All load polyfam and
errors; visible adds visibility (one P(a), one gcd, at most one scan).
construct and the illustration add construct and arith. The others add
arith, roots, columns and census (density and count: the paper's exact
double sum over one ProfileCache, with the roots of the primes <= N found
in batches first) or geometry; the oracles and the survey's corner check
add visibility. No command loads csv: the CSVs are written as bytes.
`visible` tries the lcm certificate before the O(a) column scan. --out
is opened before any work, after the input checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from importlib import import_module

from .errors import ResourceLimitError
from .polyfam import LatticePoint, parse_family

DEFAULT_N_CAP = 10_000
DEFAULT_REGION_CAP = 2000  # per side
DEFAULT_COORD_CAP = 100_000


def scope_cap(default: int) -> int:
    """LATTICE_SCOPE_CAP when it is set, else default."""
    raw = os.environ.get("LATTICE_SCOPE_CAP")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"LATTICE_SCOPE_CAP={raw!r} is not an integer") from None
    if cap < 1:
        raise ValueError(f"LATTICE_SCOPE_CAP={raw!r} must be a positive integer")
    return cap


def parse_ints(text: str, what: str, count: int | None = None) -> list[int]:
    """Comma list of integers, exactly count of them when count is given.

    what completes the error message, e.g. "--max must be 'X,Y'".
    """
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        values = None
    if values is None or (count is not None and len(values) != count):
        raise ValueError(f"{what}, got {text!r}")
    return values


def parse_point(text: str) -> LatticePoint:
    """--point, with both coordinates within the coordinate cap."""
    pt = LatticePoint(*parse_ints(text, "point must be 'a,b'", 2))
    limit = scope_cap(DEFAULT_COORD_CAP)
    if max(pt.a, pt.b) > limit:
        raise ResourceLimitError(f"point {pt.a},{pt.b} exceeds the coordinate cap {limit}")
    return pt


def check_region(region, reach: int = 0) -> None:
    """Raise unless the region grown by reach up and right is within the caps:
    its largest coordinate within the coordinate cap, then each side within
    the region cap. A negative reach is refused (`Region.grown`) in between.

    A column's work and its cache's bound grow with the coordinates, so the
    side cap alone does not bound a region far from the origin.
    """
    top, limit = region.extent + max(reach, 0), scope_cap(DEFAULT_COORD_CAP)
    if top > limit:
        raise ResourceLimitError(f"region reaches coordinate {top}, past the coordinate cap {limit}")
    grown, limit = region.grown(reach), scope_cap(DEFAULT_REGION_CAP)
    if grown.width > limit or grown.height > limit:
        raise ResourceLimitError(f"region {grown.width}x{grown.height} exceeds the {limit}x{limit} cap")


def cmd_visible(args):
    from .visibility import gcd_p, is_visible, lcm_criterion

    fam = parse_family(args.poly)
    pt = parse_point(args.point)
    verdict = is_visible(fam, pt)
    payload = {"visible": verdict.visible}
    if not verdict.visible:
        payload["witness_t"] = verdict.witness_t
        payload["witness_modulus"] = verdict.witness_modulus
    payload["gcd_p"] = gcd_p(fam, pt)
    payload["lcm_criterion"] = lcm_criterion(fam, pt)
    return fam.spec, payload, 0


def cmd_reproduce(args):
    if args.target == "illustration":
        if args.rows is not None:
            raise ValueError("--rows selects survey rows; it applies only to --target table1")
        from .construct import reproduce_illustration

        items = reproduce_illustration()
    else:
        rows = [] if args.rows is None else parse_ints(args.rows, "--rows must be a comma list of integers")
        from .geometry import reproduce_survey

        items = reproduce_survey(set(rows))
    passed = sum(1 for it in items if it["passed"])
    payload = {"target": args.target, "items": items, "passed": passed, "total": len(items)}
    return None, payload, 0 if passed == len(items) else 1


# name -> (help, the module whose cmd_<name> runs it)
_COMMANDS = {
    "visible": ("visibility verdict for one point", "cli"),
    "density": ("exact visible count and density over [1,N]^2", "census"),
    "count": ("inclusion-exclusion visible-pair count", "census"),
    "construct": ("curve through (a,b) missing earlier columns", "construct"),
    "blocks": ("first (or all) all-invisible n x n block", "geometry"),
    "classify": ("visibility grid over a region", "geometry"),
    "radius": ("first point whose visibility radius is exactly r", "geometry"),
    "reproduce": ("re-run the bundled worked example or block survey", "cli"),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's parser, or, when command names one, a parser that gives only it
    arguments. It still registers every name, so argv that starts with command parses,
    fails and prints help as under the full parser."""
    parser = argparse.ArgumentParser(
        prog="polyvis",
        description="visibility of lattice points along polynomial curve families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, help=text) for name, (text, _) in _COMMANDS.items()}
    built = {command: subs[command]} if command in subs else subs
    if p := built.get("visible"):
        p.add_argument("--poly", required=True, help="coefficients a_n,...,a_1 (descending)")
        p.add_argument("--point", required=True, help="a,b")
    if p := built.get("density"):
        p.add_argument("--poly", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", help="write per-N prefix densities as CSV")
        p.add_argument("--prime-bound", type=int, default=10_000, dest="prime_bound")
    if p := built.get("count"):
        p.add_argument("--poly", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--mode", choices=("oracle", "pruned", "subsets"), default="pruned")
    if p := built.get("construct"):
        p.add_argument("--point", required=True, help="a,b")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--prime", type=int, help="explicit prime > max(a,b)")
        group.add_argument("--multi", help="comma list of distinct primes to average")
    if p := built.get("blocks"):
        p.add_argument("--poly", required=True)
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--max", required=True, help="X,Y scan bound (region [1,X]x[1,Y])")
        p.add_argument("--all", action="store_true", help="collect every block corner")
        p.add_argument("--out", help="CSV path for --all")
    if p := built.get("classify"):
        p.add_argument("--poly", required=True)
        p.add_argument("--region", required=True, help="minx,maxx,miny,maxy")
        p.add_argument("--out", help="write x,y,visible CSV")
    if p := built.get("radius"):
        p.add_argument("--poly", required=True)
        p.add_argument("--region", required=True, help="minx,maxx,miny,maxy")
        p.add_argument("--r", type=int, required=True)
    if p := built.get("reproduce"):
        p.add_argument("--target", choices=["illustration", "table1"], required=True)
        p.add_argument("--rows", help="comma list of survey row numbers to check")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    start = time.perf_counter()
    handler = getattr(import_module(f"{__package__}.{_COMMANDS[args.command][1]}"), f"cmd_{args.command}")
    try:
        family, payload, code = handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    envelope: dict = {"command": args.command}
    if family is not None:
        envelope["family"] = family
    envelope["payload"] = payload
    envelope["elapsed_ms"] = (time.perf_counter() - start) * 1000.0
    print(json.dumps(envelope))
    return code


def run() -> None:
    """The process entry (console script and python -m polyvis): main(), then exit.

    Every way out freezes the heap first, so the interpreter's last cyclic
    collections skip the objects it holds; main() itself keeps the collector.
    """
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()
