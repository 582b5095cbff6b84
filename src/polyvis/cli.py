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

Scope caps, all checked here before any census or geometry call:
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

Each command pays only for its own work. All load polyfam, errors and
visibility (one P(a), one gcd, at most one scan). construct and the
illustration add construct and arith. The others but visible add arith,
roots, columns and census (density and count: the paper's exact double sum
over one ProfileCache, with the roots of the primes <= N found in batches
first) or geometry. No command loads csv: the CSVs are written as bytes.
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

from .errors import ResourceLimitError
from .polyfam import LatticePoint, parse_family
from .visibility import gcd_p, is_visible, is_visible_direct, lcm_criterion

DEFAULT_N_CAP = 10_000
DEFAULT_REGION_CAP = 2000  # per side
DEFAULT_COORD_CAP = 100_000


def _scope_cap(default: int) -> int:
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


def _parse_ints(text: str, what: str, count: int | None = None) -> list[int]:
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


def _parse_point(text: str) -> LatticePoint:
    """--point, with both coordinates within the coordinate cap."""
    pt = LatticePoint(*_parse_ints(text, "point must be 'a,b'", 2))
    limit = _scope_cap(DEFAULT_COORD_CAP)
    if max(pt.a, pt.b) > limit:
        raise ResourceLimitError(f"point {pt.a},{pt.b} exceeds the coordinate cap {limit}")
    return pt


def _parse_region(text: str):
    from .geometry import Region

    return Region(*_parse_ints(text, "region must be 'minx,maxx,miny,maxy'", 4))


def _check_region(region, reach: int = 0) -> None:
    """Raise unless the region grown by reach up and right is within the caps:
    its largest coordinate within the coordinate cap, then each side within
    the region cap. A negative reach is refused (`Region.grown`) in between.

    A column's work and its cache's bound grow with the coordinates, so the
    side cap alone does not bound a region far from the origin.
    """
    top, limit = region.extent + max(reach, 0), _scope_cap(DEFAULT_COORD_CAP)
    if top > limit:
        raise ResourceLimitError(f"region reaches coordinate {top}, past the coordinate cap {limit}")
    grown, limit = region.grown(reach), _scope_cap(DEFAULT_REGION_CAP)
    if grown.width > limit or grown.height > limit:
        raise ResourceLimitError(f"region {grown.width}x{grown.height} exceeds the {limit}x{limit} cap")


def _check_n(n: int, limit: int) -> None:
    """Raise unless 1 <= N <= limit, the N cap."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if n > limit:
        raise ResourceLimitError(f"N={n} exceeds the configured cap {limit}")


def cmd_visible(args):
    fam = parse_family(args.poly)
    pt = _parse_point(args.point)
    verdict = is_visible(fam, pt)
    payload = {"visible": verdict.visible}
    if not verdict.visible:
        payload["witness_t"] = verdict.witness_t
        payload["witness_modulus"] = verdict.witness_modulus
    payload["gcd_p"] = gcd_p(fam, pt)
    payload["lcm_criterion"] = lcm_criterion(fam, pt)
    return fam.spec, payload, 0


def cmd_density(args):
    from . import census
    from .columns import ProfileCache

    fam = parse_family(args.poly)
    n_cap = _scope_cap(DEFAULT_N_CAP)  # a bad LATTICE_SCOPE_CAP is reported before a bad prime bound
    census.check_prime_bound(args.prime_bound)
    _check_n(args.n, n_cap)
    cache = ProfileCache(fam, args.n)
    if args.out is not None:
        open(args.out, "a").close()  # an unwritable path fails before the census
    constant = census.constant_cp(fam, args.prime_bound, cache.roots)  # roots to B; each sweep adds (B, N]
    if args.out is not None:
        rows = census.density_rows(fam, args.n, cache)
        with open(args.out, "wb") as fh:
            fh.write(b"N,visible_count,density\r\n" + b"".join(b"%d,%d,%r\r\n" % row for row in rows))
        visible_count = rows[-1][1]
    else:
        visible_count = census.exact_count_ie(fam, args.n, cache=cache)
    coprime = census.coprimality_count(fam, args.n, cache)
    payload = {
        "n": args.n,
        "visible_count": visible_count,
        "density": visible_count / (args.n * args.n),
        "coprimality_count": coprime,
        "c_p_constant": constant.value,
        "tail_bound": constant.tail_bound,
    }
    return fam.spec, payload, 0


def cmd_count(args):
    from . import census

    fam = parse_family(args.poly)
    _check_n(args.n, _scope_cap(DEFAULT_N_CAP))
    counter = {"oracle": census.brute_count, "pruned": census.exact_count_ie, "subsets": census.subset_count}
    count = counter[args.mode](fam, args.n)
    return fam.spec, {"n": args.n, "count": count, "mode": args.mode}, 0


def cmd_construct(args):
    from . import construct

    pt = _parse_point(args.point)
    if args.multi is not None:
        ells = _parse_ints(args.multi, "--multi must be a comma list of integers")
        got = construct.construct_multi_prime(pt, ells)
    else:
        got = construct.construct_visible(pt, args.prime)
    return None, got.to_record(), 0


def cmd_blocks(args):
    from . import geometry

    fam = parse_family(args.poly)
    mx, my = _parse_ints(args.max, "--max must be 'X,Y'", 2)
    region = geometry.Region(1, mx, 1, my)
    if args.all != (args.out is not None):
        raise ValueError("--all and --out go together: --all writes its block corners to --out")
    _check_region(region)
    if args.out is not None:
        open(args.out, "a").close()  # an unwritable path fails before the scan
    payload = {"scanned_region": [1, mx, 1, my]}
    if args.all:
        hits = geometry.find_all_blocks(fam, args.size, region)
        geometry.blocks_to_csv(hits, args.out)
        payload["found"] = bool(hits)
        payload["block_count"] = len(hits)
        if hits:
            payload["corner"] = hits[0].to_record()
    else:
        hit = geometry.find_block(fam, args.size, region)
        payload["found"] = hit is not None
        if hit is not None:
            payload["corner"] = hit.to_record()
    return fam.spec, payload, 0


def cmd_classify(args):
    from . import geometry

    fam = parse_family(args.poly)
    region = _parse_region(args.region)
    _check_region(region)
    if args.out is not None:
        open(args.out, "a").close()  # an unwritable path fails before the grid
    grid = geometry.classify_region(fam, region)
    if args.out is not None:
        geometry.region_to_csv(grid, region, args.out)
    payload = {
        "region": [region.min_x, region.max_x, region.min_y, region.max_y],
        "visible_count": sum(col.count(1) for col in grid),
        "total": region.width * region.height,
    }
    return fam.spec, payload, 0


def cmd_radius(args):
    from . import geometry

    fam = parse_family(args.poly)
    region = _parse_region(args.region)
    _check_region(region, args.r)
    got = geometry.find_point_with_radius(fam, region, args.r)
    payload = {
        "found": got is not None,
        "r": args.r,
        "region": [region.min_x, region.max_x, region.min_y, region.max_y],
    }
    if got is not None:
        payload["point"] = {"x": got.a, "y": got.b}
    return fam.spec, payload, 0


def _reproduce_illustration():
    from fractions import Fraction
    from .construct import construct_visible

    c = construct_visible(LatticePoint(3, 5))
    checks = [
        ("curve(1) = 5/7", c.curve.eval(1) == Fraction(5, 7)),
        ("curve(2) = 50/21", c.curve.eval(2) == Fraction(50, 21)),
        ("curve(3) = 5", c.curve.eval(3) == 5),
    ]
    items = [{"name": name, "passed": ok} for name, ok in checks]
    return items


def _reproduce_survey(rows_filter):
    from . import geometry

    last = len(geometry.BLOCK_SURVEY)
    unknown = sorted(rows_filter - set(range(1, last + 1)))
    if unknown:
        raise ValueError(f"no survey row {', '.join(map(str, unknown))}: the survey rows are 1 to {last}")
    region = geometry.Region(1, 1000, 1, 1000)
    items = []
    for idx, (a_coeff, b_coeff), corner in geometry.BLOCK_SURVEY:
        if rows_filter and idx not in rows_filter:
            continue
        fam = geometry.survey_family(a_coeff, b_coeff)
        name = f"row {idx} (A={a_coeff}, B={b_coeff})"
        if corner is None:
            hit = geometry.find_block(fam, 2, region)
            ok = hit is None
            detail = "no block in [1,1000]^2" if ok else f"unexpected block {hit.to_record()}"
        else:
            x, y = corner
            ok = all(
                not is_visible_direct(fam, LatticePoint(x + dx, y + dy))
                for dx in (0, 1)
                for dy in (0, 1)
            )
            detail = f"block at {corner}" if ok else f"listed corner {corner} is not all-invisible"
        items.append({"name": name, "passed": ok, "detail": detail})
    return items


def cmd_reproduce(args):
    if args.target == "illustration":
        if args.rows is not None:
            raise ValueError("--rows selects survey rows; it applies only to --target table1")
        items = _reproduce_illustration()
    else:
        rows = [] if args.rows is None else _parse_ints(args.rows, "--rows must be a comma list of integers")
        items = _reproduce_survey(set(rows))
    passed = sum(1 for it in items if it["passed"])
    payload = {
        "target": args.target,
        "items": items,
        "passed": passed,
        "total": len(items),
    }
    return None, payload, 0 if passed == len(items) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyvis",
        description="visibility of lattice points along polynomial curve families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("visible", help="visibility verdict for one point")
    p.add_argument("--poly", required=True, help="coefficients a_n,...,a_1 (descending)")
    p.add_argument("--point", required=True, help="a,b")
    p.set_defaults(func=cmd_visible)

    p = sub.add_parser("density", help="exact visible count and density over [1,N]^2")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write per-N prefix densities as CSV")
    p.add_argument("--prime-bound", type=int, default=10_000, dest="prime_bound")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("count", help="inclusion-exclusion visible-pair count")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("oracle", "pruned", "subsets"), default="pruned")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("construct", help="curve through (a,b) missing earlier columns")
    p.add_argument("--point", required=True, help="a,b")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--prime", type=int, help="explicit prime > max(a,b)")
    group.add_argument("--multi", help="comma list of distinct primes to average")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("blocks", help="first (or all) all-invisible n x n block")
    p.add_argument("--poly", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--max", required=True, help="X,Y scan bound (region [1,X]x[1,Y])")
    p.add_argument("--all", action="store_true", help="collect every block corner")
    p.add_argument("--out", help="CSV path for --all")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("classify", help="visibility grid over a region")
    p.add_argument("--poly", required=True)
    p.add_argument("--region", required=True, help="minx,maxx,miny,maxy")
    p.add_argument("--out", help="write x,y,visible CSV")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("radius", help="first point whose visibility radius is exactly r")
    p.add_argument("--poly", required=True)
    p.add_argument("--region", required=True, help="minx,maxx,miny,maxy")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("reproduce", help="re-run the bundled worked example or block survey")
    p.add_argument("--target", choices=["illustration", "table1"], required=True)
    p.add_argument("--rows", help="comma list of survey row numbers to check")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        family, payload, code = args.func(args)
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
