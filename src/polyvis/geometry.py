"""Region classification, invisible-block mining, and nearest-visible search.

The block search answers "where does the first n-by-n all-invisible block
sit" for a family. The radius of (x, y) is the smallest k for which the
square [x, x+k] x [y, y+k] holds a visible point, so a point of radius
r >= 1 is the corner of an all-invisible r-by-r block and the radius
search takes its candidates from the block scanner. Scan order is frozen
everywhere: x ascending outer, y ascending inner.
"""

from __future__ import annotations

import operator
from collections import deque, namedtuple
from functools import reduce
from itertools import compress

from .columns import ProfileCache
from .polyfam import LatticePoint, PolyFamily, parse_family

DEFAULT_MAX_LAYERS = 200


class Region(namedtuple("Region", "min_x max_x min_y max_y")):
    """The box [min_x, max_x] x [min_y, max_y]."""

    __slots__ = ()  # fields checked in __new__, which _make and _replace skip: never call them

    def __new__(cls, min_x: int, max_x: int, min_y: int, max_y: int):
        self = super().__new__(cls, min_x, max_x, min_y, max_y)
        if min_x < 1 or min_y < 1:
            raise ValueError(f"region coordinates must be >= 1, got {self}")
        if min_x > max_x or min_y > max_y:
            raise ValueError(f"empty region {self}")
        return self

    @property
    def width(self) -> int:
        return self.max_x - self.min_x + 1

    @property
    def height(self) -> int:
        return self.max_y - self.min_y + 1

    @property
    def extent(self) -> int:
        """The largest coordinate in the region: the bound of a column cache that reads it."""
        return max(self.max_x, self.max_y)

    def grown(self, r: int) -> Region:
        """The region grown by r up and right: every point a radius-r search reads."""
        if r < 0:
            raise ValueError(f"radius must be >= 0, got {r}")
        return Region(self.min_x, self.max_x + r, self.min_y, self.max_y + r)


class BlockHit(namedtuple("BlockHit", "corner size")):
    """An all-invisible size x size block; corner is its lower-left point."""

    __slots__ = ()

    def to_record(self) -> dict:
        return {"corner_x": self.corner.a, "corner_y": self.corner.b, "size": self.size}


RadiusResult = namedtuple("RadiusResult", "origin distance")  # distance -1: the layer bound ran out


def multiples_mask(mods, lo: int, hi: int) -> bytearray:
    """The column sieve: one byte per b in [lo, hi], 1 where some modulus in mods divides b."""
    mask = bytearray(hi - lo + 1)
    for m in mods:
        start = -(-lo // m) * m  # past hi, the slice and the fill are both empty
        mask[start - lo :: m] = b"\1" * ((hi - start) // m + 1)
    return mask


def classify_region(family: PolyFamily, region: Region) -> list[bytes]:
    """Visibility flags (0/1), one bytes per column: grid[i][j] is (min_x+i, min_y+j)."""
    cache = ProfileCache(family, region.extent)
    flip = bytes.maketrans(b"\0\1", b"\1\0")  # the sieve marks the invisible points
    return [
        bytes(multiples_mask(cache.minimal_moduli(a), region.min_y, region.max_y)).translate(flip)
        for a in range(region.min_x, region.max_x + 1)
    ]


def region_to_csv(grid: list[bytes], region: Region, path) -> None:
    """x,y,visible rows (0/1), row-major by x then y, in csv.writer's dialect.

    A column's rows whose y have one digit count share a length: they are copied from
    a template, and each digit of x and the flags go in by one strided slice assignment.
    """
    ys = range(region.min_y, region.max_y + 1)
    digits = range(len(str(ys.start)), len(str(ys[-1])) + 1)
    runs = [ys[max(0, 10 ** (d - 1) - ys.start) : 10**d - ys.start] for d in digits]  # y of d digits
    templates, to_ascii = {}, bytes.maketrans(b"\0\1", b"01")
    with open(path, "wb") as fh:
        fh.write(b"x,y,visible\r\n")
        for x, col in zip(range(region.min_x, region.max_x + 1), grid):
            x, flags = b"%d" % x, col.translate(to_ascii)
            for run in runs:
                if (run.start, len(x)) not in templates:
                    templates[run.start, len(x)] = b"".join(b"%s,%d,0\r\n" % (x, y) for y in run)
                out, width = bytearray(templates[run.start, len(x)]), len(x) + len(str(run.start)) + 5
                for k, digit in enumerate(x):
                    out[k::width] = bytes((digit,)) * len(run)
                out[width - 3 :: width] = flags[run.start - ys.start : run.stop - ys.start]
                fh.write(out)


def _iter_blocks(cache: ProfileCache, size: int, region: Region):
    """Every all-invisible size x size block in the region, in scan order.

    A sliding window holds the size columns under the current corner x, so
    each column is sieved once however many corners it belongs to. Column
    masks are ints, bit 8j for row min_y + j: the AND of the window, ANDed
    with its copies shifted down by 1 .. size-1 rows, keeps the corner rows.
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    window: deque[int] = deque(maxlen=size)
    for a in range(region.min_x, region.max_x + 1):
        mask = multiples_mask(cache.minimal_moduli(a), region.min_y, region.max_y)
        window.append(int.from_bytes(mask, "little"))
        if len(window) < size:
            continue
        rows = reduce(operator.and_, window)
        run = reduce(operator.and_, (rows >> 8 * dy for dy in range(1, size)), rows)
        if not run:
            continue
        for y in compress(range(region.min_y, region.max_y + 1), run.to_bytes(region.height, "little")):
            yield BlockHit(LatticePoint(a - size + 1, y), size)


def scan_block_range(family: PolyFamily, size: int, region: Region, x_lo: int, x_hi: int) -> BlockHit | None:
    """First all-invisible size x size block with corner x in [x_lo, x_hi].

    Running it over the full corner range is exactly find_block; over split
    ranges, the minimum (x, y) of the partial results is the same answer.
    """
    lo, hi = max(x_lo, region.min_x), min(x_hi + size - 1, region.max_x)
    return find_block(family, size, Region(lo, hi, region.min_y, region.max_y)) if lo <= hi else None


def find_block(family: PolyFamily, size: int, region: Region) -> BlockHit | None:
    """First (x asc, then y asc) corner of an all-invisible size x size block."""
    return next(_iter_blocks(ProfileCache(family, region.extent), size, region), None)


def find_all_blocks(family: PolyFamily, size: int, region: Region) -> list[BlockHit]:
    """Every block corner in the region, in scan order."""
    return list(_iter_blocks(ProfileCache(family, region.extent), size, region))


def blocks_to_csv(hits, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"corner_x,corner_y\r\n" + b"".join(b"%d,%d\r\n" % h.corner for h in hits))


def _ring(origin: LatticePoint, k: int) -> list[tuple[int, int]]:
    """Ring k of origin (x, y): column x+k and row y+k of [x, x+k] x [y, y+k], which rings 0 .. k tile."""
    x, y = origin
    return [(x + k, y + j) for j in range(k + 1)] + [(x + i, y + k) for i in range(k)]


def radius_to_visible(family: PolyFamily, origin: LatticePoint, max_layers: int = DEFAULT_MAX_LAYERS) -> RadiusResult:
    """Chebyshev distance from origin to the nearest visible point above and to the right.

    distance is the first k whose ring holds a visible point; 0 means the
    origin itself is visible, -1 that no ring up to max_layers does.
    """
    if max_layers < 0:
        raise ValueError(f"max_layers must be >= 0, got {max_layers}")
    cache = ProfileCache(family, max(origin) + max_layers)
    for k in range(max_layers + 1):
        if any(cache.is_visible(a, b) for a, b in _ring(origin, k)):
            return RadiusResult(origin, k)
    return RadiusResult(origin, -1)


def find_point_with_radius(family: PolyFamily, region: Region, r: int) -> LatticePoint | None:
    """First point in scan order whose radius is exactly r.

    For r >= 1 the candidates are the corners of all-invisible r x r blocks,
    whose rings 0 .. r-1 the block scan has cleared, so only ring r is read.
    For r = 0, ring 0 is the point itself.
    """
    cache = ProfileCache(family, region.grown(r).extent)
    if r == 0:
        xs, ys = range(region.min_x, region.max_x + 1), range(region.min_y, region.max_y + 1)
        candidates = (LatticePoint(i, j) for i in xs for j in ys)
    else:
        candidates = (hit.corner for hit in _iter_blocks(cache, r, region.grown(r - 1)))
    return next((p for p in candidates if any(cache.is_visible(a, b) for a, b in _ring(p, r))), None)


# The 2x2 invisible-block survey bundled for the `reproduce` command: one row
# per quadratic family A*x^2 + B*x, with the reported lower-left corner, or
# None when a [1,1000]^2 search came up empty. The corners do not all come
# from that square: rows 3-6 and 9 list blocks that extend past it, e.g.
# (25, 1000) and (15, 4575), which find_block over [1,1000]^2 cannot return.
# reproduce therefore re-verifies the four points of each listed corner
# instead of searching. Rows 11 and 12 as shipped do not re-verify (the
# corners are visible points); the nearest true corners are (114, 759) and
# (21, 440). reproduce reports them as failures.
BLOCK_SURVEY = (
    (1, (1, 1), (13, 195)),
    (2, (2, 5), (14, 825)),
    (3, (3, 2), (25, 1000)),
    (4, (5, 1), (147, 1196)),
    (5, (7, 5), (15, 4575)),
    (6, (2, 7), (69, 1449)),
    (7, (4, 9), None),
    (8, (2, 3), (30, 650)),
    (9, (3, 5), (20, 4250)),
    (10, (4, 4), (13, 195)),
    (11, (1, 18), (116, 759)),
    (12, (1, 14), (23, 440)),
    (13, (4, 5), None),
    (14, (2, 11), None),
    (15, (12, 12), (13, 195)),
)


def survey_family(a_coeff: int, b_coeff: int) -> PolyFamily:
    """Quadratic A,B row as a content-normalized family."""
    return parse_family(f"{a_coeff},{b_coeff}")
