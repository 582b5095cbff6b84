import csv
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyvis import (
    BLOCK_SURVEY,
    BlockHit,
    LatticePoint,
    ProfileCache,
    Region,
    ResourceLimitError,
    blocks_to_csv,
    brute_count,
    classify_region,
    empirical_density,
    exact_count_ie,
    find_all_blocks,
    find_block,
    find_point_with_radius,
    is_visible,
    is_visible_direct,
    parse_family,
    radius_to_visible,
    region_to_csv,
    scan_block_range,
    survey_family,
)
from polyvis import geometry
from polyvis.geometry import multiples_mask

from conftest import families

X = parse_family("1")
XSQ_X = parse_family("1,1")


def square(n: int) -> Region:
    return Region(1, n, 1, n)


def test_region_validation():
    r = Region(2, 5, 3, 10)
    assert (r.width, r.height) == (4, 8)
    with pytest.raises(ValueError):
        Region(0, 5, 1, 5)
    with pytest.raises(ValueError):
        Region(5, 4, 1, 5)
    with pytest.raises(ValueError):
        Region(1, 5, 6, 5)


def test_classify_examples():
    grid = classify_region(X, square(5))
    assert sum(map(sum, grid)) == 19
    grid = classify_region(XSQ_X, Region(13, 14, 195, 196))
    assert not any(map(any, grid))
    grid = classify_region(X, square(1))
    assert (len(grid), len(grid[0])) == (1, 1) and bool(grid[0][0])


def test_classify_matches_pointwise(family):
    rng = random.Random(sum(ord(c) for c in family.spec) + 1)
    for _ in range(3):
        x0 = rng.randrange(1, 60)
        y0 = rng.randrange(1, 60)
        region = Region(x0, x0 + 39, y0, y0 + 39)
        grid = classify_region(family, region)
        for i in range(region.width):
            for j in range(region.height):
                expect = is_visible(family, LatticePoint(x0 + i, y0 + j)).visible
                assert bool(grid[i][j]) == expect


def test_find_block_examples():
    hit = find_block(XSQ_X, 2, square(1000))
    assert hit == BlockHit(LatticePoint(13, 195), 2)
    for dx in (0, 1):
        for dy in (0, 1):
            assert not is_visible_direct(XSQ_X, LatticePoint(13 + dx, 195 + dy))

    assert find_block(parse_family("4,9"), 2, square(1000)) is None
    assert find_block(X, 1, square(10)) == BlockHit(LatticePoint(2, 2), 1)


def test_find_all_blocks_matches_exhaustive():
    region = square(60)
    size = 2
    hits = find_all_blocks(X, size, region)
    grid = classify_region(X, region)
    expected = [
        (i + 1, j + 1)
        for i in range(region.width - size + 1)
        for j in range(region.height - size + 1)
        if not any(any(col[j : j + size]) for col in grid[i : i + size])
    ]
    assert [(h.corner.a, h.corner.b) for h in hits] == expected
    assert (hits[0].corner.a, hits[0].corner.b) == (14, 20)
    for h in hits:
        for dx in range(size):
            for dy in range(size):
                assert not is_visible_direct(X, LatticePoint(h.corner.a + dx, h.corner.b + dy))


def test_find_all_blocks_small_square():
    # (13,195) is first over [1,1000]^2 by x-major order, but inside [1,100]^2
    # the only block sits at (20,21).
    hits = find_all_blocks(XSQ_X, 2, square(100))
    assert hits == [BlockHit(LatticePoint(20, 21), 2)]
    for dx in (0, 1):
        for dy in (0, 1):
            assert not is_visible_direct(XSQ_X, LatticePoint(20 + dx, 21 + dy))


def test_find_all_blocks_empty_cases():
    assert find_all_blocks(parse_family("4,9"), 2, square(300)) == []
    assert find_block(X, 5, Region(1, 10, 1, 3)) is None
    assert find_all_blocks(X, 5, Region(1, 10, 1, 3)) == []


def test_scan_block_range_partition_matches_full():
    region = square(300)
    full = find_block(XSQ_X, 2, region)
    partial = [
        scan_block_range(XSQ_X, 2, region, lo, hi)
        for lo, hi in ((1, 100), (101, 200), (201, 300))
    ]
    found = [h for h in partial if h is not None]
    best = min(found, key=lambda h: (h.corner.a, h.corner.b))
    assert best == full == BlockHit(LatticePoint(13, 195), 2)
    # one corner x still reads the size - 1 columns past it; an empty range finds nothing
    assert scan_block_range(XSQ_X, 2, region, 13, 13) == full
    assert scan_block_range(XSQ_X, 2, region, 13, 12) is None


@st.composite
def block_cases(draw):
    family = draw(families())
    min_x, min_y = draw(st.integers(1, 40)), draw(st.integers(1, 200))
    region = Region(min_x, min_x + draw(st.integers(0, 39)), min_y, min_y + draw(st.integers(0, 99)))
    cut1 = draw(st.integers(region.min_x - 1, region.max_x))
    cut2 = draw(st.integers(cut1, region.max_x))
    return family, draw(st.integers(1, 3)), region, cut1, cut2


@settings(max_examples=200, deadline=None)
@given(block_cases())
def test_block_scans_agree(case):
    """find_all_blocks, find_block and a 3-way scan_block_range split see the same blocks."""
    family, size, region, cut1, cut2 = case
    hits = find_all_blocks(family, size, region)
    first = find_block(family, size, region)
    assert hits[0:1] == ([first] if first else [])

    parts = ((region.min_x, cut1), (cut1 + 1, cut2), (cut2 + 1, region.max_x))
    found = [h for lo, hi in parts if (h := scan_block_range(family, size, region, lo, hi))]
    assert min(found, key=lambda h: (h.corner.a, h.corner.b), default=None) == first

    grid = classify_region(family, region)
    expected = [
        BlockHit(LatticePoint(region.min_x + i, region.min_y + j), size)
        for i in range(region.width - size + 1)
        for j in range(region.height - size + 1)
        if not any(any(col[j : j + size]) for col in grid[i : i + size])
    ]
    assert hits == expected


@st.composite
def oracle_cases(draw):
    family = draw(families())
    min_x, min_y = draw(st.integers(1, 46)), draw(st.integers(1, 60))
    width, height = draw(st.integers(1, min(15, 61 - min_x))), draw(st.integers(1, 15))
    return family, Region(min_x, min_x + width - 1, min_y, min_y + height - 1), draw(st.integers(1, 10))


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_fast_paths_match_is_visible_direct(case):
    """The column sieve, the block scanner and the counts agree with the
    rational-arithmetic definition, which shares no modulus code with them."""
    family, region, n = case
    grid = classify_region(family, region)
    truth = [
        [is_visible_direct(family, LatticePoint(x, y)) for y in range(region.min_y, region.max_y + 1)]
        for x in range(region.min_x, region.max_x + 1)
    ]
    assert [list(map(bool, col)) for col in grid] == truth
    for size in (1, 2, 3):
        assert find_all_blocks(family, size, region) == [
            BlockHit(LatticePoint(region.min_x + i, region.min_y + j), size)
            for i in range(region.width - size + 1)
            for j in range(region.height - size + 1)
            if not any(any(col[j : j + size]) for col in truth[i : i + size])
        ]
    count = empirical_density(family, n).visible_count
    assert count == exact_count_ie(family, n) == brute_count(family, n)


def test_block_csv(tmp_path):
    hits = find_all_blocks(X, 2, square(30))
    path = tmp_path / "blocks.csv"
    blocks_to_csv(hits, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["corner_x", "corner_y"]
    assert rows[1:] == [[str(h.corner.a), str(h.corner.b)] for h in hits]
    assert ["14", "20"] in rows[1:]


def test_region_csv(tmp_path):
    region = Region(2, 3, 5, 6)
    grid = classify_region(X, region)
    path = tmp_path / "grid.csv"
    region_to_csv(grid, region, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["x", "y", "visible"]
    assert len(rows) == 5
    for x, y, flag in rows[1:]:
        assert flag == str(grid[int(x) - 2][int(y) - 5])


@pytest.mark.parametrize(
    "region",
    [
        Region(7, 19, 95, 131),
        Region(13, 13, 1, 200),
        Region(3, 40, 9, 9),
        Region(8, 12, 95, 1005),  # x from 1 to 2 digits, y from 2 to 4
        Region(99990, 100000, 9, 11),  # x from 5 to 6 digits at the coordinate cap
    ],
)
def test_region_csv_matches_csv_writer_bytes(tmp_path, region):
    grid = classify_region(XSQ_X, region)
    reference = tmp_path / "reference.csv"
    with reference.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "visible"])
        for i in range(region.width):
            for j in range(region.height):
                w.writerow([region.min_x + i, region.min_y + j, grid[i][j]])
    path = tmp_path / "grid.csv"
    region_to_csv(grid, region, path)
    assert path.read_bytes() == reference.read_bytes()


def test_radius_examples():
    assert radius_to_visible(X, LatticePoint(3, 5)).distance == 0
    assert radius_to_visible(X, LatticePoint(2, 2)).distance == 1
    assert radius_to_visible(XSQ_X, LatticePoint(13, 195)).distance == 2
    assert radius_to_visible(XSQ_X, LatticePoint(13, 195), max_layers=1).distance == -1
    assert radius_to_visible(X, LatticePoint(2, 2), max_layers=0).distance == -1


@pytest.mark.parametrize("origin", [LatticePoint(5, 5), LatticePoint(1, 1)], ids=["5,5", "1,1"])
def test_radius_refuses_negative_max_layers(origin):
    """-1 layers once read distance -1 at (5, 5) and a cache-bound error at (1, 1)."""
    with pytest.raises(ValueError, match="max_layers must be >= 0, got -1"):
        radius_to_visible(X, origin, max_layers=-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), max_size=4), st.integers(1, 200), st.integers(0, 90))
@example([3, 4], 7, 0)  # empty range: lo = hi + 1
@example([2, 5, 10], 11, 30)
def test_multiples_mask_marks_multiples(mods, lo, length):
    """One byte per b in [lo, hi]: [some m in mods divides b]."""
    hi = lo + length - 1
    assert multiples_mask(mods, lo, hi) == bytes(any(b % m == 0 for m in mods) for b in range(lo, hi + 1))


def bfs_radius(cache: ProfileCache, origin: LatticePoint, max_layers: int) -> int:
    """Breadth-first layers of {right, up, diagonal} moves until a visible point.

    The oracle for radius_to_visible: distance bumps once per frontier, and
    -1 means no visible point within max_layers layers.
    """
    distance = 0
    visited: set[tuple[int, int]] = set()
    queue = [(origin.a, origin.b)]
    while queue and distance <= max_layers:
        next_queue = []
        for xy in queue:
            if xy in visited:
                continue
            visited.add(xy)
            x, y = xy
            if cache.is_visible(x, y):
                return distance
            next_queue.extend(((x + 1, y), (x, y + 1), (x + 1, y + 1)))
        queue = next_queue
        distance += 1
    return -1


def test_radius_is_chebyshev_distance_to_visible(family):
    """The ring scan finds the BFS distance over right/up/diagonal moves."""
    cache = ProfileCache(family, 46)  # rings reach 40 + 6
    rng = random.Random(555)
    for _ in range(120):
        x0, y0 = rng.randrange(1, 41), rng.randrange(1, 41)
        limit = rng.randrange(0, 7)
        got = radius_to_visible(family, LatticePoint(x0, y0), max_layers=limit)
        assert got.distance == bfs_radius(cache, LatticePoint(x0, y0), limit)
        assert got.origin == LatticePoint(x0, y0)


@st.composite
def radius_cases(draw):
    # x and x^2 + x half the time: they have radius-2 points in the drawn
    # ranges, at (14, 20) and (13, 195), where random families rarely do.
    family = draw(st.one_of(st.sampled_from((X, XSQ_X)), families()))
    min_x, min_y = draw(st.integers(1, 200)), draw(st.integers(1, 400))
    region = Region(min_x, min_x + draw(st.integers(0, 29)), min_y, min_y + draw(st.integers(0, 29)))
    return family, region, draw(st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(radius_cases())
def test_find_point_with_radius_is_first_point_of_radius_r(case):
    """Block-corner candidates find the same point as a BFS from every point."""
    family, region, r = case
    cache = ProfileCache(family, region.extent + r)
    expected = next(
        (
            LatticePoint(i, j)
            for i in range(region.min_x, region.max_x + 1)
            for j in range(region.min_y, region.max_y + 1)
            if bfs_radius(cache, LatticePoint(i, j), r) == r
        ),
        None,
    )
    assert find_point_with_radius(family, region, r) == expected


def test_find_point_with_radius_reads_only_its_own_rings(monkeypatch):
    """The search reads ring r of each block corner itself and never calls the pointwise oracle."""
    monkeypatch.setattr(geometry, "radius_to_visible", lambda *a, **k: pytest.fail("radius_to_visible was called"))
    assert find_point_with_radius(X, Region(2, 10, 2, 10), 1) == LatticePoint(2, 2)
    assert find_point_with_radius(XSQ_X, Region(1, 20, 150, 200), 2) == LatticePoint(13, 195)
    assert find_point_with_radius(X, Region(2, 4, 2, 4), 0) == LatticePoint(2, 3)


def test_find_point_with_radius():
    assert find_point_with_radius(X, Region(2, 10, 2, 10), 1) == LatticePoint(2, 2)
    assert find_point_with_radius(X, Region(2, 4, 2, 4), 0) == LatticePoint(2, 3)
    assert find_point_with_radius(X, Region(2, 10, 2, 10), 99) is None
    with pytest.raises(ValueError):
        find_point_with_radius(X, square(5), -1)


def test_domain_checks():
    with pytest.raises(ValueError):
        find_block(X, 0, square(5))
    with pytest.raises(ValueError):
        find_all_blocks(X, 0, square(5))


def test_survey_table_shape():
    assert len(BLOCK_SURVEY) == 15
    assert [row[0] for row in BLOCK_SURVEY] == list(range(1, 16))
    assert survey_family(4, 4).spec == "1,1"
    assert survey_family(12, 12).spec == "1,1"
    assert survey_family(2, 5).spec == "2,5"
