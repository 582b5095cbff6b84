import contextlib
import csv
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyvis
from polyvis import census, cli, columns, construct, find_all_blocks, geometry, modulus, parse_family, polyfam, roots, visibility
from polyvis.arith import factorize, primes_up_to
from polyvis.cli import main
from polyvis.geometry import Region

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "envelope.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    envelope = json.loads(captured.out) if captured.out.strip() else None
    if envelope is not None:
        jsonschema.validate(envelope, SCHEMA)
    return code, envelope, captured.err


def test_visible_point(capsys):
    code, env, _ = run_cli(capsys, "visible", "--poly", "1,1", "--point", "3,7")
    assert code == 0
    assert env["command"] == "visible"
    assert env["family"] == "1,1"
    assert env["payload"] == {"visible": True, "gcd_p": 1, "lcm_criterion": True}
    assert env["elapsed_ms"] >= 0


def test_invisible_point_reports_witness(capsys):
    code, env, _ = run_cli(capsys, "visible", "--poly", "1", "--point", "2,4")
    assert code == 0
    assert env["payload"] == {
        "visible": False,
        "witness_t": 1,
        "witness_modulus": 2,
        "gcd_p": 2,
        "lcm_criterion": False,
    }


def test_family_is_normalized_in_envelope(capsys):
    _, env, _ = run_cli(capsys, "visible", "--poly", "4,4", "--point", "13,195")
    assert env["family"] == "1,1"
    assert env["payload"]["visible"] is False


def test_density(capsys, tmp_path):
    out = tmp_path / "density.csv"
    code, env, _ = run_cli(
        capsys, "density", "--poly", "1", "--n", "1000", "--out", str(out)
    )
    assert code == 0
    p = env["payload"]
    assert p["n"] == 1000
    assert p["visible_count"] == 608383
    assert p["density"] == 608383 / 10**6
    assert p["coprimality_count"] == 608383
    assert abs(p["c_p_constant"] - 0.6079271018540267) < 1e-3
    assert p["tail_bound"] == pytest.approx(1 / 9999)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["N", "visible_count", "density"]
    assert len(rows) == 1001
    assert rows[1] == ["1", "1", "1.0"]
    assert rows[-1] == ["1000", "608383", "0.608383"]
    # The CSV is written as bytes; csv.writer's rendering of census.density_rows is the oracle.
    assert out.read_bytes() == _csv_writer_bytes([("N", "visible_count", "density"), *census.density_rows(parse_family("1"), 1000)])
    code, env, _ = run_cli(capsys, "density", "--poly", "3,0,2,1", "--n", "1108", "--out", str(out))
    assert code == 0
    rows = census.density_rows(parse_family("3,0,2,1"), 1108)
    assert out.read_bytes() == _csv_writer_bytes([("N", "visible_count", "density"), *rows])
    assert env["payload"]["visible_count"] == rows[-1][1]


def _csv_writer_bytes(rows) -> bytes:
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


def _density_payload(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["density", *argv]) == 0
    return json.loads(buf.getvalue())["payload"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 3), max_size=3), st.integers(1, 40))
def test_density_counts_by_double_sum(lead, rest, n):
    """density without --out counts by the double sum over the column moduli and
    the lcm primes; it reports what density --out reports from its prefix rows, and
    its lcm count matches the certificate taken literally from modulus()."""
    family = parse_family(",".join(map(str, [lead, *rest])))
    argv = ("--poly", family.spec, "--n", str(n), "--prime-bound", "100")
    payload = _density_payload(*argv)
    assert payload == _density_payload(*argv, "--out", os.devnull)
    assert payload["visible_count"] == census.density_rows(family, n)[-1][1]
    lcms = [math.lcm(*(modulus(family, a, t) for t in range(1, a))) for a in range(1, n + 1)]
    assert payload["coprimality_count"] == sum(math.gcd(l, b) == 1 for l in lcms for b in range(1, n + 1))


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--poly", "1,1", "--n", "400"),
        ("density", "--poly", "1,1", "--n", "400", "--out", os.devnull),
        ("count", "--poly", "1,1", "--n", "400"),
    ],
    ids=["density", "density-out", "count"],
)
def test_census_sweeps_factorize_no_column(monkeypatch, argv):
    """A census sweep sieves every column's primes <= N off its batched root table
    (ProfileCache.sieve_primes), and prime_set reads the same lists: no column takes a
    gcd with the primorial, and no number is factorized."""
    calls = []

    def spy(m):
        calls.append(m)
        return factorize(m)

    monkeypatch.setattr(columns, "factorize", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
    assert calls == []


def _spy_batches(monkeypatch):
    """The list of batches that roots._batch_gcds is given from now on."""
    batches, batch_gcds = [], roots._batch_gcds
    monkeypatch.setattr(roots, "_batch_gcds", lambda coeffs, batch: batches.append(batch) or batch_gcds(coeffs, batch))
    return batches


@pytest.mark.parametrize("bound", [10_000, 50])
def test_density_finds_roots_at_batch_cost(monkeypatch, bound):
    """One root table serves the Euler product and the column classes: the Frobenius
    batches cover the primes <= B, then the primes in (B, N], _BATCH at a time, and each
    prime that divides the leading coefficient alone; no column finds its roots one prime
    at a time. At the default B = 10^4 that is ceil(pi(max(N, B)) / _BATCH) batches."""
    family, n = parse_family("3,0,2,1"), 1108
    batches = _spy_batches(monkeypatch)
    _density_payload("--poly", family.spec, "--n", str(n), "--prime-bound", str(bound))
    primes, below = primes_up_to(max(n, bound)), len(primes_up_to(bound))
    lead = sum(family.coeffs[-1] % p == 0 for p in primes)
    assert len(batches) <= -(-below // roots._BATCH) + -(-(len(primes) - below) // roots._BATCH) + lead


def test_count_finds_roots_at_batch_cost(monkeypatch):
    """count sweeps the columns 1..N as density does, so its column cache batches the primes
    <= N before the first column: ceil(pi(N) / _BATCH) batches, and one more for each prime
    that divides the leading coefficient; no column finds its roots one prime at a time."""
    family, n = parse_family("3,0,2,1"), 1108
    batches = _spy_batches(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["count", "--poly", family.spec, "--n", str(n), "--mode", "pruned"]) == 0
    primes = primes_up_to(n)
    lead = sum(family.coeffs[-1] % p == 0 for p in primes)
    assert 0 < len(batches) <= -(-len(primes) // roots._BATCH) + lead


def test_density_batches_only_the_primes_the_discriminant_leaves(monkeypatch):
    """rho reads a cubic Q0's rho at an odd p dividing neither its lead nor its discriminant
    when the Legendre symbol is -1 (one root), about half the primes, so density hands the
    Frobenius batches at most 3/5 of the primes <= B = 10^4 (there are 1229), and the sweep
    adds only the primes <= N that rho did not read."""
    batches = _spy_batches(monkeypatch)
    _density_payload("--poly", "3,0,2,1", "--n", "1108")
    assert sum(map(len, batches)) <= 737


def test_coprimality_count_sieves_at_batch_cost(monkeypatch):
    """coprimality_count on a cache of its own sieves its columns 1..N as count does
    (ProfileCache.sieve_primes): no factorize call, and at most ceil(pi(N) / _BATCH)
    batches, one more for each prime that divides the leading coefficient."""
    family, n = parse_family("3,0,2,1"), 1108
    calls = []
    monkeypatch.setattr(columns, "factorize", lambda m: calls.append(m) or factorize(m))
    batches = _spy_batches(monkeypatch)
    assert census.coprimality_count(family, n) > 0
    primes = primes_up_to(n)
    lead = sum(family.coeffs[-1] % p == 0 for p in primes)
    assert calls == []
    assert 0 < len(batches) <= -(-len(primes) // roots._BATCH) + lead


@pytest.mark.parametrize("out", [False, True], ids=["density", "density-out"])
def test_density_sieves_its_columns_once(monkeypatch, out):
    """density sweeps one cache twice, for the count and for coprimality_count; the second
    sweep finds column N's primes sieved and strides nothing again, so the sieve lists the
    primes <= N once: one columns.primes_up_to call in all."""
    calls = []
    monkeypatch.setattr(columns, "primes_up_to", lambda b: calls.append(b) or primes_up_to(b))
    _density_payload("--poly", "1,1", "--n", "400", *(["--out", os.devnull] if out else []))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "spec, point, witness",
    [("1", "99996,8333", 12), ("2,5", "99991,77", None), ("7,1,2,3,4,5,6,7,8,9,10,11,12,13,14,3", "99991,1", None)],
    ids=["x-witness-12", "lcm-certified", "degree-16"],
)
def test_visible_evaluates_p_few_times(monkeypatch, spec, point, witness):
    """visible reads P(a) and P(1..min(a, deg P)) for the lcm certificate, once for the
    verdict and once for the payload, and P(a) for gcd_p: 2 deg P + 3 values. A point the
    certificate leaves open adds P(a) and P(t) for t up to its smallest witness, not for
    every t < a, which would be about 10^5 values here."""
    calls = []
    eval_ = polyfam.PolyFamily.eval
    monkeypatch.setattr(polyfam.PolyFamily, "eval", lambda self, x: calls.append(x) or eval_(self, x))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["visible", "--poly", spec, "--point", point]) == 0
    assert json.loads(buf.getvalue())["payload"].get("witness_t") == witness
    assert len(calls) <= 2 * parse_family(spec).degree + 3 + (1 + witness if witness else 0)


def test_blocks_sieve_their_columns_at_batch_cost(monkeypatch, tmp_path):
    """blocks --max scans the columns 1..1000 of a cache of bound 1000, so it batches the
    roots of the 168 primes <= 1000 before the first column and sieves every column's
    primes off them: no factorize call (the gcd path makes 999), and 11 batches, not 168
    batches of one as when each prime's roots are found when a column first reads it."""
    calls = []
    monkeypatch.setattr(columns, "factorize", lambda m: calls.append(m) or factorize(m))
    batches = _spy_batches(monkeypatch)
    argv = ["blocks", "--poly", "1,1,1,1", "--size", "2", "--max", "1000,1000", "--all", "--out", str(tmp_path / "b.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == []
    assert 0 < len(batches) <= 12


@pytest.mark.parametrize(
    "argv, columns_read",
    [
        (["blocks", "--poly", "4,9", "--size", "2", "--max", "1000,1000", "--all", "--out", "{out}"], 600),
        (["reproduce", "--target", "table1", "--rows", "7,13,14"], 1800),
        (["radius", "--poly", "1,1", "--region", "98001,99996,1,1996", "--r", "4"], 550),
    ],
    ids=["blocks", "table1", "far-radius"],
)
def test_block_scans_skip_columns(monkeypatch, tmp_path, argv, columns_read):
    """The block scan reads each window from its right end and moves past a column whose
    runs empty the window's AND, so it computes the moduli of a fraction of the columns:
    555 of 1000, 1721 of 3000 and 499 of 1999 here. A scan that reads every column, as a
    sliding window does, computes them all."""
    calls = []
    moduli = columns.ProfileCache._moduli
    monkeypatch.setattr(columns.ProfileCache, "_moduli", lambda self, a: calls.append(a) or moduli(self, a))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(tmp_path / "b.csv") if arg == "{out}" else arg for arg in argv]) == 0
    assert 0 < len(calls) <= columns_read


def test_far_classify_keeps_the_gcd_path(monkeypatch):
    """A window of 200 columns at a bound of 10^5 reads the roots of few of the 9592 primes
    <= 10^5, so it keeps one primorial gcd per column and finds only the roots it reads:
    306 primes reach the Frobenius batches. A window sieve would hand over all 9592."""
    batches = _spy_batches(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["classify", "--poly", "1,1,1,1", "--region", "99801,100000,1,200"]) == 0
    assert sum(map(len, batches)) <= 306


@pytest.mark.parametrize("out", [False, True])
def test_density_counts_do_not_depend_on_the_prime_bound(tmp_path, out):
    """A table filled to B = 2, to B = N or past N serves the columns alike: only the
    Euler product reads B, so the counts and the --out rows stay put."""
    n = 400
    seen = set()
    for bound in (2, n, 10_000):
        argv = ["--poly", "3,0,2,1", "--n", str(n), "--prime-bound", str(bound)]
        if out:
            argv += ["--out", str(tmp_path / f"{bound}.csv")]
        payload = _density_payload(*argv)
        rows = (tmp_path / f"{bound}.csv").read_bytes() if out else None
        seen.add((payload["visible_count"], payload["coprimality_count"], rows))
    assert len(seen) == 1


def test_count_modes_agree(capsys):
    counts = {}
    for mode in ("oracle", "subsets", "pruned"):
        code, env, _ = run_cli(capsys, "count", "--poly", "1,1", "--n", "12", "--mode", mode)
        assert code == 0
        assert env["payload"]["mode"] == mode
        counts[mode] = env["payload"]["count"]
    assert set(counts.values()) == {109}


def test_count_default_mode(capsys):
    _, env, _ = run_cli(capsys, "count", "--poly", "1", "--n", "20")
    assert env["payload"] == {"n": 20, "count": 255, "mode": "pruned"}


def test_construct(capsys):
    code, env, _ = run_cli(capsys, "construct", "--point", "3,5")
    assert code == 0
    assert "family" not in env
    p = env["payload"]
    assert p["ell"] == 7
    assert p["digits"] == [1, 2]
    assert p["curve"] == ["0/1", "5/21", "10/21"]
    assert p["verified"] is True
    assert p["valuation_profile"] == [[1, -1], [2, -1]]


def test_construct_explicit_prime(capsys):
    _, env, _ = run_cli(capsys, "construct", "--point", "3,5", "--prime", "11")
    assert env["payload"]["ell"] == 11
    assert env["payload"]["digits"] == [2, 0, 1]
    assert env["payload"]["verified"] is True


def test_construct_multi(capsys):
    code, env, _ = run_cli(capsys, "construct", "--point", "3,5", "--multi", "7,11")
    assert code == 0
    p = env["payload"]
    assert p["ells"] == [7, 11]
    assert p["curve"] == ["0/1", "125/462", "5/21", "5/66"]
    assert p["verified"] is True
    assert p["denominator_claim_ok"] is True
    assert [c["ell"] for c in p["components"]] == [7, 11]
    assert all("valuation_profile" in c for c in p["components"])


def test_construct_prime_multi_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--point", "3,5", "--prime", "7", "--multi", "7,11"])
    assert exc.value.code == 2


BIG_PRIME = 10**400 + 69  # the first prime above 10^400


@pytest.mark.parametrize(
    "argv, message",
    [
        (("construct", "--point", "5000,3", "--prime", str(BIG_PRIME)), "ell has 1329 bits; the cap is 64"),
        (("construct", "--point", "5000,3", "--multi", "5003,5009,5011,5021,5023"), "5 primes exceed the cap 4"),
        (("count", "--poly", "1", "--n", "101", "--mode", "oracle"), "the oracle count is O(N^3) work; N=101 exceeds 100"),
    ],
)
def test_fixed_work_caps_exit_3_at_once(capsys, monkeypatch, argv, message):
    """These caps are fixed: a larger LATTICE_SCOPE_CAP does not lift them."""
    monkeypatch.setenv("LATTICE_SCOPE_CAP", "10000000")
    start = time.perf_counter()
    code, env, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and env is None
    assert err == f"error: {message}\n"


def test_blocks(capsys):
    code, env, _ = run_cli(
        capsys, "blocks", "--poly", "1,1", "--size", "2", "--max", "1000,1000"
    )
    assert code == 0
    p = env["payload"]
    assert p["scanned_region"] == [1, 1000, 1, 1000]
    assert p["found"] is True
    assert p["corner"] == {"corner_x": 13, "corner_y": 195, "size": 2}


def test_blocks_all_writes_csv(capsys, tmp_path):
    out = tmp_path / "blocks.csv"
    code, env, _ = run_cli(
        capsys, "blocks", "--poly", "1", "--size", "2", "--max", "30,30",
        "--all", "--out", str(out),
    )
    assert code == 0
    hits = find_all_blocks(parse_family("1"), 2, Region(1, 30, 1, 30))
    p = env["payload"]
    assert p["found"] is True
    assert p["block_count"] == len(hits)
    assert p["corner"] == {"corner_x": 14, "corner_y": 20, "size": 2}
    rows = list(csv.reader(out.open()))
    assert len(rows) == len(hits) + 1


def test_blocks_all_requires_out(capsys):
    code, env, err = run_cli(capsys, "blocks", "--poly", "1", "--size", "2",
                             "--max", "30,30", "--all")
    assert code == 2
    assert env is None
    assert "error:" in err


def test_blocks_out_requires_all(capsys, tmp_path):
    out = tmp_path / "blocks.csv"
    code, env, err = run_cli(capsys, "blocks", "--poly", "1", "--size", "2",
                             "--max", "30,30", "--out", str(out))
    assert code == 2 and env is None
    assert err == "error: --all and --out go together: --all writes its block corners to --out\n"
    assert not out.exists()


def test_classify(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, env, _ = run_cli(
        capsys, "classify", "--poly", "1", "--region", "1,5,1,5", "--out", str(out)
    )
    assert code == 0
    assert env["payload"] == {"region": [1, 5, 1, 5], "visible_count": 19, "total": 25}
    assert len(out.read_text().splitlines()) == 26


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--poly", "1", "--n", "5"),
        ("classify", "--poly", "1", "--region", "1,5,1,5"),
        ("blocks", "--poly", "1", "--size", "2", "--max", "30,30", "--all"),
    ],
)
def test_unwritable_out_is_bad_input(capsys, monkeypatch, tmp_path, argv):
    """--out is opened before any census or geometry call, so a bad path fails at once."""
    _forbid_work(monkeypatch)
    missing = tmp_path / "missing" / "x.csv"
    code, env, err = run_cli(capsys, *argv, "--out", str(missing))
    assert code == 2 and env is None
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    code, env, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and env is None
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


_NO_FILE = "[Errno 2] No such file or directory: ''"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("density", "--poly", "1", "--n", "5", "--out", ""), _NO_FILE),
        (("classify", "--poly", "1", "--region", "1,3,1,3", "--out", ""), _NO_FILE),
        (
            ("blocks", "--poly", "1", "--size", "2", "--max", "30,30", "--out", ""),
            "--all and --out go together: --all writes its block corners to --out",
        ),
        (("blocks", "--poly", "1", "--size", "2", "--max", "30,30", "--all", "--out", ""), _NO_FILE),
        (
            ("reproduce", "--target", "illustration", "--rows", ""),
            "--rows selects survey rows; it applies only to --target table1",
        ),
        (("reproduce", "--target", "table1", "--rows", ""), "--rows must be a comma list of integers, got ''"),
    ],
    ids=["density", "classify", "blocks", "blocks-all", "illustration", "table1"],
)
def test_empty_flag_value_is_bad_input(capsys, monkeypatch, tmp_path, argv, message):
    """An empty --out or --rows is refused before any work, not read as the flag left out."""
    _forbid_work(monkeypatch)
    for module, name in ((construct, "reproduce_illustration"), (geometry, "reproduce_survey")):
        monkeypatch.setattr(module, name, lambda *args: pytest.fail("work started before the flag check"))
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_radius(capsys):
    code, env, _ = run_cli(capsys, "radius", "--poly", "1", "--region", "2,10,2,10", "--r", "1")
    assert code == 0
    assert env["payload"]["found"] is True
    assert env["payload"]["point"] == {"x": 2, "y": 2}

    code, env, _ = run_cli(capsys, "radius", "--poly", "1", "--region", "2,10,2,10", "--r", "99")
    assert code == 0
    assert env["payload"]["found"] is False
    assert "point" not in env["payload"]

    # The region grown by r counts toward the cap: [2,10] grown by 1992 is 2001 wide.
    code, env, err = run_cli(capsys, "radius", "--poly", "1", "--region", "2,10,2,10", "--r", "1992")
    assert code == 3 and env is None
    assert err == "error: region 2001x2001 exceeds the 2000x2000 cap\n"


def test_reproduce_illustration(capsys):
    code, env, _ = run_cli(capsys, "reproduce", "--target", "illustration")
    assert code == 0
    p = env["payload"]
    assert (p["passed"], p["total"]) == (3, 3)
    assert all(item["passed"] for item in p["items"])


def test_reproduce_illustration_rejects_rows(capsys):
    code, env, err = run_cli(capsys, "reproduce", "--target", "illustration", "--rows", "3")
    assert code == 2 and env is None
    assert err == "error: --rows selects survey rows; it applies only to --target table1\n"


def test_reproduce_survey_rows_that_hold(capsys):
    code, env, _ = run_cli(capsys, "reproduce", "--target", "table1", "--rows", "7,13,14")
    assert code == 0
    assert env["payload"]["passed"] == env["payload"]["total"] == 3


@pytest.mark.parametrize("rows, named", [("99", "99"), ("7,99", "99"), ("0,7,16", "0, 16")])
def test_reproduce_survey_rows_that_name_no_row(capsys, monkeypatch, rows, named):
    monkeypatch.setattr(geometry, "find_block", lambda *a: pytest.fail("the survey ran"))
    code, env, err = run_cli(capsys, "reproduce", "--target", "table1", "--rows", rows)
    assert code == 2 and env is None
    assert err == f"error: no survey row {named}: the survey rows are 1 to 15\n"


def test_reproduce_survey_full(capsys):
    code, env, _ = run_cli(capsys, "reproduce", "--target", "table1")
    assert code == 1
    p = env["payload"]
    assert (p["passed"], p["total"]) == (13, 15)
    failing = [item["name"] for item in p["items"] if not item["passed"]]
    assert failing == ["row 11 (A=1, B=18)", "row 12 (A=1, B=14)"]


def test_exit_code_bad_input(capsys):
    code, env, err = run_cli(capsys, "visible", "--poly", "1", "--point", "0,5")
    assert code == 2 and env is None and "error:" in err
    code, env, err = run_cli(capsys, "visible", "--poly", "0,1", "--point", "2,2")
    assert code == 2 and env is None
    code, env, err = run_cli(capsys, "count", "--poly", "1", "--n", "0")
    assert code == 2 and env is None


def test_exit_code_resource_cap(capsys, monkeypatch):
    monkeypatch.setenv("LATTICE_SCOPE_CAP", "100")
    code, env, err = run_cli(capsys, "density", "--poly", "1", "--n", "1000")
    assert code == 3 and env is None and "error:" in err
    code, env, err = run_cli(capsys, "blocks", "--poly", "1", "--size", "2", "--max", "200,200")
    assert code == 3
    code, env, _ = run_cli(capsys, "radius", "--poly", "1", "--region", "1,99,1,99", "--r", "1")
    assert code == 0 and env["payload"]["point"] == {"x": 2, "y": 2}
    code, env, _ = run_cli(capsys, "radius", "--poly", "1", "--region", "1,99,1,99", "--r", "2")
    assert code == 3
    code, env, _ = run_cli(capsys, "construct", "--point", "100,7")
    assert code == 0 and env["payload"]["verified"] is True
    code, env, err = run_cli(capsys, "construct", "--point", "101,7")
    assert code == 3 and err == "error: point 101,7 exceeds the coordinate cap 100\n"
    code, env, _ = run_cli(capsys, "density", "--poly", "1", "--n", "100")
    assert code == 0 and env["payload"]["visible_count"] == 6087


@pytest.mark.parametrize(
    "argv, code",
    [
        (("visible", "--poly", "1", "--point", "100000,99999"), 0),
        (("visible", "--poly", "1", "--point", "100001,5"), 3),
        (("visible", "--poly", "1", "--point", "5,100001"), 3),
        (("construct", "--point", "100001,3"), 3),
        (("construct", "--point", "3,100001", "--multi", "100003,100019"), 3),
    ],
)
def test_coordinate_cap(capsys, argv, code):
    got, env, err = run_cli(capsys, *argv)
    assert got == code
    if code == 3:
        assert env is None
        assert err.startswith("error: point ") and err.endswith(" exceeds the coordinate cap 100000\n")


@pytest.mark.parametrize(
    "argv, reach",
    [
        (("classify", "--poly", "1", "--region", "1000000000,1000000001,1,2"), 1000000001),
        (("radius", "--poly", "1", "--region", "100000000,100000001,1,2", "--r", "0"), 100000001),
        (("radius", "--poly", "1", "--region", "99990,99995,1,2", "--r", "6"), 100001),
        (("blocks", "--poly", "1", "--size", "2", "--max", "5,100001"), 100001),
    ],
)
def test_region_coordinate_cap(capsys, argv, reach):
    """A column costs work linear in x, so region corners share the --point cap."""
    start = time.perf_counter()
    code, env, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and env is None
    assert err == f"error: region reaches coordinate {reach}, past the coordinate cap 100000\n"


def test_region_at_the_coordinate_cap(capsys):
    code, env, _ = run_cli(capsys, "classify", "--poly", "1", "--region", "99999,100000,1,2")
    assert code == 0 and env["payload"]["visible_count"] == 3  # (100000, 2) shares the factor 2
    code, env, _ = run_cli(capsys, "radius", "--poly", "1", "--region", "99990,99995,1,2", "--r", "5")
    assert code == 0 and env["payload"]["found"] is False


def _forbid_work(monkeypatch):
    """Make every census and geometry entry point, and the query work, fail the test."""
    def fail(*args, **kwargs):
        pytest.fail("work started before the cap check")

    for module, names in (
        (census, ("density_rows", "coprimality_count", "brute_count", "exact_count_ie", "constant_cp", "rho")),
        (roots.RootTable, ("gcds",)),
        (geometry, ("classify_region", "find_block", "find_all_blocks", "find_point_with_radius")),
        (visibility, ("is_visible",)),
        (construct, ("construct_visible", "construct_multi_prime")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, fail)


def _coord_message(reach):
    return f"region reaches coordinate {reach}, past the coordinate cap 40"


# One row per scope cap: a command at the cap under LATTICE_SCOPE_CAP=40, then
# one past the default cap and one past 40, each with its message. A region
# side never exceeds the region's largest coordinate, so under one
# LATTICE_SCOPE_CAP a side one past the cap meets the coordinate cap first.
SCOPE_CAPS = [
    pytest.param(
        "density --poly 1 --n 40",
        "density --poly 1 --n 10001", "N=10001 exceeds the configured cap 10000",
        "density --poly 1 --n 41", "N=41 exceeds the configured cap 40",
        id="density N",
    ),
    pytest.param(
        "count --poly 1 --n 40",
        "count --poly 1 --n 10001", "N=10001 exceeds the configured cap 10000",
        "count --poly 1 --n 41 --mode oracle", "N=41 exceeds the configured cap 40",
        id="count N",
    ),
    pytest.param(
        "classify --poly 1 --region 1,40,1,40",
        "classify --poly 1 --region 1,2001,1,2", "region 2001x2 exceeds the 2000x2000 cap",
        "classify --poly 1 --region 2,41,1,2", _coord_message(41),
        id="classify side",
    ),
    pytest.param(
        "blocks --poly 1 --size 2 --max 40,40",
        "blocks --poly 1 --size 2 --max 5,2001", "region 5x2001 exceeds the 2000x2000 cap",
        "blocks --poly 1 --size 2 --max 41,5", _coord_message(41),
        id="blocks side",
    ),
    pytest.param(
        "radius --poly 1 --region 1,39,1,39 --r 1",
        "radius --poly 1 --region 2,10,2,10 --r 1992", "region 2001x2001 exceeds the 2000x2000 cap",
        "radius --poly 1 --region 1,39,1,39 --r 2", _coord_message(41),
        id="radius grown side",
    ),
    pytest.param(
        "classify --poly 1 --region 39,40,1,2",
        "classify --poly 1 --region 100000,100001,1,2",
        "region reaches coordinate 100001, past the coordinate cap 100000",
        "classify --poly 1 --region 40,41,1,2", _coord_message(41),
        id="region coordinate",
    ),
    pytest.param(
        "visible --poly 1 --point 40,40",
        "visible --poly 1 --point 100001,5", "point 100001,5 exceeds the coordinate cap 100000",
        "construct --point 3,41", "point 3,41 exceeds the coordinate cap 40",
        id="point coordinate",
    ),
]


@pytest.mark.parametrize("at_cap, past_default, default_message, past_40, message_40", SCOPE_CAPS)
def test_scope_caps(capsys, monkeypatch, at_cap, past_default, default_message, past_40, message_40):
    """The command line checks each scope cap before any census or geometry call."""
    monkeypatch.setenv("LATTICE_SCOPE_CAP", "40")
    code, env, err = run_cli(capsys, *at_cap.split())
    assert code == 0 and err == ""
    _forbid_work(monkeypatch)
    for scope_cap, argv, message in ((None, past_default, default_message), ("40", past_40, message_40)):
        if scope_cap is None:
            monkeypatch.delenv("LATTICE_SCOPE_CAP")
        else:
            monkeypatch.setenv("LATTICE_SCOPE_CAP", scope_cap)
        code, env, err = run_cli(capsys, *argv.split())
        assert code == 3 and env is None
        assert err == f"error: {message}\n"


def test_radius_counts_its_region_grown_by_r(capsys, monkeypatch):
    """The radius search reads points up to r beyond its region."""
    monkeypatch.setenv("LATTICE_SCOPE_CAP", "10")
    for region, r, point in (("1,10,1,10", "0", {"x": 1, "y": 1}), ("1,9,1,9", "1", {"x": 2, "y": 2})):
        code, env, _ = run_cli(capsys, "radius", "--poly", "1", "--region", region, "--r", r)
        assert code == 0 and env["payload"]["point"] == point
    for region, r, reach in (("1,10,1,10", "1", 11), ("1,11,1,11", "1", 12)):
        code, env, err = run_cli(capsys, "radius", "--poly", "1", "--region", region, "--r", r)
        assert code == 3 and err == f"error: region reaches coordinate {reach}, past the coordinate cap 10\n"


@pytest.mark.parametrize(
    "scope_cap, argv, message",
    [
        (None, "radius --poly 1 --region 1,3000,1,5 --r -1", "radius must be >= 0, got -1"),
        ("lots", "density --poly 1 --n 5 --prime-bound 1000000000000", "LATTICE_SCOPE_CAP='lots' is not an integer"),
    ],
)
def test_two_faults_report_the_first(capsys, monkeypatch, scope_cap, argv, message):
    """A bad input checked before a cap is reported first: the exit code is 2, not 3."""
    if scope_cap is not None:
        monkeypatch.setenv("LATTICE_SCOPE_CAP", scope_cap)
    code, env, err = run_cli(capsys, *argv.split())
    assert code == 2 and env is None
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("scope_cap", [None, "100", "10000000000000"])
@pytest.mark.parametrize("bound", ["1000001", "1000000000000"])
def test_prime_bound_cap(capsys, monkeypatch, scope_cap, bound):
    """A prime bound past 10^6 exits 3 before the census runs, whatever LATTICE_SCOPE_CAP says."""
    if scope_cap is not None:
        monkeypatch.setenv("LATTICE_SCOPE_CAP", scope_cap)
    monkeypatch.setattr(census, "density_rows", lambda *a, **k: pytest.fail("the census ran first"))
    code, env, err = run_cli(capsys, "density", "--poly", "1,1", "--n", "5", "--prime-bound", bound)
    assert code == 3 and env is None
    assert err == f"error: prime bound {bound} exceeds the cap 1000000\n"


def test_prime_bound_at_cap_under_small_scope_cap(capsys, monkeypatch):
    monkeypatch.setenv("LATTICE_SCOPE_CAP", "100")
    code, env, _ = run_cli(capsys, "density", "--poly", "1", "--n", "5", "--prime-bound", "1000000")
    assert code == 0
    assert env["payload"]["c_p_constant"] == pytest.approx(6 / math.pi**2, abs=1e-6)
    code, env, err = run_cli(capsys, "density", "--poly", "1", "--n", "5", "--prime-bound", "1")
    assert code == 2 and err == "error: prime_bound must be >= 2, got 1\n"


def test_density_with_coefficient_past_int64(capsys):
    code, env, err = run_cli(
        capsys, "density", "--poly", "10000000000000000000,1", "--n", "5", "--prime-bound", "2000"
    )
    assert code == 0 and err == ""
    assert env["payload"]["visible_count"] == 25


def test_bad_scope_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("LATTICE_SCOPE_CAP", "lots")
    code, env, err = run_cli(capsys, "density", "--poly", "1", "--n", "10")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_non_positive_scope_cap_is_bad_input(capsys, monkeypatch, raw):
    monkeypatch.setenv("LATTICE_SCOPE_CAP", raw)
    code, env, err = run_cli(capsys, "count", "--poly", "1", "--n", "5")
    assert code == 2 and env is None
    assert err == f"error: LATTICE_SCOPE_CAP={raw!r} must be a positive integer\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("blocks", "--poly", "1,1", "--size", "2", "--max", "10,10,3"), "--max must be 'X,Y'"),
        (("blocks", "--poly", "1,1", "--size", "2", "--max", "10,x"), "--max must be 'X,Y'"),
        (("visible", "--poly", "1", "--point", "3"), "point must be 'a,b'"),
        (("classify", "--poly", "1", "--region", "1,5,1"), "region must be 'minx,maxx,miny,maxy'"),
        (("reproduce", "--target", "table1", "--rows", "7,a"), "--rows must be a comma list of integers"),
        (("construct", "--point", "3,5", "--multi", ""), "--multi must be a comma list of integers"),
    ],
)
def test_comma_list_errors_are_readable(capsys, argv, message):
    code, env, err = run_cli(capsys, *argv)
    assert code == 2 and env is None
    assert err.startswith(f"error: {message}, got ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--poly", "1", "--region", "5,1,1,1"), "empty region 5,1,1,1: min_x 5 > max_x 1"),
        (("classify", "--poly", "1", "--region", "1,5,6,5"), "empty region 1,5,6,5: min_y 6 > max_y 5"),
        (("classify", "--poly", "1", "--region", "0,5,1,5"), "region coordinates must be >= 1, got 0,5,1,5: min_x 0 < 1"),
        (("radius", "--poly", "1", "--region", "1,5,-2,5", "--r", "1"),
         "region coordinates must be >= 1, got 1,5,-2,5: min_y -2 < 1"),
        (("blocks", "--poly", "1", "--size", "2", "--max", "0,5"), "empty region 1,0,1,5: min_x 1 > max_x 0"),
    ],
)
def test_region_errors_name_the_bound(capsys, argv, message):
    """A region off the lattice or empty is bad input, named by its corners and the bound it breaks."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# One argv each command accepts; the property drops and inserts tokens around them.
_GOOD_ARGV = {
    "visible": ["--poly", "1", "--point", "3,5"],
    "density": ["--poly", "1", "--n", "7", "--out", "d.csv", "--prime-bound", "50"],
    "count": ["--poly", "1", "--n", "7", "--mode", "oracle"],
    "construct": ["--point", "3,5", "--prime", "7"],
    "blocks": ["--poly", "1", "--size", "2", "--max", "30,30", "--all", "--out", "b.csv"],
    "classify": ["--poly", "1", "--region", "1,5,1,5", "--out", "g.csv"],
    "radius": ["--poly", "1", "--region", "1,5,1,5", "--r", "1"],
    "reproduce": ["--target", "table1", "--rows", "7"],
}
_ARGV_TOKENS = [
    *_GOOD_ARGV, *sorted({flag for argv in _GOOD_ARGV.values() for flag in argv if flag.startswith("--")}),
    "--multi", "7,11", "-1", "x", "", "pruned", "illustration", "--foo", "--po", "-h", "--help", "extra",
]


@st.composite
def _argvs(draw):
    """A command's good argv, or an unknown command's, with tokens dropped and inserted,
    after at most one token that is no command."""
    name = draw(st.sampled_from([*_GOOD_ARGV, "frobnicate"]))
    tokens = [t for t in _GOOD_ARGV.get(name, ["--poly", "1"]) if draw(st.integers(0, 9))]  # drops one in ten
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_ARGV_TOKENS)))
    return [*draw(st.lists(st.sampled_from(["--foo", "-h", "extra"]), max_size=1)), name, *tokens]


def _parse_outcome(parser, argv):
    """The namespace that parser gives argv, or the exit code; with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parser.parse_args(argv))
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
@example(argv=["visible", "--poly", "1", "--point", "3,5", "--extra"])
@example(argv=["--foo", "visible", "--poly", "1", "--point", "3,5"])
@example(argv=["-h", "visible"])
@example(argv=["construct", "--point", "3,5", "--prime", "7", "--multi", "7,11"])
def test_lean_parser_parses_as_the_full_one(argv):
    """The parser built for argv[0] alone gives argv the namespace the parser of every
    command gives it, or prints the same help, usage or error and exits the same way."""
    assert _parse_outcome(cli._build_parser(argv[0]), argv) == _parse_outcome(cli._build_parser(), argv)


def test_argparse_rejects_unknown_mode():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--poly", "1", "--n", "5", "--mode", "guess"])
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    envs = []
    for _ in range(2):
        _, env, _ = run_cli(capsys, "count", "--poly", "1,1", "--n", "15")
        env.pop("elapsed_ms")
        envs.append(env)
    assert envs[0] == envs[1]


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "density", "--poly", "1,1", "--n", "20"])
    assert exc.value.code == 2


def test_console_script_smoke():
    exe = shutil.which("polyvis")
    cmd = [exe] if exe else [sys.executable, "-m", "polyvis"]
    proc = subprocess.run(
        cmd + ["visible", "--poly", "1", "--point", "3,5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["payload"]["visible"] is True


_ENTRY_PROBE = """
import atexit, gc, sys
from polyvis import cli
atexit.register(lambda: print("atexit: freeze count", gc.get_freeze_count(), file=sys.stderr))
{entry}
"""


def _exit_of(entry: str, argv) -> tuple[int, dict | None, str, int]:
    """Exit code, envelope without elapsed_ms, stderr and the freeze count an atexit hook
    sees, of a fresh interpreter that runs entry on argv."""
    src = str(Path(polyvis.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "LATTICE_SCOPE_CAP"}
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_PROBE.format(entry=entry), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**env, "PYTHONPATH": src},
    )
    envelope = json.loads(proc.stdout) if proc.stdout.strip() else None
    if envelope is not None:
        envelope.pop("elapsed_ms")
    err, _, frozen = proc.stderr.rpartition("atexit: freeze count ")
    return proc.returncode, envelope, err, int(frozen)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("visible", "--poly", "1,1", "--point", "13,195"), 0),
        (("visible", "--poly", "1,1", "--point", "13"), 2),
        (("frobnicate", "--poly", "1"), 2),
        (("density", "--poly", "1", "--n", "10001"), 3),
    ],
)
def test_process_entry_freezes_the_heap_on_every_way_out(argv, code):
    """run() freezes the heap on every way out, argparse's own exit too, so the
    interpreter's last collections skip it; atexit hooks still run, and the output
    and exit code are those of main() run without the freeze."""
    got = _exit_of("cli.run()", argv)
    want = _exit_of("raise SystemExit(cli.main())", argv)
    assert got[0] == want[0] == code
    assert got[1:3] == want[1:3]
    assert got[3] > 0 and want[3] == 0


def test_main_leaves_the_collector_alone(capsys):
    """Only the process entry freezes: library callers, the tests and in-process
    benchmarks keep their collector."""
    frozen = gc.get_freeze_count()
    for argv, code in [(("visible", "--poly", "1,1", "--point", "13,195"), 0), (("count", "--poly", "1", "--n", "0"), 2)]:
        assert run_cli(capsys, *argv)[0] == code
        assert gc.get_freeze_count() == frozen


_MODULES_PROBE = """
import json, sys
from polyvis import cli
if sys.argv[1:]:
    cli.main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


def _modules_loaded_by(argv) -> set[str]:
    """The modules a fresh interpreter holds after importing polyvis.cli and running argv."""
    src = str(Path(polyvis.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("visible", "--poly", "1,1", "--point", "13,195"),
        ("construct", "--point", "3,5", "--multi", "7,11"),
        ("reproduce", "--target", "illustration"),
        ("density", "--poly", "1", "--n", "10", "--out", os.devnull),
        ("density", "--poly", "1", "--n", "10"),
        ("count", "--poly", "1", "--n", "10", "--mode", "pruned"),
        ("classify", "--poly", "1", "--region", "1,5,1,5"),
        ("blocks", "--poly", "1", "--size", "2", "--max", "30,30", "--all", "--out", os.devnull),
        ("radius", "--poly", "1", "--region", "2,10,2,10", "--r", "1"),
        ("reproduce", "--target", "table1"),
    ],
)
def test_no_command_loads_numpy(argv):
    """polyvis runs on the standard library alone: importing polyvis.cli and
    running each command in a fresh interpreter leaves numpy unloaded, even
    where numpy is installed."""
    assert "numpy" not in _modules_loaded_by(argv)


_LEAN = {"dataclasses", "inspect", "polyvis.construct"}
_QUERY = {"polyvis.census", "polyvis.geometry"}
_INTEGER = {"fractions", "decimal"}  # only the curve construction and the rational oracle need them
_COLUMNS = {"polyvis.roots", "polyvis.columns", "csv"}  # whole columns, and CSV output
_VERDICT = {"polyvis.visibility"}  # single-point verdicts: visible and the oracles


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ((), _LEAN | _QUERY | _INTEGER | _COLUMNS | _VERDICT | {"polyvis.arith"}),
        (("visible", "--poly", "1,1", "--point", "13,195"), _LEAN | _QUERY | _INTEGER | _COLUMNS | {"polyvis.arith"}),
        (("visible", "--poly", "1", "--point", "12,6"), _LEAN | _QUERY | _INTEGER | _COLUMNS | {"polyvis.arith"}),
        (("density", "--poly", "1", "--n", "10"), _LEAN | _INTEGER | _VERDICT | {"polyvis.geometry", "csv"}),
        (("density", "--poly", "1", "--n", "10", "--out", os.devnull), _LEAN | _INTEGER | _VERDICT | {"polyvis.geometry", "csv"}),
        (("count", "--poly", "1", "--n", "10", "--mode", "pruned"), _LEAN | _INTEGER | _VERDICT | {"polyvis.geometry"}),
        (("construct", "--point", "3,5"), _QUERY | _COLUMNS | _VERDICT),
        (("construct", "--point", "3,5", "--multi", "7,11"), _QUERY | _COLUMNS | _VERDICT),
        (("classify", "--poly", "1", "--region", "1,5,1,5"), _LEAN | _INTEGER | _VERDICT | {"polyvis.census"}),
        (("blocks", "--poly", "1", "--size", "2", "--max", "30,30", "--all", "--out", os.devnull), _LEAN | _INTEGER | _VERDICT | {"polyvis.census"}),
        (("radius", "--poly", "1", "--region", "2,10,2,10", "--r", "1"), _LEAN | _INTEGER | _VERDICT | {"polyvis.census"}),
        (("reproduce", "--target", "table1"), _LEAN | {"polyvis.census"}),
        (("reproduce", "--target", "illustration"), _QUERY | _COLUMNS | _VERDICT),
        (("reproduce", "--target", "table1", "--rows", "7,13,14"), _LEAN | _INTEGER | _VERDICT | {"polyvis.census"}),
    ],
)
def test_commands_load_only_their_modules(argv, unloaded):
    """Start-up stays lean: no command loads dataclasses or inspect, only
    construct and the illustration load polyvis.construct, the query
    commands leave the census and geometry modules unloaded, the
    geometry commands leave census unloaded, and the integer commands
    leave fractions and decimal unloaded. visible and construct load
    neither the root kernel, the column search nor csv, and visible not
    even arith. density writes its CSV as bytes and leaves csv unloaded.
    Only visible, the oracles and the survey's corner check load
    visibility: not import polyvis.cli, the sweeps, the grids or construct."""
    assert not _modules_loaded_by(argv) & unloaded


@pytest.mark.parametrize(
    "argv, extra",
    [
        ((), set()),
        (("construct", "--point", "3,5"), {"polyvis.construct", "polyvis.arith"}),
        (("visible", "--poly", "1,1", "--point", "13,195"), {"polyvis.visibility"}),
    ],
)
def test_start_up_loads_only_the_single_point_layer(argv, extra):
    loaded = {m for m in _modules_loaded_by(argv) if m.split(".")[0] == "polyvis"}
    assert loaded == {"polyvis", "polyvis.cli", "polyvis.errors", "polyvis.polyfam"} | extra


_STAR_PROBE = """
import json, sys
import polyvis
listed = dir(polyvis)
before = sorted(sys.modules)
namespace = {}
exec("from polyvis import *", namespace)
bound = sorted(name for name in namespace if name != "__builtins__")
print(json.dumps([polyvis.__all__, listed, bound, before]))
"""


def test_star_import_and_dir_list_every_lazy_name():
    """`from polyvis import *` binds every lazy name, and dir(polyvis) lists
    them before any has loaded; importing the package loads no submodule."""
    src = str(Path(polyvis.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _STAR_PROBE], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    exported, listed, bound, loaded = json.loads(proc.stdout)
    assert sorted(exported) == sorted(polyvis._LAZY) == bound
    assert set(exported) <= set(listed) and "__version__" in listed
    assert not {m for m in loaded if m.startswith("polyvis.")}


def test_lazy_package_names_resolve():
    from polyvis import BLOCK_SURVEY, brute_count, classify_region

    assert brute_count is census.brute_count
    assert (classify_region, BLOCK_SURVEY) == (geometry.classify_region, geometry.BLOCK_SURVEY)
    with pytest.raises(AttributeError):
        polyvis.no_such_name
