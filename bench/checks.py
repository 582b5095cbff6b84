"""Answer checks for benchmark ops: recorded answers and independent oracles.

An op passes when its exit code, its envelope without `elapsed_ms` and the
sha256 of its --out file all equal the answer recorded for that command
line, and every oracle check below holds. The oracles compare the op's
output with polyvis's slow reference paths (`brute_count`,
`is_visible_direct`) on a seeded sample, and check the output against
itself (CSV against payload).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from workloads import Op


def observe(code: int, stdout: str, out_path: Path | None) -> dict:
    """What a recorded answer holds: exit code, envelope minus elapsed_ms, --out sha256."""
    lines = stdout.strip().splitlines()
    try:
        envelope = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        envelope = None
    if isinstance(envelope, dict):
        envelope.pop("elapsed_ms", None)
    sha = None
    if out_path is not None and out_path.exists():
        sha = hashlib.sha256(out_path.read_bytes()).hexdigest()
    return {"exit": code, "envelope": envelope, "out_sha256": sha}


def compare(op: Op, got: dict, answers: dict) -> list[str]:
    """Differences between an observation and the recorded answer for op."""
    want = answers.get(op.key)
    if want is None:
        return ["no recorded answer"]
    return [f"{field} differs" for field in ("exit", "envelope", "out_sha256") if got[field] != want[field]]


def _family(op: Op):
    from polyvis import parse_family

    return parse_family(op.arg("--poly"), normalize=True)


def _cli_payload(argv: list[str]) -> dict:
    from polyvis import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return json.loads(buf.getvalue())["payload"]


def oracle(op: Op, got: dict, out_path: Path | None, rng: random.Random) -> list[str]:
    """Independent checks of one op's output; returns the ones that failed."""
    if got["envelope"] is None:
        return ["no envelope"]
    try:
        return _oracle(op, got["envelope"]["payload"], out_path, rng)
    except (LookupError, ValueError, TypeError, OSError) as exc:
        return [f"output does not have the expected shape: {exc!r}"]


def _oracle(op: Op, payload: dict, out_path: Path | None, rng: random.Random) -> list[str]:
    from polyvis import LatticePoint, brute_count, is_visible_direct

    problems = []
    cmd = op.command
    if cmd == "density" and op.writes_out:
        rows = out_path.read_bytes().splitlines()[1:]
        if int(rows[-1].split(b",")[1]) != payload["visible_count"]:
            problems.append("last CSV row != visible_count")
        n0 = rng.randint(12, 24)
        if int(rows[n0 - 1].split(b",")[1]) != brute_count(_family(op), n0):
            problems.append(f"CSV row {n0} != brute_count")
    elif cmd == "count":
        n0 = rng.randint(12, 24)
        small = _cli_payload(["count", "--poly", op.arg("--poly"), "--n", str(n0), "--mode", op.arg("--mode")])
        if small["count"] != brute_count(_family(op), n0):
            problems.append(f"count at n={n0} != brute_count")
    elif cmd == "classify":
        lines = out_path.read_bytes().splitlines()
        mnx, mxx, mny, mxy = payload["region"]
        height = mxy - mny + 1
        if len(lines) - 1 != payload["total"]:
            problems.append("CSV rows != total")
        if sum(ln.endswith(b",1") for ln in lines[1:]) != payload["visible_count"]:
            problems.append("CSV visible column sum != visible_count")
        fam = _family(op)
        for _ in range(24):
            x, y = rng.randint(mnx, mxx), rng.randint(mny, mxy)
            row = lines[1 + (x - mnx) * height + (y - mny)].split(b",")
            if (int(row[0]), int(row[1])) != (x, y) or bool(int(row[2])) != is_visible_direct(fam, LatticePoint(x, y)):
                problems.append(f"cell ({x},{y}) disagrees with is_visible_direct")
    elif cmd == "blocks" and op.writes_out:
        rows = out_path.read_bytes().splitlines()[1:]
        if len(rows) != payload["block_count"]:
            problems.append("CSV rows != block_count")
        fam = _family(op)
        for row in rng.sample(rows, min(4, len(rows))):
            x, y = (int(v) for v in row.split(b","))
            if any(is_visible_direct(fam, LatticePoint(x + dx, y + dy)) for dx in (0, 1) for dy in (0, 1)):
                problems.append(f"block at ({x},{y}) holds a visible point")
    elif cmd == "visible":
        a, b = (int(v) for v in op.arg("--point").split(","))
        if payload["visible"] != is_visible_direct(_family(op), LatticePoint(a, b)):
            problems.append("verdict disagrees with is_visible_direct")
    elif cmd == "construct":
        if not payload["verified"] or not all(c["verified"] for c in payload.get("components", [])):
            problems.append("construction not verified")
    return problems
