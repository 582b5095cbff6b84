"""Record the answer of every command any seed can produce into answers.json.

    python3 bench/record.py [--workload NAME ...]

Each candidate op of the chosen workloads (all by default) runs once as a
child process under the benchmark's environment. Its exit code, envelope
without elapsed_ms and --out sha256 are stored, keyed by the command line.
An op whose output fails an oracle check is reported and not recorded, so a
wrong answer is never written down as the expected one. Re-record only when
an output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    run.use_child_env_here()
    answers = json.loads(run.ANSWERS.read_text()) if run.ANSWERS.is_file() else {}
    rejected = 0
    run.SCRATCH.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        for op in workloads.WORKLOADS[name].candidates():
            with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
                out_path = Path(tmp) / "out.csv"
                child = run.run_child(op.resolve(str(out_path)), Path(tmp))
                got = checks.observe(child.code, child.stdout, out_path if op.writes_out else None)
                problems = checks.oracle(op, got, out_path if op.writes_out else None, random.Random(op.key))
            if problems:
                rejected += 1
                print(f"NOT RECORDED {op.key}: {'; '.join(problems)}", flush=True)
                continue
            answers[op.key] = got
            print(f"{child.wall_s:7.3f}s exit {child.code}  {op.key}", flush=True)
    run.ANSWERS.write_text(json.dumps(dict(sorted(answers.items())), indent=1) + "\n")
    run.SCRATCH.rmdir()
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
