#!/usr/bin/env python3
"""Checks of the benchmark itself; exits 1 if one fails.

    python3 perfbench/selftest.py

- Every workload gives the same output hash under two ``PYTHONHASHSEED``
  values, and passes its checks (``--seconds 0``: the shortest run that
  still has twelve samples beyond the tail percentile).
- A tampered reference hash makes the run fail, for a block-hashed and for
  the per-command (cli) reference.  The tampering is done in a copy of the
  benchmark and the sources, never in ``refs/`` itself.
- Two traced runs report identical ``calls_per_op`` counts.
- Without the paramod sources the command exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SCRATCH = run.OUT / "selftest"


def bench(*args, env=None, root=run.ROOT):
    """Run the benchmark of the tree at ``root`` on seed 0."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "0", *args],
        cwd=root, env=dict(os.environ, **(env or {})), capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    stamp = json.loads(lines[0])["stamp"] if lines and lines[0].startswith('{"stamp"') else None
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"attempted"') else None
    return proc.returncode, stamp, result


def check(ok, message, failures):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def copy_tree(root, with_sources):
    """A copy of the benchmark, and of the paramod sources if asked, at ``root``."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(run.HERE, root / "perfbench", ignore=ignore)
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    if with_sources:
        shutil.copytree(run.SRC, root / "src", ignore=ignore)
    return root


def main() -> int:
    failures: list[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    for name in WORKLOADS:
        runs = [bench("--workload", name, "--seconds", "0", env={"PYTHONHASHSEED": h}) for h in ("0", "1")]
        same = runs[0][1] and runs[1][1] and runs[0][1]["outputs_sha256"] == runs[1][1]["outputs_sha256"]
        passed = all(code == 0 and result["correct"] for code, _, result in runs)
        check(bool(same) and passed, f"{name}: identical outputs under PYTHONHASHSEED 0 and 1, all checks pass",
              failures)

    tampered = copy_tree(SCRATCH / "tampered", with_sources=True)
    for name, key in (("stability-random", "seeds"), ("cli", "outputs")):
        path = tampered / "perfbench" / "refs" / f"{name}.json"
        refs = json.loads(path.read_text())
        if key == "seeds":
            first = refs["seeds"]["0"]
            first[0] = ("0" if first[0][0] != "0" else "1") + first[0][1:]
        else:
            refs["outputs"]["classify"] = "0" * 16
        path.write_text(json.dumps(refs))
        code, stamp, result = bench("--workload", name, "--seconds", "0", root=tampered)
        caught = code == 1 and result is not None and result["failed"] >= 1 and not result["correct"]
        check(caught and stamp is not None and stamp["reference"] == "checked", f"{name}: a tampered reference fails the run", failures)

    traced = [bench("--workload", "stability-random", "--trace", "1") for _ in range(2)]
    counts = [{k: v["value"] for k, v in r[2]["metrics"].items() if k.endswith("calls_per_op")} for r in traced]
    check(all(r[0] == 0 for r in traced) and counts[0] == counts[1] and counts[0],
          "stability-random: calls_per_op identical across two traced runs", failures)

    bare = copy_tree(SCRATCH / "bare", with_sources=False)
    code, _, result = bench("--workload", "cli", "--seconds", "1", root=bare)
    check(code != 0 and result is None, "without paramod sources: nonzero exit and no result", failures)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
