#!/usr/bin/env python3
"""Record the reference output hashes the benchmark checks against.

    python3 perfbench/record_refs.py --workload stability-random --seeds 0-10,1000

Runs every input of each seed's pool once, refuses to record if the oracle
rejects any output, and stores one hash per block of operations in
``perfbench/refs/<workload>.json`` (for ``cli``: one hash per command, which
no seed changes).  Record only for a commit whose outputs are known good: a
later change that claims a speed-up must leave these files alone, so that a
changed output shows as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

# outputs the README documents for two of the cli invocations
README_OUTPUTS = {
    "classify": '{"coords": ["1", "0", "0"], "decomposable": false, "stratum": "U2"}\n',
    "stability": '{"stable": false, "worst": {"contact": [], "deg": 1, "margin": "-1/2"}}\n',
}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(name, seeds):
    from workloads import BLOCK

    path = run.HERE / "refs" / f"{name}.json"
    wl, items, _ = run.setup(name, seeds[0])
    try:
        if not wl.in_process:
            outs = [run.execute(wl.run, item) for item in items]
            for item, out in zip(items, outs):
                problems = wl.check(item, out)
                expected = README_OUTPUTS.get(item.cls)
                if expected is not None and out != f"exit 0\n{expected}":
                    problems.append("differs from the README")
                if problems:
                    sys.exit(f"{name} {item.cls}: {problems}")
            refs = {"outputs": {item.cls: h for item, h in zip(items, run.block_hashes(outs, 1))}}
        else:
            refs = {"block": BLOCK, "pool": wl.pool, "seeds": {}}
            if path.is_file():
                with open(path, encoding="utf-8") as fh:
                    old = json.load(fh)
                if (old["block"], old["pool"]) == (BLOCK, wl.pool):
                    refs["seeds"] = old["seeds"]
            for seed in seeds:
                items = list(wl.generate(seed))
                outs = [run.execute(wl.run, item) for item in items]
                for j, (item, out) in enumerate(zip(items, outs)):
                    problems = [out] if out.startswith("error: ") else wl.check(item, out)
                    if problems:
                        sys.exit(f"{name} seed {seed} op {j}: {problems}")
                refs["seeds"][str(seed)] = run.block_hashes(outs, BLOCK)
                print(f"{name} seed {seed}: {len(outs)} outputs checked and recorded", flush=True)
            refs["seeds"] = dict(sorted(refs["seeds"].items(), key=lambda kv: int(kv[0])))
    finally:
        wl.close()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0", help="comma-separated seeds and ranges, e.g. 0-10,1000")
    args = ap.parse_args()
    record(args.workload, parse_seeds(args.seeds))


if __name__ == "__main__":
    main()
