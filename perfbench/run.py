#!/usr/bin/env python3
"""The paramod benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload stability-random --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; paramod is imported from ``src/``.
With ``--trace 0`` the timed loop runs for ``--seconds`` (and at least long
enough for twelve samples beyond the tail percentile, stopping at a whole block
of operations; in process it never reuses an input and so also stops when
the seed's pool is used up) and the end-to-end metrics are reported in
nominal seconds (see the calibration note below).  With ``--trace 1`` a fixed number of
operations runs, each block untraced and traced with spans around paramod's
public entry points (see ``tracer.py``), and the per-layer metrics are
reported as measured.  Every operation's output is checked by the independent
oracle and, for the seeds in ``refs/``, against the recorded output hashes;
any failure makes the exit code 1.  The last line of stdout is the JSON
result; ``.perfbench_out/`` receives the full record and the spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 3  # set-ups per run: this process plus two children; the median is reported
# Calibration.  On a shared or virtualised CPU the machine's speed drifts: by up
# to 2x within a run on a 2-vCPU x86-64 VM with busy neighbours.  The timed
# loop therefore runs a fixed piece of paramod-independent work after each
# segment of operations and divides the segment's times by the slowdown, the
# measured over the nominal time of that work, averaged over the two samples
# around the segment: end-to-end times are "nominal seconds".  Each sample is
# the median of CAL_REPS repetitions, so that a preemption inside one
# repetition, which can make it many times too slow, is outvoted; the
# average of the two ends keeps the factor local to its segment.  In process the
# work is exact-rational arithmetic, which slows like paramod's own; for cli
# processes it is an interpreter start without site.  The nominal values are
# the unloaded times on that VM; only ratios matter, so they never change.
CAL_NOMINAL_S = 0.00045
CAL_PROCESS_NOMINAL_S = 0.012
CAL_EVERY_S = 0.02  # in-process operation time between calibrations
CAL_REPS = 3  # repetitions of the calibration work per sample
MIN_BEYOND = 12  # the timed loop runs on until this many samples lie beyond the tail percentile


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def calibration_work():
    acc = Fraction(0)
    for k in range(1, 100):
        acc += Fraction(k % 7 + 1, k + 3) * Fraction(3, k + 1)
    return acc


def median_seconds(work) -> float:
    """Median wall time of CAL_REPS runs of ``work``."""
    times = []
    for _ in range(CAL_REPS):
        t = time.perf_counter()
        work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def slowdown_in_process() -> float:
    """Measured over nominal time of the in-process calibration."""
    return median_seconds(calibration_work) / CAL_NOMINAL_S


def start_interpreter():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


def slowdown_process() -> float:
    """Measured over nominal time of an interpreter start."""
    return median_seconds(start_interpreter) / CAL_PROCESS_NOMINAL_S


class NominalClock:
    """Wall time split into segments, each closed by a calibration; a segment
    counts its wall time over the mean slowdown measured at its two ends."""

    def __init__(self, slowdown):
        self.slowdown = slowdown
        self.samples = [slowdown()]
        self.walls: list[float] = []
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        """Wall time of the open segment."""
        return time.perf_counter() - self.start

    def split(self):
        self.walls.append(self.elapsed())
        self.samples.append(self.slowdown())
        self.start = time.perf_counter()

    def factors(self) -> list[float]:
        """The slowdown of each closed segment."""
        return [(a + b) / 2 for a, b in zip(self.samples, self.samples[1:])]

    def nominal_seconds(self) -> float:
        return sum(w / f for w, f in zip(self.walls, self.factors()))


def setup(name, seed):
    """Import paramod and generate the seed's inputs; returns the time taken
    in nominal seconds."""
    clock = NominalClock(slowdown_in_process)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS[name](str(ROOT))
    items = []
    for item in wl.generate(seed):
        items.append(item)
        if clock.elapsed() >= CAL_EVERY_S:
            clock.split()
    clock.split()
    return wl, items, clock.nominal_seconds()


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def execute(fn, item) -> str:
    try:
        return fn(item)
    except Exception as e:  # a failed operation, counted and reported
        return f"error: {type(e).__name__}: {e}"


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_each(fn, items, around=None):
    """Run each item once, in order.  Returns outputs, per-op latencies and
    the wall time."""
    outs, lat = [], []
    start = time.perf_counter()
    for j, item in enumerate(items):
        t = time.perf_counter()
        outs.append(execute(fn, item) if around is None else around(j, execute, fn, item))
        lat.append(time.perf_counter() - t)
    return outs, lat, time.perf_counter() - start


def timed_loop(fn, items, step, seconds, min_ops, slowdown, every, cycle):
    """The end-to-end loop: operations in pool order until ``seconds`` have
    passed and at least ``min_ops`` ran, checking only at multiples of
    ``step``; a calibration follows each segment of at least ``every``
    seconds.  Unless ``cycle``, no input runs twice: the loop also ends when
    the pool is used up.  Returns outputs, per-op latencies and the loop time
    without the calibrations, both in nominal seconds, the segments'
    slowdowns and whether the pool ran out."""
    outs, lat, seg = [], [], []
    clock = NominalClock(slowdown)
    n = len(items)
    start = time.perf_counter()
    j = 0
    while True:
        t = time.perf_counter()
        outs.append(execute(fn, items[j % n]))
        lat.append(time.perf_counter() - t)
        seg.append(len(clock.walls))
        j += 1
        used_up = not cycle and j == n
        done = used_up or j % step == 0 and j >= min_ops and time.perf_counter() - start >= seconds
        if done or clock.elapsed() >= every:
            clock.split()
        if done:
            break
    factors = clock.factors()
    nominal_lat = [t / factors[k] for t, k in zip(lat, seg)]
    return outs, nominal_lat, clock.nominal_seconds(), factors, used_up


def load_refs(wl):
    path = HERE / "refs" / f"{wl.name}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify(wl, items, idx, outs, refs, seed, block):
    """Oracle and reference checks of ``outs[j]``, the output for
    ``items[idx[j]]``.  Returns (failed, problems, reference status).  A
    mismatching reference block with no other failure inside counts as one
    failed operation."""
    bad = set()
    problems = []
    for j, out in enumerate(outs):
        item = items[idx[j]]
        p = [out] if out.startswith("error: ") else wl.check(item, out)
        if p:
            bad.add(j)
            problems.append(f"op {j} ({item.cls}): {'; '.join(p)}")
    extra, status = 0, "none recorded for this seed"
    if not wl.in_process:
        expected = refs["outputs"] if refs else None
        if expected is not None:
            status = "checked"
            for j, h in enumerate(block_hashes(outs, 1)):
                if h != expected.get(items[idx[j]].cls) and j not in bad:
                    bad.add(j)
                    problems.append(f"op {j} ({items[idx[j]].cls}): output differs from the reference")
    elif refs and str(seed) in refs["seeds"]:
        if (refs["pool"], refs["block"]) != (wl.pool, block):
            extra, status = 1, "stale: pool or block size changed"
            problems.append(status)
        else:
            status = "checked"
            expected = refs["seeds"][str(seed)]
            for b, h in enumerate(block_hashes(outs[:len(outs) - len(outs) % block], block)):
                ops = range(b * block, (b + 1) * block)
                if h != expected[idx[ops.start] // block] and not bad.intersection(ops):
                    extra += 1
                    problems.append(f"ops {ops.start}-{ops.stop - 1}: outputs differ from the reference")
    return len(bad) + extra, problems, status


def block_hashes(outs, block):
    """One hash per ``block`` outputs; with ``block=1`` the hash of each output."""
    digests = [hashlib.sha256(o.encode()).hexdigest()[:16] for o in outs]
    if block == 1:
        return digests
    return [
        hashlib.sha256("".join(digests[k:k + block]).encode()).hexdigest()[:16]
        for k in range(0, len(digests), block)
    ]


def census(items, outs, lat, q_tail):
    rows = {}
    for j, t in enumerate(lat):
        rows.setdefault(items[j % len(items)].cls, []).append(t)
    lines = []
    for cls, ts in rows.items():
        ts.sort()
        beyond = len(ts) - math.ceil(q_tail * len(ts))
        lines.append(
            f"  {cls:<20} n={len(ts):<6} p50={percentile(ts, 0.5) * 1e3:8.3f} ms  "
            f"p{round(q_tail * 100)}={percentile(ts, q_tail) * 1e3:8.3f} ms  ({beyond} beyond)"
        )
    on_wall = sum(1 for o in outs if o == "on-wall")
    if on_wall:
        lines.append(f"  on-wall outcomes: {on_wall}")
    return lines


def stamp(args, outs):
    import paramod

    src = hashlib.sha256()
    for path in sorted((SRC / "paramod").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": paramod.KERNEL_BACKEND,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "outputs_sha256": hashlib.sha256("\n".join(outs).encode()).hexdigest(),
    }


def process_ms(code) -> float:
    """Wall time of one ``python -c code`` process, in ms."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True, capture_output=True)
    return (time.perf_counter() - t) * 1e3


def run_untraced(args, wl, items):
    from workloads import BLOCK

    q_tail = 0.99 if wl.in_process else 0.90
    min_ops = round(MIN_BEYOND / (1 - q_tail))
    if wl.in_process:
        outs, lat, wall, factors, used_up = timed_loop(
            wl.run, items, BLOCK, args.seconds, min_ops, slowdown_in_process, CAL_EVERY_S, cycle=False)
    else:
        # the pool is the fixed command list, and each command is a new
        # process, so repeating a command shares no work
        outs, lat, wall, factors, used_up = timed_loop(
            wl.run, items, 1, args.seconds, min_ops, slowdown_process, 0.0, cycle=True)
    slow = statistics.median(factors)
    ordered = sorted(lat)
    tail_name = f"latency_p{round(q_tail * 100)}_ms"
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = wl.peak_rss_kb
    metrics = {
        "ops_per_s": (len(outs) / wall, "1/s"),
        "latency_p50_ms": (percentile(ordered, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (percentile(ordered, q_tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    beyond = len(ordered) - math.ceil(q_tail * len(ordered))
    notes = [
        f"times in nominal seconds; slowdown of this machine over {len(factors)} segments: "
        f"min {min(factors):.3f}, median {slow:.3f}, max {max(factors):.3f}, "
        f"so {len(outs) / wall / slow:.4g} raw ops/s",
        f"{tail_name} = latency_tail_ms = {metrics['latency_tail_ms'][0]:.4f} ms "
        f"over {len(ordered)} operations, {beyond} beyond the percentile",
        "census by input class:",
        *census(items, outs, lat, q_tail),
    ]
    if used_up:
        notes.append(f"the pool of {len(items)} inputs ran out before --seconds had passed")
    return [j % len(items) for j in range(len(outs))], outs, metrics, notes


def run_traced(args, wl, items):
    from tracer import OP, TRACED, Tracer
    from workloads import BLOCK

    ops = wl.trace_ops
    step = BLOCK if wl.in_process else 1
    fn = wl.run if wl.in_process else wl.run_in_process
    # each block runs untraced and traced, in alternating order, so both
    # passes see the same warmth and background load
    tracer = Tracer()
    outs, idx = [], []
    wall = [0.0, 0.0]
    for first in range(0, ops, step):
        block = [j % len(items) for j in range(first, first + step)]
        chunk = [items[j] for j in block]
        for traced in (False, True) if first // step % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                out, _, w = run_each(fn, chunk, around=(
                    (lambda j, *call: tracer.run_op(first + j, *call)) if traced else None))
            finally:
                tracer.uninstall()
            outs += out
            idx += block
            wall[traced] += w
    wall_u, wall_t = wall
    totals = tracer.layer_totals()
    n = len(outs) // 2
    metrics = {}
    for mod, path in TRACED:
        calls, self_s = totals.get(f"{mod}.{path}", (0, 0.0))
        metrics[f"{mod}.{path}.calls_per_op"] = (calls / n, "count")
        metrics[f"{mod}.{path}.self_ms_per_op"] = (self_s * 1e3 / n, "ms")
    metrics["op.self_ms_per_op"] = (totals[OP][1] * 1e3 / n, "ms")
    interp = imported = command = 0.0
    if not wl.in_process:
        # per command: an interpreter start, an import and the command itself,
        # back to back, so the differences see the same machine speed
        rows = []
        for j, item in enumerate(items):
            start, imp = process_ms("pass"), process_ms("import paramod.cli")
            out, lat, _ = run_each(wl.run, [item])
            outs += out
            idx.append(j)
            rows.append((start, imp - start, lat[0] * 1e3 - imp))
        interp, imported, command = (statistics.median(col) for col in zip(*rows))
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (imported, "ms")
    metrics["cli.command_ms"] = (command, "ms")
    metrics["trace.overhead_ratio"] = (wall_t / wall_u, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}.csv.gz")
    notes = [f"traced {n} operations ({len(tracer.spans)} spans); each block also ran untraced"]
    # the saturation tests per decision, by input class: where the tail comes from
    per_op = tracer.calls_by_op("stability.formal_resultant")
    by_class = {}
    for j in range(n):
        by_class.setdefault(items[j % len(items)].cls, []).append(per_op.get(j, 0))
    notes += [f"  {cls:<20} stability.formal_resultant calls per op = {sum(c) / len(c):.2f}"
              for cls, c in by_class.items()]
    return idx, outs, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paramod" / "__init__.py").is_file():
        sys.stderr.write(f"error: no paramod sources under {SRC}\n")
        return 2
    wl, items, first_setup = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(first_setup)
            return 0
        return measure(args, wl, items, first_setup)
    finally:
        wl.close()


def measure(args, wl, items, first_setup) -> int:
    from workloads import BLOCK

    setups = [first_setup] + [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    # the input pool is the benchmark's data, not paramod's: keep it out of the
    # cyclic collector's traversals, so collection pauses reflect paramod alone
    gc.collect()
    gc.freeze()
    warm = [execute(wl.run, item) for item in wl.warmup()]
    runner = run_traced if args.trace else run_untraced
    idx, outs, metrics, notes = runner(args, wl, items)
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    failed, problems, ref_status = verify(wl, items, idx, outs, load_refs(wl), args.seed, BLOCK)
    warm_errors = [o for o in warm if o.startswith("error: ")]
    failed += len(warm_errors)
    attempted = len(outs) + len(warm)
    info = stamp(args, outs)
    info.update(ops=len(outs), warmup_ops=len(warm), reference=ref_status,
                setup_s_runs=[round(s, 4) for s in setups])
    print(json.dumps({"stamp": info}, sort_keys=True))
    for line in notes:
        print(line)
    print(f"error_rate = {failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    for line in (warm_errors + problems)[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, stamp=info, notes=notes, problems=problems)
    suffix = "_trace" if args.trace else ""
    with open(OUT / f"BENCH_{wl.name}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
