#!/usr/bin/env python3
"""Record a benchmark baseline, or compare two of them.

Run from the root of the checkout to be measured:

    python3 tools/bench_record.py --workload stream_16k --seed 0 --seconds 10
    python3 tools/bench_record.py --compare BENCH_stream_16k.json new.json

Recording runs perfbench/run.py four times: untraced (the end-to-end
metrics) and traced (the per-layer ones), each on every usable core and
under `taskset -c 0`.  From each run it keeps the `machine` line and the
last line, the JSON result, and writes them to BENCH_<workload>.json (or
--out) with the commit, whether the tree was clean, the CPU list of each
run and the command lines.  It writes nothing and exits 1 when a run fails
or is not `correct` with 0 `failed`.

Comparing prints, run by run, old -> new and new / old for every metric.
It never fails on a timing difference.
"""

import argparse
import json
import os
import subprocess
import sys

# the CPU sets a baseline covers: every usable core (None), then core 0 alone
PINS = (None, "0")


def git(*argv):
    return subprocess.run(["git", *argv], capture_output=True, text=True, check=True).stdout


def run_once(workload, seed, seconds, trace, pin):
    """The machine line and the JSON result of one benchmark run."""
    prefix = [] if pin is None else ["taskset", "-c", pin]
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([*prefix, sys.executable, *argv], capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    cmd = " ".join([*prefix, "python3", *argv])
    lines = proc.stdout.splitlines()
    machine = [line for line in lines if line.startswith("machine ")]
    if proc.returncode != 0 or not machine or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_record: {cmd} exited {proc.returncode}:\n{proc.stdout}")
    return {
        "command": cmd,
        "taskset": pin,
        "cpus": sorted(os.sched_getaffinity(0)) if pin is None else [int(pin)],
        "trace": trace,
        "machine": json.loads(machine[-1][len("machine "):]),
        "result": json.loads(lines[-1]),
    }


def record(args):
    # untracked files do not count, so a recorder copied into an older
    # checkout can measure it
    clean = git("status", "--porcelain", "--untracked-files=no") == ""
    runs = []
    for pin in PINS:
        for trace in (0, 1):
            run = run_once(args.workload, args.seed, args.seconds, trace, pin)
            r = run["result"]
            print(f"{run['command']}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
            runs.append(run)
    bad = [r for r in runs if r["result"]["correct"] is not True or r["result"]["failed"] != 0]
    if bad:
        for r in bad:
            print(f"bench_record: not correct: {r['command']}", file=sys.stderr)
        return 1
    out = args.out or f"BENCH_{args.workload}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git("rev-parse", "HEAD").strip(),
        "clean": clean,
        "command": " ".join(["python3", "tools/bench_record.py", *sys.argv[1:]]),
        "runs": runs,
    }
    with open(out, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def compare(old_path, new_path):
    docs = []
    for path in (old_path, new_path):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    old, new = docs
    print(f"{old['workload']} {old['commit'][:12]} -> {new['workload']} {new['commit'][:12]}")
    old_runs = {(r["taskset"], r["trace"]): r for r in old["runs"]}
    for run in new["runs"]:
        key = (run["taskset"], run["trace"])
        print(f"cpus {','.join(map(str, run['cpus']))} trace={run['trace']}:")
        if key not in old_runs:
            print("  no matching run in the old file")
            continue
        before = old_runs[key]["result"]["metrics"]
        after = run["result"]["metrics"]
        for name in sorted(before.keys() | after.keys()):
            a = before.get(name, {}).get("value")
            b = after.get(name, {}).get("value")
            unit = (after.get(name) or before[name])["unit"]
            if a == b:
                ratio = "x1.000"
            else:
                ratio = f"x{b / a:.3f}" if a and b is not None else "n/a"
            print(f"  {name}: {a} -> {b} {unit} ({ratio})")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", help="workload to record (see perfbench/run.py)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", help="output path (default: BENCH_<workload>.json)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print every metric of two recorded files side by side")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
