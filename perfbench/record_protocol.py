#!/usr/bin/env python3
"""Record the protocol workload's per-trial results (chosen K and macro-F for
every kind and trial) for a range of seeds into protocol_expected.json, which
run.py then checks every protocol pass against.

Record only from a commit whose protocol results are trusted: the file is the
reference that later changes must reproduce.

Usage, from the root of a source checkout:

    python3 perfbench/record_protocol.py --seeds 0-31
"""

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = ap.parse_args()
    lo, hi = (int(s) for s in args.seeds.split("-"))
    pkg = run.import_package()
    path = os.path.join(run.HERE, "protocol_expected.json")
    with open(path, encoding="utf-8") as f:
        table = json.load(f)
    work = os.path.join(run.ROOT, ".perfbench_work", f"record-{os.getpid()}")
    try:
        for seed in range(lo, hi + 1):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            wl = run.ProtocolWorkload(pkg, seed)
            wl.expected = None
            t0 = time.perf_counter()
            wl.setup(work)
            t1 = time.perf_counter()
            res = wl.run(0, None)
            if res.failed:
                raise SystemExit(f"seed {seed}: {res.failed} trials failed the independent checks")
            table["seeds"][str(seed)] = wl.last
            print(f"seed {seed}: setup {t1 - t0:.2f} s, pass {res.seconds:.3f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    seeds = sorted(table["seeds"].items(), key=lambda kv: int(kv[0]))
    recorded_with = {"numpy": np.__version__, "python": sys.version.split()[0]}
    with open(path, "w", encoding="utf-8") as f:  # one line per seed
        f.write('{"recorded_with": ' + json.dumps(recorded_with) + ', "seeds": {\n')
        f.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in seeds))
        f.write("\n}}\n")


if __name__ == "__main__":
    main()
