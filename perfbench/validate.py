"""Checks that the benchmark is steady, and keeps the runs that show it.

Run from the repository root.

  python3 perfbench/validate.py run OUT.jsonl [--seeds 1-10] [--workloads a,b]
      Runs every workload of BENCHMARK.json untraced once per seed, for
      run_seconds each, and appends one JSON line per run to OUT.jsonl: the
      workload, seed, wall time, verdict, every metric and the env line.

  python3 perfbench/validate.py compare A.jsonl [B.jsonl]
      For each workload and end-to-end metric, prints each set's median and
      spread (interquartile range over median, from
      statistics.quantiles(n=4)) and, given B, how much worse B's median is
      than A's as a share of A's. A spread or drift beyond the metric's
      bound is flagged; setup_s's spread is not gated.
"""

import json
import statistics
import subprocess
import sys
import time


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds(arg):
    lo, _, hi = arg.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(out, args):
    b = spec()
    opts = dict(zip(args[::2], args[1::2]))
    names = opts.get("--workloads", ",".join(w["name"] for w in b["workloads"])).split(",")
    for name in names:
        for seed in seeds(opts.get("--seeds", "1-10")):
            t = time.time()
            p = subprocess.run(
                b["command"] + ["--workload", name, "--seed", str(seed),
                                "--seconds", str(b["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            wall = time.time() - t
            if p.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr}")
            lines = p.stdout.strip().splitlines()
            res, env = json.loads(lines[-1]), json.loads(lines[-2])["env"]
            rec = {"workload": name, "seed": seed, "wall_s": round(wall, 1),
                   "correct": res["correct"], "attempted": res["attempted"],
                   "failed": res["failed"],
                   "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                   "env": env}
            with open(out, "a") as f:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {wall:.1f} s, correct {res['correct']}, "
                  f"{res['attempted']} attempted, {res['failed']} failed", flush=True)


def load(path):
    by = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            for k, v in rec["metrics"].items():
                by.setdefault((rec["workload"], k), []).append(v)
    return by


def summary(xs):
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def compare(paths):
    b = spec()
    sets = [load(p) for p in paths]
    bad = 0
    for w in b["workloads"]:
        if any((w["name"], "setup_s") not in s for s in sets):
            continue
        print(w["name"])
        for m in b["end_to_end"]:
            row, cols = [], []
            for s in sets:
                med, spread = summary(s[(w["name"], m["name"])])
                row.append(med)
                cols.append(f"median {med:<12.6g} spread {spread:.3f}")
                if m["name"] != "setup_s" and spread > m["bound"]:
                    bad += 1
                    cols[-1] += " (over bound)"
            if len(row) == 2:
                worse = (row[1] - row[0]) / row[0]
                if m["better"] == "higher":
                    worse = -worse
                cols.append(f"B worse by {worse:+.3f}")
                if worse > m["bound"]:
                    bad += 1
                    cols[-1] += " (over bound)"
            print(f"  {m['name']:<20} bound {m['bound']:<5} " + " | ".join(cols))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) in (3, 4) and sys.argv[1] == "compare":
        compare(sys.argv[2:])
    else:
        sys.exit(__doc__)
