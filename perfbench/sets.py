#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them (perfbench/README.md).

    python3 perfbench/sets.py run --out A.jsonl [--seeds 1-10]
    python3 perfbench/sets.py spread A.jsonl
    python3 perfbench/sets.py compare A.jsonl B.jsonl
    python3 perfbench/sets.py selfcheck --dir DIR [--seeds 1-10]

Run from the repository root. Every run goes through perfbench/run.py,
the command BENCHMARK.json names, with its run_seconds. A run whose own
check fails (correct=false, which includes a measured phase made invalid by
a lagging generator or a growing backlog) stops the set: its figures are
never compared.
`selfcheck` makes two clean sets and one with the serve.worker.stall
fault armed, and checks that the clean sets agree within the bounds and
that the stalled set reads as a regression on walk_decode throughput_rps
and city_mix p50_ms. The site fires once per batch on the batched path and
once per request otherwise, so walk_decode (batches of 8) gets a longer
stall per firing than city_mix (mostly single requests): about 1.5 ms and
3 ms per request.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
STALL_MS = {"walk_decode": 12, "city_mix": 3}
STALL_MUST_REGRESS = [("walk_decode", "throughput_rps"),
                      ("city_mix", "p50_ms")]


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec, workloads, seeds, out_path, stall_ms=None):
    """Runs every (workload, seed) through run.py; `stall_ms` maps a
    workload to the serve.worker.stall milliseconds to arm."""
    results = []
    with open(out_path, "w") as out:
        for workload in workloads:
            stall = (stall_ms or {}).get(workload, 0)
            for seed in seeds:
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"]
                if stall:
                    command += ["--stall-ms", str(stall)]
                run = subprocess.run(command, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
                lines = run.stdout.strip().splitlines()
                if run.returncode or not lines:
                    sys.exit("run failed: %s seed %d" % (workload, seed))
                result = json.loads(lines[-1])
                record = {"workload": workload, "seed": seed,
                          "correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {k: v["value"] for k, v in
                                      result["metrics"].items()}}
                out.write(json.dumps(record) + "\n")
                out.flush()
                if not record["correct"]:
                    sys.exit("run rejected (correct=false): %s seed %d"
                             % (workload, seed))
                results.append(record)
                print("%-12s seed %3d  %s" % (workload, seed, " ".join(
                    "%s=%.4g" % kv for kv in record["metrics"].items())))
    return results


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def print_spread(spec, results):
    """Quartile spread of each metric against its bound; True when every
    spread but setup_s is within a third of its bound. setup_s is exempt,
    as in the benchmark contract: a set-up is well under a second, so host
    noise dominates its spread (README, "Measured spread"); it is still
    printed, and compared between sets against its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, metrics in compare.by_workload(results).items():
        for name, values in metrics.items():
            share = compare.iqr_share(values)
            exempt = name == "setup_s"
            ok = share <= bounds[name] / 3
            steady = steady and (ok or exempt)
            print("%-12s %-20s n=%2d median %12.5g  iqr/median %.4f  "
                  "bound %.2f %s" % (workload, name, len(values),
                                     statistics.median(values), share,
                                     bounds[name], "" if ok else
                                     "WIDE (exempt)" if exempt else "WIDE"))
    for r in results:
        if not r["correct"] or r["failed"]:
            steady = False
            print("%s seed %d: correct=%s failed=%d" % (
                r["workload"], r["seed"], r["correct"], r["failed"]))
    return steady


def print_compare(spec, base, new):
    try:
        rows = compare.compare(base, new, spec["end_to_end"])
    except ValueError as error:
        sys.exit("not compared: %s" % error)
    for workload, name, b, n, worse, wins, losses, verdict in rows:
        print("%-12s %-20s base %12.5g new %12.5g worse_by %+.4f "
              "wins %2d losses %2d  %s" % (workload, name, b, n, worse,
                                           wins, losses, verdict))
    return rows


def selfcheck(spec, directory, seeds):
    os.makedirs(directory, exist_ok=True)
    workloads = [w["name"] for w in spec["workloads"]]
    a = run_set(spec, workloads, seeds, os.path.join(directory, "clean_a.jsonl"))
    b = run_set(spec, workloads, seeds, os.path.join(directory, "clean_b.jsonl"))
    s = run_set(spec, sorted(STALL_MS), seeds,
                os.path.join(directory, "stall.jsonl"), STALL_MS)
    print("\n== spread, clean set A")
    steady = print_spread(spec, a)
    print("\n== clean A vs clean B (must agree)")
    agree = all(row[-1] != "regression" for row in print_compare(spec, a, b))
    print("\n== clean A vs stall %s (must regress)" % STALL_MS)
    verdicts = {(r[0], r[1]): r[-1] for r in print_compare(spec, a, s)}
    flagged = all(verdicts.get(key) == "regression"
                  for key in STALL_MUST_REGRESS)
    print("\nsteady=%s agree=%s stall_flagged=%s" % (steady, agree, flagged))
    return 0 if steady and agree and flagged else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p = sub.add_parser("spread")
    p.add_argument("path")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p = sub.add_parser("selfcheck")
    p.add_argument("--dir", required=True)
    p.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = load_spec()

    if args.command == "run":
        run_set(spec, [w["name"] for w in spec["workloads"]],
                parse_seeds(args.seeds), args.out)
        return 0
    if args.command == "spread":
        return 0 if print_spread(spec, load(args.path)) else 1
    if args.command == "compare":
        rows = print_compare(spec, load(args.base), load(args.new))
        return 1 if any(row[-1] == "regression" for row in rows) else 0
    return selfcheck(spec, args.dir, parse_seeds(args.seeds))


if __name__ == "__main__":
    sys.exit(main())
