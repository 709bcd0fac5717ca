#!/usr/bin/env python3
"""The benchmark's own checks. Run from the root of the repository:

    python3 perfbench/selftest.py

It builds the driver through run.py and checks that:
  * at the default seed every workload's cells are byte-identical to
    sim::SweepRunner::runAll, and the traced and untraced sweeps agree
    (same sim.stats_fingerprint, no cell failed);
  * every workload also completes with zero failed cells at a held-out
    seed, and the output records the seed and a host fingerprint;
  * each run prints exactly the metrics BENCHMARK.json declares;
  * the structural predictions in README.md hold;
  * a cycle budget too small to finish turns cells into counted
    failures that name their status, without aborting;
  * an unknown workload or kernel gives a one-line error and exit 2.
Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
BENCHMARK = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
WORKLOADS = ["branchy", "dense", "figure_chain"]
HELD_OUT_SEED = 1

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(*args):
    p = subprocess.run([sys.executable, RUN, "--seconds", "1"] +
                       list(args), capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    header = result = None
    if p.returncode == 0 and lines:
        header, result = json.loads(lines[0]), json.loads(lines[-1])
    return p, header, result


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def main():
    p, _, _ = run("--workload", "dense", "--kernels", "lbm",
                  "--trace", "0")
    if p.returncode != 0:
        print(p.stderr, file=sys.stderr)
        print("FAIL build or first run", flush=True)
        return 1

    with open(BENCHMARK) as f:
        declared = json.load(f)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}

    layer = {}
    for w in WORKLOADS:
        p, header, r = run("--workload", w, "--trace", "1",
                           "--verify-sweep-runner")
        check(r is not None and r["correct"] and r["failed"] == 0,
              w + ": traced run is correct with no failed cell")
        n = header["cells"] if header else 0
        check(("sweep_runner_identical: %d/%d cells" % (n, n))
              in p.stdout, w + ": cells match SweepRunner::runAll")
        if r:
            layer[w] = values(r)
        check(r is not None and set(values(r)) == per_layer,
              w + ": traced run prints exactly the per_layer metrics")

        p, header, r = run("--workload", w, "--trace", "0",
                           "--seed", str(HELD_OUT_SEED))
        check(r is not None and r["correct"] and r["failed"] == 0 and
              r["attempted"] >= n,
              w + ": held-out seed %d has no failed cell" % HELD_OUT_SEED)
        check(header is not None and header["seed"] == HELD_OUT_SEED and
              {"cpu", "nproc", "compiler", "build_type"} <=
              set(header["host"]),
              w + ": output records the seed and host fingerprint")
        check(r is not None and set(values(r)) == end_to_end and
              all(v > 0 for v in values(r).values()),
              w + ": untraced run prints the end_to_end metrics, non-zero")

    if len(layer) == len(WORKLOADS):
        shared = {w: layer[w]["sim.warmups_shared"] for w in WORKLOADS}
        check(shared == {"branchy": 0, "dense": 0, "figure_chain": 18},
              "sim.warmups_shared is 0/0/18: %s" % shared)
        check(layer["dense"]["ooo.wrongpath_uops"] == 0,
              "ooo.wrongpath_uops is 0 on dense")
        skip = {w: layer[w]["ooo.skipped_cycle_frac"] for w in WORKLOADS}
        check(max(skip, key=skip.get) == "figure_chain",
              "ooo.skipped_cycle_frac is highest on figure_chain: %s" %
              skip)

    p, _, r = run("--workload", "figure_chain", "--kernels", "mcf",
                  "--max-cycles", "1000", "--trace", "0")
    check(p.returncode == 0 and r is not None and not r["correct"] and
          r["failed"] == r["attempted"] > 0,
          "tiny cycle budget: every cell is a counted failure")
    check("cell mcf/fig13.base: warmup_truncated" in p.stderr,
          "tiny cycle budget: stderr names the failed cell's status")

    for args, what in [(["--workload", "nosuch"], "unknown workload"),
                       (["--workload", "dense", "--kernels", "lbm,nosuch"],
                        "unknown kernel"),
                       (["--workload", "dense", "--seed", "12x"],
                        "malformed seed")]:
        p, _, _ = run(*args)
        err = p.stderr.strip().splitlines()
        check(p.returncode == 2 and len(err) == 1 and not p.stdout,
              what + ": one-line error and exit 2")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
