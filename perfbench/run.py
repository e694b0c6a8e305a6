"""Benchmark for hpeig: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload oracle --seed 3 --seconds 20
    python3 perfbench/run.py --workload h_uniform --trace 1

Each round runs in a fresh Python process (`worker.py`) with BLAS held
to one thread, on `STREAMS` CPUs at once.  On each, a run first starts
`SETUP_PROBES` processes that stop when set-up ends, then runs whole
rounds until `--seconds` have passed.  It reports the median of every
metric over all rounds.  With `--trace 1` each stream alternates
untraced and traced rounds, and the run reports the per-layer metrics
of the traced ones plus the tracing overhead.  README.md describes the
workloads, the metrics and the checks.

The metric names and units come from BENCHMARK.json at the checkout
root.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import concurrent.futures
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(HERE, "out")

WORKLOADS = ["slit_adaptive", "h_uniform", "oracle", "references"]
# one study, one oracle-check per problem, one verify_references() call
OPS_PER_ROUND = {"slit_adaptive": 1, "h_uniform": 1, "oracle": 2,
                 "references": 1}
SETUP_PROBES = 1  # per stream
# One stream of rounds per CPU, at most two.  On the 2-vCPU machine this
# was tuned on, the vCPUs share a physical core: a lone round ran up to
# 45% faster while the host left the sibling idle, so lone rounds
# spread 23% and rounds on both CPUs 9%.
STREAMS = min(2, len(os.sched_getaffinity(0)))
RUN_LIMIT_S = 170.0  # a run, children included, ends well within 180 s

# OpenBLAS results differ in the last bits between thread counts, and
# one thread is both faster and steadier on this code than two
FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def spawn(name, seed, mode, deadline):
    """Run one worker; its JSON result, or None if it failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(FIXED_ENV, TMPDIR=SCRATCH)
    spawn_t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, name, str(seed), repr(spawn_t), mode],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - spawn_t))
    except subprocess.TimeoutExpired:
        print(f"{name}: {mode} process killed at the run limit",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: {mode} process exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def stream(name, seed, seconds, modes, probes, start, deadline):
    """One CPU's share of a run: set-up probes, then whole rounds.

    Rounds cycle through `modes` and stop once `seconds` have passed
    since `start` and every mode has run.
    """
    setups, rounds = [], []
    for _ in range(probes):
        probe = spawn(name, seed, "setup", deadline)
        if probe is not None:
            setups.append(probe["setup_s"])
    for count in itertools.count(1):
        mode = modes[(count - 1) % len(modes)]
        rounds.append((mode, spawn(name, seed, mode, deadline)))
        now = time.perf_counter()
        if now >= deadline or (now - start >= seconds
                               and count >= len(modes)):
            return setups, rounds


def measure(name, seed, seconds, trace):
    """Run whole rounds of one workload on every stream for `seconds`."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    os.makedirs(SCRATCH, exist_ok=True)
    modes = ["round", "trace"] if trace else ["round"]
    with concurrent.futures.ThreadPoolExecutor(STREAMS) as pool:
        futures = [pool.submit(stream, name, seed, seconds,
                               modes[i % len(modes):] + modes[:i % len(modes)],
                               0 if trace else SETUP_PROBES, start, deadline)
                   for i in range(STREAMS)]
        streams = [f.result() for f in futures]
    run = {"setups": [], "plain": [], "traced": [], "problems": [],
           "attempted": 0, "failed": 0}
    for setups, rounds in streams:
        run["setups"] += setups
        for mode, res in rounds:
            run["attempted"] += OPS_PER_ROUND[name]
            if res is None:
                run["failed"] += OPS_PER_ROUND[name]
                continue
            run["failed"] += res["failed"]
            run["problems"] += res["problems"]
            if res["failed"] == 0:
                run["traced" if mode == "trace" else "plain"].append(res)
    return run


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(run):
    rounds = run["plain"]
    out = {"setup_s": _median(run["setups"]
                              + [r["setup_s"] for r in rounds])}
    for key in ("wall_s", "time_to_tol_s", "dofs_at_tol", "peak_rss_mb"):
        out[key] = _median([r[key] for r in rounds])
    return out


def per_layer(run):
    traced = run["traced"]
    out = {key: _median([r["layers"][key] for r in traced])
           for key in (traced[0]["layers"] if traced else ())}
    plain_wall = _median([r["wall_s"] for r in run["plain"]])
    traced_wall = _median([r["wall_s"] for r in traced])
    out["trace.overhead_s"] = (None if None in (plain_wall, traced_wall)
                               else traced_wall - plain_wall)
    return out


def report(name, run, metrics, spec):
    """Print the table for one workload; return its JSON result."""
    out = {}
    for entry in spec:
        value = metrics.get(entry["name"])
        if value is not None:
            out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{name:14s} {entry['name']:28s} "
              f"{'missing' if value is None else f'{value:.6g}'} "
              f"{entry['unit']}")
    for problem in run["problems"]:
        print(f"{name}: INCORRECT {problem}", file=sys.stderr)
    print(f"{name:14s} operations: {run['attempted']} attempted, "
          f"{run['failed']} failed, {len(run['plain'])} untraced and "
          f"{len(run['traced'])} traced rounds")
    return {"correct": not run["problems"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": out}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hpeig", "__init__.py")):
        print(f"no hpeig sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, bool(args.trace))
        metrics = per_layer(run) if args.trace else end_to_end(run)
        results[name] = report(name, run, metrics, spec)
    complete = all(len(r["metrics"]) == len(spec) for r in results.values())
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] and complete else 1


if __name__ == "__main__":
    sys.exit(main())
