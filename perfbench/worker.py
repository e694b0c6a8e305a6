"""One round of one workload in a fresh process; prints one JSON line.

Usage: worker.py WORKLOAD SEED SPAWN_T MODE, where SPAWN_T is the
parent's time.perf_counter() just before it started this process (the
clock is system-wide, so set-up time includes interpreter start) and
MODE is `setup` (stop when set-up ends), `round` or `trace` (a round
with spans around every layer).  hpeig is imported from the checkout's
`src`, never from an installed copy.
"""

import json
import os
import resource
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(HERE, "out")


def main(argv):
    name, seed, spawn_t, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path.insert(0, SRC)
    import hpeig

    if not os.path.abspath(hpeig.__file__).startswith(SRC + os.sep):
        print(f"hpeig imported from {hpeig.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        res = workloads.ROUNDS[name](name, seed, workdir,
                                     setup_only=mode == "setup")
    out = {"setup_s": res["t_solve"] - spawn_t}
    if mode != "setup":
        out.update(
            wall_s=res["t_end"] - res["t_solve"],
            time_to_tol_s=res.get("time_to_tol_s"),
            dofs_at_tol=res.get("dofs_at_tol"),
            ops=res["ops"], failed=res["failed"], problems=res["problems"],
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            out["layers"] = spans.per_layer(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
