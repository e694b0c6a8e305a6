"""The standing result check: every standing config, one JSON record.

    python3 standing/check.py [--out RECORD.json] [--compare OLD.json]

This directory holds `studies/*.ini`, configs for `hpeig run`, and
`oracle/*.ini`, configs for `hpeig oracle-check`.  Each config runs in a
fresh process with OPENBLAS_NUM_THREADS=1 and PYTHONHASHSEED=0, on the
hpeig source next to this directory, in file-name order, and then
`hpeig verify-references` runs the same way.  A study's record keeps its
exit code, stderr, per-step n_dofs and every CSV column but the timed
`seconds`, as the CSV's text.  An oracle config, and verify-references
under `references`, keep their exit code, stdout and stderr.

--compare prints, per study and column, the rows that moved and the
largest relative move, and per oracle config and for verify-references
the output lines that changed; it exits 1 if anything moved.  Two runs
on one machine give byte-identical records, but other CPUs (OpenBLAS
kernels) and other thread counts give other digits, so compare records
made on one host.
"""

import argparse
import csv
import difflib
import glob
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _run(args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, cwd=HERE,
                          capture_output=True, text=True)


def _configs(root, kind):
    return sorted(glob.glob(os.path.join(root, kind, "*.ini")))


def make_record(root):
    """Run every config under root; the record as a dict."""
    record = {"studies": {}, "oracle": {}, "references": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for config in _configs(root, "studies"):
            name = os.path.basename(config)[:-4]
            out = os.path.join(tmp, name + ".csv")
            done = _run(["-m", "hpeig.cli", "run", "--config", config,
                         "--out", out])
            table = []
            if os.path.exists(out):
                with open(out, newline="") as fh:
                    table = list(csv.reader(fh))
            head, rows = (table[0], table[1:]) if table else ([], [])
            record["studies"][name] = {
                "exit": done.returncode, "stderr": done.stderr,
                "n_dofs": [int(row[head.index("dofs")]) for row in rows],
                "columns": {col: [row[i] for row in rows]
                            for i, col in enumerate(head) if col != "seconds"}}
    commands = [("oracle", os.path.basename(config)[:-4],
                  ["oracle-check", "--config", config])
                 for config in _configs(root, "oracle")]
    commands.append(("references", "verify-references", ["verify-references"]))
    for kind, name, args in commands:
        done = _run(["-m", "hpeig.cli", *args])
        record[kind][name] = {"exit": done.returncode, "stdout": done.stdout,
                              "stderr": done.stderr}
    return record


def dumps(obj, indent=""):
    """JSON with one line per list or string, so diffs read per column."""
    if not isinstance(obj, dict) or not obj:
        return json.dumps(obj)
    inner = indent + " "
    items = [f"{inner}{json.dumps(k)}: {dumps(v, inner)}"
             for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


def _relative_move(old, new):
    try:
        a, b = float(old), float(new)
    except ValueError:  # a blank cell appeared or went
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def _study_moves(a, b):
    moved = []
    if a["exit"] != b["exit"] or a["stderr"] != b["stderr"]:
        moved.append(f"  exit {a['exit']} -> {b['exit']}, stderr "
                     f"{a['stderr'].strip()!r} -> {b['stderr'].strip()!r}")
    if list(a["columns"]) != list(b["columns"]):
        moved.append(f"  columns {list(a['columns'])} -> "
                     f"{list(b['columns'])}")
    if len(a["n_dofs"]) != len(b["n_dofs"]):
        moved.append(f"  steps {len(a['n_dofs'])} -> {len(b['n_dofs'])}, "
                     f"final dofs {a['n_dofs'][-1:]} -> {b['n_dofs'][-1:]}")
    for col, old in a["columns"].items():
        pairs = list(zip(old, b["columns"].get(col, [])))
        steps = [k for k, (x, y) in enumerate(pairs) if x != y]
        if steps:
            worst = max(_relative_move(*pairs[k]) for k in steps)
            moved.append(f"  {col}: {len(steps)} of {len(pairs)} rows moved "
                         f"(first at step {steps[0]}), largest relative "
                         f"move {worst:.2g}")
    return moved


def _output_moves(a, b):
    moved = ([f"  exit {a['exit']} -> {b['exit']}"]
             if a["exit"] != b["exit"] else [])
    for key in ("stdout", "stderr"):
        diff = list(difflib.unified_diff(a[key].splitlines(),
                                         b[key].splitlines(), n=0,
                                         lineterm=""))[2:]  # past the headers
        moved += [f"  {key} {line}" for line in diff if line[:1] in "+-"]
    return moved


def compare(old, new):
    """Lines describing what moved from record old to record new."""
    lines = []
    for kind, moves in (("studies", _study_moves), ("oracle", _output_moves),
                        ("references", _output_moves)):
        a, b = old.get(kind, {}), new.get(kind, {})
        for name in sorted(set(a) | set(b)):
            if name not in a or name not in b:
                side = "new" if name in b else "old"
                lines.append(f"{kind} {name}: only in the {side} record")
            elif moved := moves(a[name], b[name]):
                lines += [f"{kind} {name}:", *moved]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record to this path")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="print what moved against this record")
    args = parser.parse_args(argv)
    old = None
    if args.compare:  # read first: --out may overwrite it
        with open(args.compare) as fh:
            old = json.load(fh)
    text = dumps(make_record(HERE)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if old is None:
        if not args.out:
            sys.stdout.write(text)
        return 0
    lines = compare(old, json.loads(text))
    print("\n".join(lines) if lines else "no moved row and no changed line")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
