#!/usr/bin/env python3
"""Line-coverage gate over gcov's JSON intermediate format.

Walks a --coverage build tree for .gcno note files, runs `gcov
--json-format --stdout` on each, and aggregates executed-line counts per
source file (taking the max count per line across translation units, so
headers included from many TUs are not double-counted). Prints a per-file
table for the gated paths and fails if their combined line coverage drops
below the floor.

Needs only gcov and the build tree — no gcovr/lcov. Usage:

    python3 tools/coverage_gate.py --build-dir build-cov \
        --source-root . --min 90 --paths src/sim src/core
"""

import argparse
import json
import os
import subprocess
import sys


def collect(build_dir, gcov):
    """file path (absolute) -> {line number -> max execution count}."""
    lines_by_file = {}
    notes = []
    for root, _dirs, files in os.walk(build_dir):
        # CMake's compiler probes leave .gcno files with no backing source.
        if "CompilerId" in root or "CMakeTmp" in root:
            continue
        notes.extend(os.path.abspath(os.path.join(root, f)) for f in files
                     if f.endswith(".gcno"))
    if not notes:
        sys.exit(f"no .gcno files under {build_dir}; "
                 "build with --coverage first")
    for note in sorted(notes):
        proc = subprocess.run(
            [gcov, "--json-format", "--stdout", note],
            cwd=os.path.dirname(note), capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"gcov failed on {note}: {proc.stderr.strip()}")
        for doc in proc.stdout.splitlines():
            if not doc.strip():
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", "")
            for f in data.get("files", []):
                path = f["file"]
                if not os.path.isabs(path):
                    path = os.path.normpath(os.path.join(cwd, path))
                per_line = lines_by_file.setdefault(path, {})
                for line in f.get("lines", []):
                    n = line["line_number"]
                    per_line[n] = max(per_line.get(n, 0), line["count"])
    return lines_by_file


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--source-root", default=".")
    ap.add_argument("--min", type=float, required=True,
                    help="combined line-coverage floor, percent")
    ap.add_argument("--paths", nargs="+", required=True,
                    help="source-root-relative directories to gate")
    ap.add_argument("--gcov", default=os.environ.get("GCOV", "gcov"))
    args = ap.parse_args()

    root = os.path.realpath(args.source_root)
    gates = [os.path.join(root, p) + os.sep for p in args.paths]
    lines_by_file = collect(args.build_dir, args.gcov)

    rows = []
    total = hit = 0
    for path in sorted(lines_by_file):
        real = os.path.realpath(path)
        if not any(real.startswith(g) for g in gates):
            continue
        per_line = lines_by_file[path]
        n = len(per_line)
        if n == 0:
            continue  # gcov lists files with no executable lines, e.g. headers
        h = sum(1 for c in per_line.values() if c > 0)
        total += n
        hit += h
        rows.append((os.path.relpath(real, root), h, n))

    if total == 0:
        sys.exit("no instrumented lines matched "
                 f"{args.paths}; wrong --source-root?")

    width = max(len(r[0]) for r in rows)
    for name, h, n in rows:
        print(f"{name:<{width}}  {h:>5}/{n:<5}  {100.0 * h / n:6.2f}%")
    pct = 100.0 * hit / total
    print(f"{'TOTAL':<{width}}  {hit:>5}/{total:<5}  {pct:6.2f}%")

    if pct < args.min:
        sys.exit(f"FAIL: line coverage {pct:.2f}% is below the "
                 f"{args.min:.2f}% floor for {' '.join(args.paths)}")
    print(f"OK: {pct:.2f}% >= {args.min:.2f}% floor")


if __name__ == "__main__":
    main()
