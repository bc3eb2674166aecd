#!/usr/bin/env python3
"""Build and run the oraclesize end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick            # every workload at toy size
    python3 perfbench/run.py ... --record       # store this seed's digest

Run from the repository root. The script builds perfbench/ (the library
sources in src/ plus perfbench.cpp) into .bench_build/perfbench, runs the
binary, writes the full result with its provenance to .perfbench-out/, and
prints one JSON line last: correct, attempted, failed and the metrics of
the mode (end-to-end with --trace 0, per-layer with --trace 1), each with
its unit from BENCHMARK.json. It exits non-zero when any output check
fails, including a digest that differs from the one recorded in
perfbench/digests.json for this workload and seed.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
TIME_LIMIT_S = 170
# Per-layer counters of failures, retries and fallbacks: 0 on a clean run.
FAILURE_COUNTERS = (".failed", ".retries", ".fell_back", ".rejected")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def source_digest():
    """sha256 over the benchmark's and the library's sources: the build's
    identity when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".h", ".txt", ".py"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def provenance(seed, result):
    commit = "none"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "build_type": result.get("build_type"),
        "compiler": result.get("compiler"),
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": seed,
    }


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def digest_key(workload, seed, quick):
    return f"{'quick/' if quick else ''}{workload}/{seed}"


def run_binary(binary, workload, seed, seconds, trace, quick, digests,
               deadline):
    """Runs one workload; returns the binary's result object."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd += ["--spans", str(OUT / f"{stem}.spans.json")]
    expected = digests.get(digest_key(workload, seed, quick))
    if expected:
        cmd += ["--expect-digest", expected]
    steal0, total0 = cpu_ticks()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload}: benchmark did not finish in time")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: benchmark printed nothing "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    steal1, total1 = cpu_ticks()
    # Share of CPU time the hypervisor gave to other guests during the run:
    # the main source of run-to-run spread on a shared host.
    result["host_steal_share"] = ((steal1 - steal0) / (total1 - total0)
                                  if total1 > total0 else 0.0)
    result["expected_digest"] = expected
    result["stem"] = stem
    return result


def matches(name, prefixes):
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def check_metrics(result, units):
    """Returns the metrics of the mode with their units, and the problems
    found. Every metric must be printed and non-zero, except the per-layer
    metrics the workload declares 0 by design (zero_by_design: the layers it
    bypasses), which must read 0 and are filled in when not printed, and
    the per-layer failure counters, which a clean run reads as 0."""
    values = result["metrics"]
    zero = result.get("zero_by_design", [])
    metrics, problems = {}, []
    for name, unit in units.items():
        value = values.get(name)
        if matches(name, zero):
            value = value or 0
            if value != 0:
                problems.append(f"{name} is 0 by design but reads {value}")
        elif value is None:
            problems.append(f"{name} is missing")
            continue
        elif value == 0 and not name.endswith(FAILURE_COUNTERS):
            problems.append(f"{name} reads 0")
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(values) - set(units))
    if extra:
        problems.append(f"unexpected metrics {extra}")
    return metrics, problems


def report(result, units, seed):
    """Writes the full result file and returns the contract line."""
    metrics, problems = check_metrics(result, units)
    full = dict(result)
    full["provenance"] = provenance(seed, result)
    full["metric_problems"] = problems
    (OUT / f"{result['stem']}.json").write_text(json.dumps(full, indent=2) + "\n")
    log("provenance " + json.dumps(full["provenance"]))
    for problem in problems:
        log("FAIL metric " + problem)
    line = {"correct": bool(result["correct"]) and not problems,
            "attempted": max(1, int(result["attempted"])),
            "failed": int(result["failed"]),
            "metrics": metrics}
    return line


def quick(binary, digests, end_to_end, per_layer, workloads, seed, record):
    """Every workload at toy size in both modes; every named metric must be
    printed with its unit, non-zero unless its workload reads it as 0 by
    design (check_metrics), and every output check must pass."""
    ok = True
    recorded = {}
    for workload in workloads:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            deadline = time.time() + 120
            result = run_binary(binary, workload, seed, 1, trace, True,
                                digests, deadline)
            line = report(result, units, seed)
            good = line["correct"] and all(
                isinstance(m["value"], (int, float)) and m["unit"]
                for m in line["metrics"].values()) and len(
                    line["metrics"]) == len(units)
            ok = ok and good
            recorded[digest_key(workload, seed, True)] = result["digest"]
            log(f"quick {workload} trace={trace}: "
                f"{'ok' if good else 'FAILED'} ({len(line['metrics'])} "
                f"metrics, {line['attempted']} ops, {line['failed']} failed)")
    if record and ok:
        digests.update(recorded)
        write_digests(digests)
    print(json.dumps({"quick": "ok" if ok else "failed"}))
    return 0 if ok else 1


def write_digests(digests):
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    log(f"recorded digests in {DIGESTS.relative_to(ROOT)}")


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-test: every workload at toy size, both modes")
    ap.add_argument("--record", action="store_true",
                    help="store this run's digest in the digests file")
    ap.add_argument("--digests", default=str(DIGESTS),
                    help="recorded digests to check against")
    args = ap.parse_args()

    end_to_end, per_layer, workloads = load_metric_specs()
    binary = build()
    digests_path = Path(args.digests)
    digests = (json.loads(digests_path.read_text())
               if digests_path.exists() else {})
    if args.quick:
        return quick(binary, digests, end_to_end, per_layer, workloads,
                     args.seed, args.record)
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads)}")

    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, False, digests, start + TIME_LIMIT_S)
    line = report(result, per_layer if args.trace else end_to_end, args.seed)
    if args.record and line["correct"]:
        digests[digest_key(args.workload, args.seed, False)] = result["digest"]
        write_digests(digests)
    for err in result.get("errors", []):
        log("FAIL " + err)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
