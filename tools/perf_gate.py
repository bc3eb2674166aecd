#!/usr/bin/env python3
"""Performance gate over the committed bench JSON baselines.

Dispatches on the file's "bench" field:

perf_seedbatch  (bench_perf --seed-batch)
    Gates the seed-batched lockstep executor:
     * "identical" — the batched pass reproduced every lane's scalar
       RunResult. Machine-independent, gated on every fresh row.
     * speedup — the median of k paired scalar/batched wall ratios, each
       taken from one round that times both arms back to back (bench_perf
       time_family). Both passes run on one thread of the same host, so
       the ratio measures deduplication (shared lockstep passes), not
       parallelism, and ports across machines: fault-free ("none") rows
       are held to the absolute --min-batch-speedup floor, and rows
       shared with the baseline fail on a >--max-regression drop (both
       sides clamped to --batch-regression-cap first: past that the
       replay tail has vanished and the ratio is timer noise over
       microseconds).

perf_schedbatch  (bench_perf --sched-batch)
    Identity on every fresh row, the --min-sched-speedup floor on rows the
    bench flags floor=true, shared == lanes on rows it flags full_share,
    and the clamped regression check on rows shared with the baseline
    (gate_schedbatch).

e16_byzantine  (bench_e16_byzantine)
    Byzantine-free cells complete and match the reliable run, completion
    rates under pinned adversary seeds match the baseline exactly, and the
    disabled adversary costs nothing (gate_e16).

The sharded engine and the advice service are not gated here:
perfbench/run.py compares every sharded trial with the serial engine
(--trace 1) and every service reply with a direct BatchRunner run, and
tests/test_sharded_engine.cpp and tests/test_service.cpp pin the same
identities plus the service's cache counts.

Usage:
    python3 tools/perf_gate.py --fresh BENCH_perf_seedbatch.fresh.json \
        --baseline BENCH_perf_seedbatch.json
"""

import argparse
import json
import sys

def load(path):
    with open(path) as fh:
        data = json.load(fh)
    if data.get("bench") not in ("perf_seedbatch", "perf_schedbatch",
                                 "e16_byzantine"):
        sys.exit(f"{path}: not a perf_gate-gated bench record "
                 f"(bench = {data.get('bench')!r})")
    return data


def gate_seedbatch(fresh_data, base_data, args):
    fresh = {(r["family"], r["n"], r["scheme"], r["mode"], r["rate"]): r
             for r in fresh_data["rows"]}
    base = {(r["family"], r["n"], r["scheme"], r["mode"], r["rate"]): r
            for r in base_data["rows"]}

    failures = []
    # Report identity is machine-independent: gate every fresh row, shared
    # with the baseline or not. A single non-identical lane means the
    # lockstep executor broke its determinism contract.
    for key, row in sorted(fresh.items()):
        family, n, scheme, mode, rate = key
        if not row.get("identical", False):
            failures.append(
                f"{family} n={n} {scheme} {mode}@{rate}: batched reports "
                f"NOT identical to the scalar engine")

    # The dedup ratio is also portable (same host, one thread on both sides
    # of each row), so the fault-free rows carry an absolute floor: a clean
    # R-lane family must run at least --min-batch-speedup times faster than
    # R scalar runs. Faulty rows have an honestly divergence-dependent
    # ratio, so they are only regression-gated against the baseline.
    print(f"{'row':>44} | {'base x':>8} | {'fresh x':>8} | gate")
    floor_rows = 0
    gated_rows = 0
    for key in sorted(fresh):
        family, n, scheme, mode, rate = key
        got = fresh[key]["speedup"]
        label = f"{family} n={n} {scheme} {mode}@{rate}"
        ref = base[key]["speedup"] if key in base else float("nan")
        verdicts = []
        if mode == "none":
            floor_rows += 1
            if got < args.min_batch_speedup:
                verdicts.append("FLOOR")
                failures.append(
                    f"{label}: speedup {got:.2f} below the "
                    f"{args.min_batch_speedup}x fault-free floor")
        if key in base:
            gated_rows += 1
            got_c = min(got, args.batch_regression_cap)
            ref_c = min(ref, args.batch_regression_cap)
            if got_c < ref_c * (1.0 - args.max_regression):
                verdicts.append("REGRESSED")
                failures.append(
                    f"{label}: speedup regressed {ref:.2f} -> {got:.2f} "
                    f"(> {args.max_regression:.0%} drop)")
        print(f"{label:>44} | {ref:8.2f} | {got:8.2f} "
              f"| {' '.join(verdicts) if verdicts else 'ok'}")

    if not failures:
        print(f"\nseed-batch gate passed: identity on {len(fresh)} fresh "
              f"rows, {args.min_batch_speedup}x floor on {floor_rows} "
              f"fault-free rows, regression on {gated_rows} shared rows")
    return failures


def gate_schedbatch(fresh_data, base_data, args):
    """Gates bench_perf --sched-batch (counter-keyed scheduler batching).

    Every row carries three machine-independent facts, and those are what
    gate:
     * "identical" — the batched pass reproduced every lane's scalar
       RunResult bit for bit (and, on full_share rows, shared the pass
       across ALL lanes while doing so). Gated on every fresh row.
     * rows flagged floor=true by the bench (fault-free counter-keyed
       families whose delivery order provably agrees across lanes) must
       show at least --min-sched-speedup — the whole point of making the
       seed a lane axis.
     * rows flagged full_share=true must report shared == lanes: every
       lane rode one lockstep pass to completion.
    Rows shared with the committed baseline are additionally
    regression-gated on the (portable, same-host-both-sides) speedup
    ratio, clamped like perf_seedbatch.
    """
    def key(r):
        return (r["family"], r["n"], r["scheme"], r["scheduler"],
                r["axis"], r["mode"], r["rate"])

    fresh = {key(r): r for r in fresh_data["rows"]}
    base = {key(r): r for r in base_data["rows"]}

    failures = []
    print(f"{'row':>56} | {'base x':>8} | {'fresh x':>8} | gate")
    floor_rows = 0
    share_rows = 0
    gated_rows = 0
    for k in sorted(fresh):
        family, n, scheme, scheduler, axis, mode, rate = k
        row = fresh[k]
        got = row["speedup"]
        ref = base[k]["speedup"] if k in base else float("nan")
        label = (f"{family} n={n} {scheme} {scheduler} "
                 f"{axis} {mode}@{rate}")
        verdicts = []
        if not row.get("identical", False):
            verdicts.append("IDENTITY")
            failures.append(
                f"{label}: batched reports NOT identical to the scalar "
                f"engine")
        if row.get("floor", False):
            floor_rows += 1
            if got < args.min_sched_speedup:
                verdicts.append("FLOOR")
                failures.append(
                    f"{label}: speedup {got:.2f} below the "
                    f"{args.min_sched_speedup}x fault-free counter-keyed "
                    f"floor")
        if row.get("full_share", False):
            share_rows += 1
            if row["shared"] != row["lanes"]:
                verdicts.append("SHARE")
                failures.append(
                    f"{label}: shared {row['shared']} != lanes "
                    f"{row['lanes']} — a lane fell off the lockstep pass")
        if k in base:
            gated_rows += 1
            got_c = min(got, args.batch_regression_cap)
            ref_c = min(ref, args.batch_regression_cap)
            if got_c < ref_c * (1.0 - args.max_regression):
                verdicts.append("REGRESSED")
                failures.append(
                    f"{label}: speedup regressed {ref:.2f} -> {got:.2f} "
                    f"(> {args.max_regression:.0%} drop)")
        print(f"{label:>56} | {ref:8.2f} | {got:8.2f} "
              f"| {' '.join(verdicts) if verdicts else 'ok'}")

    if not failures:
        print(f"\nsched-batch gate passed: identity on {len(fresh)} fresh "
              f"rows, {args.min_sched_speedup}x floor on {floor_rows} rows, "
              f"full sharing on {share_rows} rows, regression on "
              f"{gated_rows} shared rows")
    return failures


def gate_e16(fresh_data, base_data, args):
    """Gates the Byzantine sweep (bench_e16_byzantine).

    Everything here is machine-independent: the sweep runs under the
    synchronous scheduler with pinned adversary seeds, so completion rates
    are exact integers over trials, not measurements.
     * every fresh byz_fraction-0 record must complete at 1.0 AND be
       field-for-field identical to the untouched-options reliable run —
       the disabled adversary plan is invisible;
     * rows shared with the committed baseline must agree on
       completion_rate exactly (a drift means the counter-keyed adversary
       or an algorithm changed under a pinned seed);
     * the neutrality ratio (zeroed-params reliable matrix over
       untouched-options wall time) must stay under --max-neutrality;
     * the sweep must still exhibit at least one advice-buyback row and the
       adversarial scheduler must not cost completion.
    """
    failures = []
    for row in fresh_data["records"]:
        label = (f"{row['family']} n={row['n']} {row['scheme']} "
                 f"{row['strategy']}@{row['byz_fraction']}")
        if row["byz_fraction"] == 0:
            if row["completion_rate"] != 1.0:
                failures.append(
                    f"{label}: byz-0 completion_rate "
                    f"{row['completion_rate']} != 1.0")
            if not row.get("identical", False):
                failures.append(
                    f"{label}: byz-0 run NOT identical to the "
                    f"untouched-options reliable run")

    fresh = {(r["family"], r["n"], r["scheme"], r["strategy"],
              r["byz_fraction"]): r for r in fresh_data["records"]}
    base = {(r["family"], r["n"], r["scheme"], r["strategy"],
             r["byz_fraction"]): r for r in base_data["records"]}
    shared = sorted(set(fresh) & set(base))
    drifted = 0
    for key in shared:
        got = fresh[key]["completion_rate"]
        ref = base[key]["completion_rate"]
        if got != ref:
            drifted += 1
            family, n, scheme, strategy, fraction = key
            failures.append(
                f"{family} n={n} {scheme} {strategy}@{fraction}: "
                f"completion_rate drifted {ref} -> {got} under a pinned "
                f"adversary seed")

    ratio = fresh_data["neutrality"]["ratio"]
    if ratio > args.max_neutrality:
        failures.append(
            f"neutrality ratio {ratio:.3f} above {args.max_neutrality} — "
            f"the disabled adversary branch is no longer free")
    if not fresh_data["buyback"]:
        failures.append(
            "no buyback rows: no bits-richer oracle restores completion "
            "over a bits-poorer one anywhere in the sweep")
    for row in fresh_data["scheduler_records"]:
        if not (row["adversarial_ok"] and row["random_ok"]):
            failures.append(
                f"{row['family']} n={row['n']} {row['scheme']}: run under "
                f"the adversarial/random scheduler did not complete")

    if not failures:
        print(f"e16 gate passed: {len(fresh)} fresh records "
              f"(byz-0 identity, exact completion on {len(shared)} shared "
              f"rows, neutrality {ratio:.3f} <= {args.max_neutrality}, "
              f"{len(fresh_data['buyback'])} buyback rows)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True,
                    help="JSON from the run just measured")
    ap.add_argument("--baseline", required=True,
                    help="committed reference JSON")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="largest tolerated fractional speedup drop vs "
                         "baseline (default 0.15)")
    ap.add_argument("--min-batch-speedup", type=float, default=10.0,
                    help="absolute scalar/batched speedup floor on "
                         "fault-free rows (perf_seedbatch only)")
    ap.add_argument("--batch-regression-cap", type=float, default=64.0,
                    help="seed-batch speedups are clamped to this before "
                         "the regression comparison: past it the batched "
                         "side is a few microseconds and the ratio is "
                         "timer noise (perf_seedbatch only)")
    ap.add_argument("--min-sched-speedup", type=float, default=8.0,
                    help="absolute scalar/batched speedup floor on rows the "
                         "bench flags floor=true — fault-free counter-keyed "
                         "families (perf_schedbatch only)")
    ap.add_argument("--max-neutrality", type=float, default=1.30,
                    help="largest tolerated zeroed-params/untouched-options "
                         "wall-time ratio on the reliable matrix "
                         "(e16_byzantine only; the matrix runs in "
                         "microseconds, so the bound is loose)")
    args = ap.parse_args()

    fresh_data = load(args.fresh)
    base_data = load(args.baseline)
    if fresh_data["bench"] != base_data["bench"]:
        sys.exit(f"bench kind mismatch: fresh is {fresh_data['bench']}, "
                 f"baseline is {base_data['bench']}")

    if fresh_data["bench"] == "perf_seedbatch":
        failures = gate_seedbatch(fresh_data, base_data, args)
    elif fresh_data["bench"] == "perf_schedbatch":
        failures = gate_schedbatch(fresh_data, base_data, args)
    else:  # e16_byzantine
        failures = gate_e16(fresh_data, base_data, args)

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
