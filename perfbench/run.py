#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/mcrbench.exe and runs a workload.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A/A steadiness check of the same build (see perfbench/README.md):

    python3 perfbench/run.py --aa RUNS [--workload NAME ...] [--seconds S]

A run derives STREAMS sub-seeds from --seed and runs one fresh process per
sub-seed, then keeps re-running them, in fresh processes, until --seconds
have passed. Virtual-clock metrics and allocation counts are deterministic
per sub-seed: they are the mean over the sub-seeds' streams, and every
re-run must reproduce them exactly. Host CPU times are the median over all
processes, scaled to the machine's speed during the run (see CAL_REF_S).
With --trace 1 each process is paired with a traced one on the same
sub-seed, and the per-layer metrics are printed instead.

The last line of standard output is the result JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "mcrbench.exe")
WORK = os.path.join(ROOT, ".perfbench")

# Sub-seeded streams per run: averaging five streams is what makes the client
# percentiles and the pause steady from one --seed to the next. (A median of
# five would often land on the same stream value, e.g. vsftpd's most common
# downtime, and read exactly the same in every run.)
STREAMS = 5

# Host CPU times move from process to process; every other end-to-end metric
# must repeat exactly for one sub-seed.
HOST_TIMES = ("setup_s", "host_cpu_s")

# Host CPU times are reported in calibrated seconds: measured CPU seconds
# times CAL_REF_S over the run's median time for `mcrbench.exe calibrate`, a
# fixed loop that uses none of the libraries, timed in its own process
# before every workload process. This machine's speed drifts by +-20% over a
# minute or two (other tenants); the calibration follows the drift (run
# medians correlate at 0.96) and dividing by it cuts the run-to-run spread
# of host_cpu_s from about 12% to under 3%. A change to the libraries moves
# the workload but not the calibration, so it still shows in full.
CAL_REF_S = 0.3

PROC_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/mcrbench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except FileNotFoundError:
        raise BenchError("dune not found")
    if r.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build of perfbench/mcrbench.exe failed")


def sub_seeds(seed):
    return [seed * STREAMS + i for i in range(STREAMS)]


def run_proc(workload, sub, trace):
    """One workload run in a fresh process; returns (result dict, stdout)."""
    cmd = [EXE, workload, str(sub), "--work-dir", WORK]
    if trace:
        cmd += ["--trace", os.path.join(WORK, "trace-%s-%d.json" % (workload, sub))]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROC_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        raise BenchError("%s exited with %d" % (" ".join(cmd[1:3]), r.returncode))
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def calibrate():
    r = subprocess.run([EXE, "calibrate"], cwd=ROOT, capture_output=True, text=True,
                       timeout=PROC_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("mcrbench.exe calibrate exited with %d" % r.returncode)
    return json.loads(r.stdout)["calibrate_s"]


def deterministic_part(out):
    e2e = {k: v for k, v in out["e2e"].items() if k not in HOST_TIMES}
    return (e2e, out["counts"], out["failed_checks"], out["requests"], out["beyond_p99"])


def median_of(outs, get):
    return statistics.median(get(o) for o in outs)


def mean_of(outs, get):
    return statistics.fmean(get(o) for o in outs)


def run(spec, workload, seed, seconds, trace, quiet=False):
    say = (lambda *a: None) if quiet else print
    os.makedirs(WORK, exist_ok=True)
    subs = sub_seeds(seed)
    first = {}  # sub-seed -> untraced result of its first process
    untraced, traced, cals = [], [], []
    problems = []
    table = ""
    t0 = time.monotonic()
    i = 0
    while i < (1 if trace else STREAMS) or time.monotonic() - t0 < seconds:
        sub = subs[i % STREAMS]
        cals.append(calibrate())
        out, _ = run_proc(workload, sub, trace=False)
        untraced.append(out)
        if sub not in first:
            first[sub] = out
        elif deterministic_part(out) != deterministic_part(first[sub]):
            problems.append("sub-seed %d did not repeat its virtual-clock results" % sub)
        if trace:
            cals.append(calibrate())
            tout, table = run_proc(workload, sub, trace=True)
            traced.append(tout)
            # Tracing charges no virtual time: only the allocation counts may move.
            skip = ("host_alloc_mwords", "host_peak_heap_mb")
            same = all(
                tout["e2e"][k] == out["e2e"][k] for k in out["e2e"] if k not in HOST_TIMES + skip
            ) and tout["counts"] == out["counts"]
            if not same:
                problems.append("tracing changed the virtual-clock results of sub-seed %d" % sub)
        i += 1

    for o in untraced + traced:
        for c in o["failed_checks"]:
            problems.append("check failed: %s" % c)
    attempted = sum(o["attempted"] for o in untraced + traced)
    failed = sum(o["failed"] for o in untraced + traced)
    streams = list(first.values())
    scale = CAL_REF_S / statistics.median(cals)

    e2e = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in HOST_TIMES:
            e2e[name] = scale * median_of(untraced, lambda o: o["e2e"][name])
        else:
            e2e[name] = mean_of(streams, lambda o: o["e2e"][name])

    say("workload %s, seed %d: %d process(es), %d stream(s) of %d requests, sub-seeds %s"
        % (workload, seed, len(untraced) + len(traced), len(streams), streams[0]["requests"],
           subs[: len(streams)]))
    say("client latency per stream: n=%s, p50 %s ms, p99 %s ms (%s samples beyond), max %s ms"
        % (streams[0]["requests"],
           [round(o["e2e"]["client_p50_ms"], 4) for o in streams],
           [round(o["e2e"]["client_p99_ms"], 4) for o in streams],
           [o["beyond_p99"] for o in streams],
           [round(o["max_ms"], 4) for o in streams]))
    say("calibration: median %.4f s over %d process(es); host CPU times are scaled by %.4f "
        "(raw medians: setup_s %.6f s, host_cpu_s %.6f s)"
        % (statistics.median(cals), len(cals), scale,
           median_of(untraced, lambda o: o["e2e"]["setup_s"]),
           median_of(untraced, lambda o: o["e2e"]["host_cpu_s"])))
    for m in spec["end_to_end"]:
        say("  %-20s %14.6f %s" % (m["name"], e2e[m["name"]], m["unit"]))

    if trace:
        layers = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "bench.trace_overhead_s":
                continue
            # Host spans move from process to process; counts are per stream.
            if name in traced[0]["layers"]:
                layer_scale = scale if m["unit"] == "s" else 1.0
                layers[name] = layer_scale * median_of(traced, lambda o: o["layers"][name])
            else:
                layers[name] = mean_of(traced, lambda o: o["counts"][name])
        overhead = scale * (median_of(traced, lambda o: o["e2e"]["host_cpu_s"]) - median_of(
            untraced, lambda o: o["e2e"]["host_cpu_s"]))
        layers["bench.trace_overhead_s"] = overhead
        say("self time per span, last traced process (Chrome trace JSON in %s):" % WORK)
        say(table)
        residues = [o["counts"]["flight.unattributed_ms"] for o in traced]
        segments = sum(layers[m["name"]] for m in spec["per_layer"]
                       if m["name"].startswith("flight.") and m["name"] != "flight.unattributed_ms")
        if segments == 0:
            say("flight segments: no update in this workload; pause_ms is the snapshot pauses")
        else:
            say("flight segments: %.6f ms + unattributed %.6f ms = pause_ms %.6f ms (mean of %d "
                "traced stream(s)); exact in %d of them%s"
                % (segments, layers["flight.unattributed_ms"],
                   mean_of(traced, lambda o: o["e2e"]["pause_ms"]), len(traced),
                   sum(1 for r in residues if r == 0),
                   "" if not any(residues) else
                   ", largest residue %.6f ms" % max(residues, key=abs)))
        say("tracing overhead: traced - untraced host_cpu_s = %.4f s (median %d traced, %d untraced)"
            % (overhead, len(traced), len(untraced)))
        for m in spec["per_layer"]:
            say("  %-30s %16.6f %s" % (m["name"], layers[m["name"]], m["unit"]))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    for p in sorted(set(problems)):
        say("!! " + p)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return q, (q[2] - q[0]) / statistics.median(values)


def aa(spec, workloads, runs, seconds):
    """Two halves of RUNS runs each, alternating which half goes first, on
    distinct seeds; reports what the acceptance rule looks at."""
    ok = True
    for w in workloads:
        halves = {"A": [], "B": []}
        for i in range(runs):
            for half in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = 2 * i + (1 if half == "A" else 2)
                r = run(spec, w, seed, seconds, trace=False, quiet=True)
                if not r["correct"]:
                    ok = False
                    print("!! %s seed %d: incorrect run" % (w, seed))
                halves[half].append(r)
                print("  %s %s seed %d: %s" % (w, half, seed, " ".join(
                    "%s=%.5g" % (k, v["value"]) for k, v in r["metrics"].items())), flush=True)
        print("\n== A/A %s: %d runs per half, %ss each" % (w, runs, seconds))
        print("%-18s %28s %28s %7s %7s %7s %6s  %s" % (
            "metric", "A median [q1, q3]", "B median [q1, q3]", "sprdA", "sprdB", "gap",
            "bound", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in halves["A"]]
            b = [r["metrics"][name]["value"] for r in halves["B"]]
            (qa, sa), (qb, sb) = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            gated = name != "setup_s"  # set-up time is gated on its median only
            if worse > bound or (gated and max(sa, sb) > bound):
                verdict = "UNSTEADY"
                ok = False
            elif gated and max(sa, sb) > bound / 3:
                verdict = "within bound"
            else:
                verdict = "steady"
            print("%-18s %10.5g [%7.5g, %7.5g] %10.5g [%7.5g, %7.5g] %7.4f %7.4f %+7.4f %6.3f  %s"
                  % (name, ma, qa[0], qa[2], mb, qb[0], qb[2], sa, sb, worse, bound, verdict))
        print(flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--aa", type=int, metavar="RUNS",
                    help="A/A mode: RUNS runs per half on every (or each given) workload")
    args = ap.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for w in args.workload or []:
            if w not in names:
                raise BenchError("unknown workload %r (have %s)" % (w, ", ".join(names)))
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        build()
        if args.aa is not None:
            sys.exit(0 if aa(spec, args.workload or names, max(2, args.aa), seconds) else 1)
        if not args.workload or len(args.workload) != 1:
            raise BenchError("give exactly one --workload")
        result = run(spec, args.workload[0], args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
