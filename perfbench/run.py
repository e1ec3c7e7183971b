#!/usr/bin/env python3
"""The simulator's benchmark: builds perfbench from this checkout and runs it.

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload fig7_grid --seed 1000 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test                      # smoke-size checks

Each workload runs in a process of its own. --trace 0 measures the end-to-end
metrics with tracing off; --trace 1 runs the traced pass and the layer probes
and reports the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where "metrics" holds the
end-to-end (or, with --trace 1, per-layer) metrics named in BENCHMARK.json.
Every other metric is printed above it, by name and unit. A run in which any
simulated world fails its correctness gate prints correct=false and exits 1.

The build goes to .bench_build at the root of the checkout (or to
$CARGO_TARGET_DIR when set), in Release mode.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
DEFAULT_SECONDS = 35
# Simulated seconds per world for the self-test: long enough for traffic
# (starts at 5 s) and for the first Fig 8 target (30 s to 55 s).
SMOKE_SIM_TIME = {"fig7_grid": 20, "sparse_scale": 6.5, "fig8_field": 60}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then (re)build; compiler output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(BINARY)


def run_binary(workload, seed, seconds, traced, sim_time=None):
    """Runs one workload in its own process. Returns (stdout lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--mode", "traced" if traced else "untraced"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if sim_time is not None:
        cmd += ["--sim-time", str(sim_time)]
    if traced:
        trace_dir = os.path.join(BUILD, "trace-files")
        spans = os.path.join(BUILD, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace-dir", trace_dir,
                "--spans", os.path.join(spans, "%s-%s.json" % (workload, "default" if seed is None else seed))]
    # The binary clears inherited ICC_* knobs itself; dropping them here too
    # keeps them out of anything it might spawn.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ICC_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return [], None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, done.returncode))
        return lines, None
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        log("perfbench: %s printed no result line" % workload)
        return lines, None


def summary_lines(result):
    out = ["%s (%s, seed %s): correct=%s attempted=%d failed=%d" % (
        result["workload"], result["mode"], result["seed"], result["correct"],
        result["attempted"], result["failed"])]
    for failure in result["failures"]:
        out.append("  FAILED %s" % failure)
    for name, m in result["metrics"].items():
        out.append("  %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    out.append("  meta: %s" % json.dumps(result["meta"], sort_keys=True))
    return out


def contract_line(result, names):
    """The result line: only the metrics BENCHMARK.json names."""
    metrics = {}
    for spec in names:
        m = result["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            log("perfbench: metric %s [%s] missing from %s" % (
                spec["name"], spec["unit"], result["workload"]))
            return None
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]), "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(args, spec):
    if not build():
        log("perfbench: build failed")
        return 1
    traced = args.trace == 1
    lines, result = run_binary(args.workload, args.seed, args.seconds, traced)
    for line in lines:
        print(line)
    if result is None:
        return 1
    for line in summary_lines(result):
        print(line)
    line = contract_line(result, spec["per_layer" if traced else "end_to_end"])
    if line is None:
        return 1
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args, spec):
    if not build():
        log("perfbench: build failed")
        return 1
    status = 0
    for w in spec["workloads"]:
        for traced in (False, True):
            _, result = run_binary(w["name"], args.seed, args.seconds, traced)
            if result is None:
                status = 1
                continue
            for line in summary_lines(result):
                print(line)
            if not result["correct"]:
                status = 1
    return status


def self_test(spec):
    """Smoke-size checks: every metric is emitted with its unit, the gate
    trips on worlds that end before any traffic or sensing, and two runs with
    the same seed print identical signatures."""
    if not build():
        log("perfbench: build failed")
        return 1
    failures = []

    def check(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    outcome = {"fig7_grid": ["events_per_s", "delivery_ratio"],
               "sparse_scale": ["events_per_s", "delivery_ratio"],
               "fig8_field": ["detection_ratio", "false_alarm_prob"]}
    profile = ["sim.mac.busy_s", "aodv.timer.busy_s", "core.timer.busy_s", "traffic.busy_s",
               "sim.mobility.busy_s", "sim.sched.self_s"]
    for w in spec["workloads"]:
        name = w["name"]
        smoke = SMOKE_SIM_TIME[name]
        sigs, plain = run_binary(name, 7, 1, False, smoke)
        check(plain is not None and plain["correct"], "%s untraced smoke run is correct" % name)
        if plain is not None:
            check(contract_line(plain, spec["end_to_end"]) is not None
                  and all(k in plain["metrics"] for k in outcome[name] + ["failed_frac"]),
                  "%s emits every end-to-end metric with its unit" % name)
        again, _ = run_binary(name, 7, 1, False, smoke)
        check(sigs and [l for l in sigs if l.startswith("signature")] ==
              [l for l in again if l.startswith("signature")],
              "%s prints identical signatures for the same seed" % name)
        _, traced = run_binary(name, 7, 1, True, smoke)
        check(traced is not None and traced["correct"],
              "%s traced signatures equal untraced ones" % name)
        if traced is not None:
            wanted = profile if name != "fig8_field" else []
            check(contract_line(traced, spec["per_layer"]) is not None
                  and all(k in traced["metrics"] for k in wanted),
                  "%s emits every per-layer metric with its unit" % name)
    # Simulated time that ends before traffic_start (5 s) or the first
    # sensing epoch: every such world must fail the gate.
    for name, reason in (("fig7_grid", "sent zero CBR packets"),
                         ("sparse_scale", "executed zero events"),
                         ("fig8_field", "completed zero sensing epochs")):
        _, result = run_binary(name, 7, 1, False, 0.001 if name == "fig8_field" else 3)
        check(result is not None and not result["correct"]
              and result["failed"] == result["attempted"]
              and any(reason in f for f in result["failures"]),
              "%s gate trips on a world that ends before any work (%s)" % (name, reason))
    print("self-test: %s" % ("OK" if not failures else "%d FAILED" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %s" % args.workload)
        return 1
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
