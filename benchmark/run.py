#!/usr/bin/env python3
"""The repository benchmark: builds fortress_bench and runs the campaign workloads.

  python3 benchmark/run.py [--trace] [--seed N] [--seconds S]
      every workload, each in its own process; prints every metric with its
      unit and writes benchmark/out/results.json
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      one run of one workload; the last stdout line is one JSON object with
      the keys correct, attempted, failed and metrics (end-to-end metrics
      with --trace 0, per-layer metrics with --trace 1)
  python3 benchmark/run.py --capture-pins      rewrite benchmark/pins.json
  python3 benchmark/run.py --selftest          traced-replay guard
  python3 benchmark/run.py --compare A.json B.json
      per (metric, workload): medians, spreads and a verdict

Metric names, units, directions and bounds come from BENCHMARK.json at the
root of the repository. The exit code is non-zero when any cell's digest
disagrees with its reference (failed_frac > 0).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BIN = os.path.join(BUILD, "fortress_bench")
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = os.path.join(HERE, "workloads")

# A single run must finish within 180 s, build excluded.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- statistics -------------------------------------------------------------


def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4) and count of `values`."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def rel_spread(values):
    """Interquartile distance as a share of the median."""
    s = summarize(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(parent, change, better, bound):
    """Verdict of `change` against `parent` for one (metric, workload).

    'better' needs at least ten pairs, wins (ties count for neither) in
    nine tenths of them and a median difference beyond the parent's
    interquartile distance. 'worse' means the change's median is worse than
    the parent's by more than `bound` (a share of the parent's median).
    When either side's spread is wider than the bound, no regression can be
    ruled out and the answer is 'unresolved', unless every change sample
    beats every parent sample ('same') or loses to every one while the
    medians differ by more than the bound ('worse').
    """
    sign = 1.0 if better == "higher" else -1.0

    def beats(x, y):
        return sign * (x - y) > 0

    mp, mc = statistics.median(parent), statistics.median(change)
    loss = sign * (mp - mc) / abs(mp) if mp else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    sp = summarize(parent)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(mc - mp) > sp["q3"] - sp["q1"]):
        return "better"
    if max(rel_spread(parent), rel_spread(change)) > bound:
        if all(beats(c, p) for c in change for p in parent):
            return "same"
        if all(beats(p, c) for c in change for p in parent) and loss > bound:
            return "worse"
        return "unresolved"
    if loss > bound:
        return "worse"
    return "same"


def count_failed(rep_digests, reference):
    """Cells, over all reps, whose digest differs from the reference."""
    failed = 0
    for digests in rep_digests:
        if len(digests) != len(reference):
            failed += len(reference)
            continue
        failed += sum(1 for got, want in zip(digests, reference) if got != want)
    return failed


# --- build and run ----------------------------------------------------------


def build():
    """Configure once, then build incrementally; all output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "fortress_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def spec_path(workload):
    return os.path.join(WORKLOADS, workload + ".json")


def default_seed(workload):
    with open(spec_path(workload)) as f:
        return json.load(f)["base_seed"]


def seeded_spec(workload, seed):
    """Write the workload's spec with base_seed replaced; return its path."""
    with open(spec_path(workload)) as f:
        spec = json.load(f)
    spec["base_seed"] = seed
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spec_{workload}.json")
    with open(path, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")
    return path


def run_program(args, timeout):
    """Run fortress_bench; return its JSON output, or None if it failed."""
    try:
        proc = subprocess.run([BIN] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"fortress_bench {args[0]}: timed out after {timeout} s")
        return None
    if proc.returncode != 0:
        log(proc.stderr.strip())
        log(f"fortress_bench {args[0]}: exit code {proc.returncode}")
        return None
    return json.loads(proc.stdout)


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def reference_digests(workload, seed, fallback):
    """Pinned digests at the workload's default seed, else `fallback`."""
    pin = load_pins().get(workload)
    if pin is not None and pin["seed"] == seed:
        return pin["cells"]
    return fallback


def failed_run(workload, seed):
    """A run that threw or crashed: every cell counts as failing."""
    with open(spec_path(workload)) as f:
        spec = json.load(f)
    cells = len(spec["systems"]) * len(spec["plans"])
    return {"seed": seed, "attempted": cells, "failed": cells,
            "samples": {}, "layers": {}}


def measure(workload, seed, seconds):
    """One untraced run: end-to-end metric samples plus correctness counts."""
    out = run_program(["measure", seeded_spec(workload, seed),
                       "--seconds", str(seconds)],
                      timeout=max(RUN_TIMEOUT_S, 4 * seconds + 60))
    if out is None:
        return failed_run(workload, seed)
    # Rep i ran at seed + i: a rep at the pinned seed is checked against the
    # pins, and the untimed re-run against the first rep.
    reps = out["reps"]
    failed = count_failed([out["rerun_digests"]], reps[0]["digests"])
    for r in reps:
        pinned = reference_digests(workload, r["seed"], None)
        if pinned is not None:
            failed += count_failed([r["digests"]], pinned)
    attempted = len(reps) * out["cells"]
    failed = min(attempted, failed + len(out["errors"]))
    for e in out["errors"]:
        log(f"{workload}: {e}")
    return {
        "seed": seed,
        "threads": out["threads"],
        "nproc": out["nproc"],
        "attempted": attempted,
        "failed": failed,
        "samples": {
            "campaign_s": [r["wall_s"] for r in reps],
            "trials_per_s": [r["trials"] / r["wall_s"] for r in reps],
            "setup_s": out["setup_s"],
            "peak_rss_mib": [out["peak_rss_mib"]],
        },
    }


def trace(workload, seed):
    """One traced run: per-layer metrics plus the replay's digest check."""
    os.makedirs(OUT, exist_ok=True)
    out = run_program(["trace", seeded_spec(workload, seed), "--trace-out",
                       os.path.join(OUT, f"trace_{workload}.json")],
                      timeout=RUN_TIMEOUT_S)
    if out is None:
        return failed_run(workload, seed)
    reference = reference_digests(workload, seed, out["digests"])
    attempted = 2 * out["cells"]
    failed = min(attempted,
                 count_failed([out["digests"], out["replay_digests"]],
                              reference) + len(out["errors"]))
    for e in out["errors"]:
        log(f"{workload}: {e}")
    return {"seed": seed, "threads": out["threads"], "nproc": out["nproc"],
            "attempted": attempted, "failed": failed, "layers": out["layers"]}


# --- reporting --------------------------------------------------------------


def end_to_end_table(config, run):
    """{metric: summary with unit} for a measured run."""
    table = {}
    for m in config["end_to_end"]:
        samples = run["samples"].get(m["name"])
        if samples:
            table[m["name"]] = dict(summarize(samples), unit=m["unit"],
                                    samples=samples)
    return table


def print_measured(workload, config, run):
    ff = run["failed"] / run["attempted"]
    print(f"{workload}: seed {run['seed']}, threads {run.get('threads')}, "
          f"failed_frac {ff:g} ({run['failed']}/{run['attempted']} cell checks)")
    for name, s in end_to_end_table(config, run).items():
        print(f"  {name:<16} {s['median']:.6g} {s['unit']:<9} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")


def print_traced(workload, run):
    ff = run["failed"] / run["attempted"]
    print(f"{workload} (traced): seed {run['seed']}, failed_frac {ff:g} "
          f"({run['failed']}/{run['attempted']} cell checks)")
    for name, m in run["layers"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")


def result_line(run, metrics):
    return json.dumps({"correct": run["failed"] == 0,
                       "attempted": run["attempted"],
                       "failed": run["failed"],
                       "metrics": metrics})


def run_one(config, workload, seed, seconds, traced):
    """The single-run form: one run, metrics as the last stdout line."""
    if traced:
        run = trace(workload, seed)
        print_traced(workload, run)
        metrics = {m["name"]: run["layers"][m["name"]]
                   for m in config["per_layer"] if m["name"] in run["layers"]}
    else:
        run = measure(workload, seed, seconds)
        print_measured(workload, config, run)
        metrics = {name: {"value": s["median"], "unit": s["unit"]}
                   for name, s in end_to_end_table(config, run).items()}
    print(result_line(run, metrics), flush=True)
    return 0 if run["failed"] == 0 else 1


def host_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def run_all(config, seed, seconds, traced):
    results = dict(host_info(), seconds=seconds, workloads={})
    failed = 0
    for w in (x["name"] for x in config["workloads"]):
        s = default_seed(w) if seed is None else seed
        run = measure(w, s, seconds)
        print_measured(w, config, run)
        entry = {"seed": s, "threads": run.get("threads"),
                 "attempted": run["attempted"], "failed": run["failed"],
                 "failed_frac": run["failed"] / run["attempted"],
                 "metrics": end_to_end_table(config, run)}
        failed += run["failed"]
        if traced:
            t = trace(w, s)
            print_traced(w, t)
            entry["traced"] = {"attempted": t["attempted"],
                               "failed": t["failed"], "layers": t["layers"]}
            failed += t["failed"]
        results["workloads"][w] = entry
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if failed == 0 else 1


def capture_pins(config):
    pins = {}
    for w in (x["name"] for x in config["workloads"]):
        seed = default_seed(w)
        out = run_program(["measure", seeded_spec(w, seed), "--seconds", "0"],
                          timeout=RUN_TIMEOUT_S)
        if out is None or out["errors"]:
            raise SystemExit(f"{w}: cannot pin a failing run")
        digests = out["reps"][0]["digests"]
        if count_failed([out["rerun_digests"]], digests):
            raise SystemExit(f"{w}: a re-run disagrees; not pinning")
        pins[w] = {"seed": seed, "cells": digests}
        print(f"pinned {w}: {len(digests)} cells at seed {seed}")
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2)
        f.write("\n")
    return 0


def compare(config, path_a, path_b):
    """Verdict per (metric, workload) of B (change) against A (parent)."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    rows = []
    print(f"{'workload':<16} {'metric':<14} {'A median':>11} {'A spread':>9} "
          f"{'B median':>11} {'B spread':>9} {'bound':>6}  verdict")
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            continue
        for m in config["end_to_end"]:
            sa = wa["metrics"].get(m["name"])
            sb = wb["metrics"].get(m["name"])
            if sa is None or sb is None:
                continue
            v = verdict(sa["samples"], sb["samples"], m["better"], m["bound"])
            row = {"workload": w, "metric": m["name"], "unit": m["unit"],
                   "a_median": sa["median"],
                   "a_spread": rel_spread(sa["samples"]),
                   "b_median": sb["median"],
                   "b_spread": rel_spread(sb["samples"]),
                   "bound": m["bound"], "verdict": v}
            rows.append(row)
            print(f"{w:<16} {m['name']:<14} {row['a_median']:>11.5g} "
                  f"{row['a_spread']:>9.3f} {row['b_median']:>11.5g} "
                  f"{row['b_spread']:>9.3f} {m['bound']:>6}  {v}")
        if wa["failed"] or wb["failed"]:
            print(f"{w:<16} failed cell checks: A {wa['failed']}, "
                  f"B {wb['failed']}")
    print(json.dumps({"rows": rows}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--capture-pins", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)

    config = load_config()
    if args.compare:
        return compare(config, *args.compare)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 unsigned bits")
    names = [w["name"] for w in config["workloads"]]
    if args.workload is not None and args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; one of {names}")
    seconds = config["run_seconds"] if args.seconds is None else args.seconds

    build()
    if args.selftest:
        return subprocess.run(
            [BIN, "--selftest"] + [spec_path(w) for w in names]).returncode
    if args.capture_pins:
        return capture_pins(config)
    if args.workload is not None:
        seed = default_seed(args.workload) if args.seed is None else args.seed
        return run_one(config, args.workload, seed, seconds, args.trace == 1)
    return run_all(config, args.seed, seconds, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
