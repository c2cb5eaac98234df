#!/usr/bin/env python3
"""Diff fresh benchmark JSON against a committed baseline.

Usage:
    bench_diff.py BASELINE FRESH [FRESH...] [--threshold 0.15] [--report]

Every file uses the BenchRecorder schema (bench/bench_util.hpp):
[{"name", "ns_per_op", "items_per_sec", ...extras}]. Multiple FRESH files
are merged into one result set (the baseline spans several bench binaries:
bench_mc_throughput, bench_micro's kernel records and bench_world). Exit
status is non-zero when any benchmark present in both sides regressed by
more than THRESHOLD (fractional slowdown in ns/op), or when a baseline
benchmark is missing from the fresh run (renames must update the baseline).

Malformed entries (a record missing its "name"/"ns_per_op" key) fail with a
message naming the file and entry instead of a bare KeyError.

--report additionally prints a Markdown before/after table (baseline ns/op,
fresh ns/op, delta, speedup) ready to paste into a PR description; the
pass/fail gate and exit status are unchanged.

Entries may carry extra numeric keys beyond the standard three (bench_micro
tags each crypto record with its SHA-256 `dispatch_tier`). Extras are never
gated — only ns_per_op is — but --report renders them in a second Markdown
table so a number is always shown next to the kernel that produced it.
"""

import argparse
import json
import sys


class SchemaError(ValueError):
    pass


def _require(entry, key, path, index):
    """Fetch entry[key] with a diagnosable error instead of a KeyError."""
    if key not in entry:
        raise SchemaError(
            f"{path}: benchmark entry #{index} is missing the '{key}' key "
            f"(got keys: {sorted(entry)}) — regenerate the file or fix the "
            f"baseline")
    return entry[key]


_STANDARD_KEYS = {"name", "ns_per_op", "items_per_sec"}


def load_ns_per_op(path):
    """Return ({benchmark name: ns/op}, {name: {extra key: value}}).
    Extras are the numeric keys beyond the standard three; they are
    reporting-only."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: invalid benchmark JSON: {err}")
    if not isinstance(data, list):
        raise SchemaError(f"{path}: unrecognized benchmark JSON schema "
                          f"(want a BenchRecorder list of records)")
    out, extras = {}, {}
    for i, b in enumerate(data):
        name = _require(b, "name", path, i)
        out[name] = float(_require(b, "ns_per_op", path, i))
        extra = {k: v for k, v in b.items()
                 if k not in _STANDARD_KEYS and isinstance(v, (int, float))}
        if extra:
            extras[name] = extra
    return out, extras


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("fresh", nargs="+",
                    help="one or more fresh result files, merged")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="maximum tolerated fractional slowdown "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--report", action="store_true",
                    help="also print a Markdown before/after table "
                         "(for PR descriptions)")
    args = ap.parse_args(argv)

    try:
        base, base_extras = load_ns_per_op(args.baseline)
        fresh, fresh_source, fresh_extras = {}, {}, {}
        for path in args.fresh:
            loaded, loaded_extras = load_ns_per_op(path)
            for name, ns in loaded.items():
                if name in fresh:
                    raise SchemaError(
                        f"benchmark '{name}' appears in both "
                        f"{fresh_source[name]} and {path} — ambiguous fresh "
                        f"result; rename one or drop the duplicate")
                fresh[name] = ns
                fresh_source[name] = path
            fresh_extras.update(loaded_extras)
    except SchemaError as err:
        print(f"FAIL: {err}")
        return 1
    except OSError as err:
        print(f"FAIL: cannot read benchmark file: {err} "
              f"(run the `bench` target first?)")
        return 1

    regressions, missing = [], []
    print(f"{'benchmark':<40} {'baseline':>14} {'fresh':>14} {'delta':>9}")
    print("-" * 80)
    for name in sorted(base):
        if name not in fresh:
            missing.append(name)
            print(f"{name:<40} {base[name]:>12.1f}ns {'MISSING':>14}")
            continue
        delta = fresh[name] / base[name] - 1.0
        flag = ""
        if delta > args.threshold:
            regressions.append(name)
            flag = "  <-- REGRESSION"
        print(f"{name:<40} {base[name]:>12.1f}ns {fresh[name]:>12.1f}ns "
              f"{delta:>+8.1%}{flag}")
    for name in sorted(set(fresh) - set(base)):
        print(f"{name:<40} {'(new)':>14} {fresh[name]:>12.1f}ns")

    if args.report:
        print()
        print("| benchmark | before (ns/op) | after (ns/op) | delta | "
              "speedup |")
        print("|---|---:|---:|---:|---:|")
        for name in sorted(set(base) | set(fresh)):
            if name not in fresh:
                print(f"| {name} | {base[name]:,.1f} | (missing) | — | — |")
            elif name not in base:
                print(f"| {name} | (new) | {fresh[name]:,.1f} | — | — |")
            else:
                delta = fresh[name] / base[name] - 1.0
                speedup = base[name] / fresh[name]
                print(f"| {name} | {base[name]:,.1f} | {fresh[name]:,.1f} | "
                      f"{delta:+.1%} | {speedup:.2f}x |")
        named = sorted(set(base_extras) | set(fresh_extras))
        if named:
            print()
            print("| benchmark | metric | before | after |")
            print("|---|---|---:|---:|")
            for name in named:
                b_extra = base_extras.get(name, {})
                f_extra = fresh_extras.get(name, {})
                for key in sorted(set(b_extra) | set(f_extra)):
                    before = (f"{b_extra[key]:,.3f}" if key in b_extra
                              else "(new)")
                    after = (f"{f_extra[key]:,.3f}" if key in f_extra
                             else "(missing)")
                    print(f"| {name} | {key} | {before} | {after} |")

    print()
    # Report EVERY failure class before exiting: a run with both a
    # regression and a missing entry must name the missing entry too, or
    # the rename gets "fixed" invisibly while the regression is chased.
    if regressions:
        print(f"FAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
    if missing:
        print(f"FAIL: {len(missing)} baseline benchmark(s) missing from the "
              f"fresh run: {', '.join(missing)} (update bench/baseline.json)")
    if regressions or missing:
        return 1
    print(f"OK: no benchmark regressed more than {args.threshold:.0%} "
          f"({len(base)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
