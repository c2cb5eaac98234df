#!/usr/bin/env python3
"""Pinned-output gate: every committed output is compared whole against its
pin under <dir>/reports/, and a drift prints the command that re-captures it.

Invoked from ctest (see CMakeLists.txt) in two modes:

    pin_check.py specs --driver build/campaign_driver specs/ scenarios/
    pin_check.py stdout --pin examples/reports/quickstart.txt -- build/quickstart

`specs`: every committed <dir>/*.json campaign spec has a pinned report at
<dir>/reports/<stem>.json. For each spec this runs the full multi-process
driver with `run --shards 1` and requires the merged report to equal the
pin BYTE for byte. Where the grid has at least 2 cells it also runs
`run --shards 2` and requires the same bytes again. That is the scale-out
contract of scenario/shard.hpp: trial seeds derive from global cell indices
and adaptive stopping is per-cell, so partitioning the grid across processes
must change nothing. The check also exercises fork/wait, the sidecar codec
and the merge's coverage checks for real, and requires that the driver's
write-to-temp-then-rename leaves no *.tmp file. A spec directory without
specs is an error: losing the fixtures silently would disarm the gate.

`stdout`: runs the program, requires exit status 0, and requires its whole
stdout to equal the pin byte for byte (stderr passes through unchecked).

A missing pin is an error in both modes; the message names the capture
command.
"""

import argparse
import json
import pathlib
import shlex
import subprocess
import sys
import tempfile


def compare_pin(got: bytes, pin: pathlib.Path, recapture: str) -> str:
    """Returns "" when `got` equals the pin byte for byte, else the drift
    report with the command that re-captures the pin."""
    if not pin.is_file():
        return f"no pin at {pin}; capture it with `{recapture}`"
    if got != pin.read_bytes():
        return (f"output differs from {pin}; if the change is deliberate, "
                f"re-capture with `{recapture}`")
    return ""


def run_sharded(driver: str, spec: pathlib.Path, shards: int,
                workdir: pathlib.Path) -> bytes:
    out_dir = workdir / f"shards-{shards}"
    out_dir.mkdir()
    merged = workdir / f"merged-{shards}.json"
    subprocess.run(
        [driver, "run", "--spec", str(spec), "--shards", str(shards),
         "--out-dir", str(out_dir), "--out", str(merged)],
        check=True)
    sidecars = sorted(out_dir.glob("shard-*.json"))
    if len(sidecars) != shards:
        raise RuntimeError(
            f"expected {shards} sidecars, found {len(sidecars)}")
    # Outputs are written to <path>.tmp and renamed into place; a leftover
    # means a write was not completed.
    leftovers = sorted(p.name for p in workdir.rglob("*.tmp"))
    if leftovers:
        raise RuntimeError(f"temporary files left behind: "
                           f"{', '.join(leftovers)}")
    return merged.read_bytes()


def check_spec(driver: str, spec: pathlib.Path) -> str:
    """Returns "" when the spec holds, else what failed."""
    pin = spec.parent / "reports" / spec.name
    doc = json.loads(spec.read_text())
    n_cells = len(doc["systems"]) * len(doc["plans"])
    with tempfile.TemporaryDirectory(prefix="pin_check.") as tmp:
        workdir = pathlib.Path(tmp)
        try:
            one = run_sharded(driver, spec, 1, workdir)
            problem = compare_pin(
                one, pin, f"{driver} run --spec {spec} --shards 1 "
                f"--out-dir D --out {pin}")
            if problem:
                return problem
            if n_cells >= 2 and run_sharded(driver, spec, 2, workdir) != one:
                return ("merged reports differ between --shards 1 and "
                        "--shards 2 (sharding must be bit-invariant)")
        except (subprocess.CalledProcessError, RuntimeError) as e:
            return str(e)
    return ""


def check_specs(args) -> list:
    results = []
    for spec_dir in map(pathlib.Path, args.dirs):
        specs = sorted(spec_dir.glob("*.json"))
        if not specs:
            results.append((spec_dir, "no *.json specs"))
        for spec in specs:
            results.append((spec, check_spec(args.driver, spec)))
    return results


def check_stdout(args) -> list:
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    proc = subprocess.run(command, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        problem = f"exited with status {proc.returncode}"
    else:
        problem = compare_pin(proc.stdout, args.pin,
                              f"{shlex.join(command)} > {args.pin}")
    return [(shlex.join(command), problem)]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = parser.add_subparsers(dest="mode", required=True)
    specs = modes.add_parser("specs", help="committed campaign specs")
    specs.add_argument("--driver", required=True,
                       help="path to the built campaign_driver binary")
    specs.add_argument("dirs", nargs="+",
                       help="directories holding the committed *.json specs")
    specs.set_defaults(check=check_specs)
    stdout = modes.add_parser("stdout", help="one program's whole stdout")
    stdout.add_argument("--pin", required=True, type=pathlib.Path)
    stdout.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- program [args...]")
    stdout.set_defaults(check=check_stdout)
    args = parser.parse_args()

    failures = 0
    for subject, problem in args.check(args):
        if problem:
            print(f"FAIL {subject}: {problem}", file=sys.stderr)
            failures += 1
        else:
            print(f"OK   {subject}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
