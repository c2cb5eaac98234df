#!/usr/bin/env python3
"""Committed-spec gate: pinned reports and the sharding contract, end to end.

Invoked from ctest (see fortress_tests_shard in CMakeLists.txt):

    shard_check.py --driver build/campaign_driver --specs specs/ scenarios/

Every committed <dir>/*.json campaign spec has a pinned report at
<dir>/reports/<stem>.json. For each spec this runs the full multi-process
driver with `run --shards 1` and requires the merged report to equal the
pin BYTE for byte. Where the grid has at least 2 cells it also runs
`run --shards 2` and requires the same bytes again. That is the scale-out
contract of scenario/shard.hpp: trial seeds derive from global cell indices
and adaptive stopping is per-cell, so partitioning the grid across processes
must change nothing. The check also exercises fork/wait, the sidecar codec
and the merge's coverage checks for real, and requires that the driver's
write-to-temp-then-rename leaves no *.tmp file.

A spec directory without specs, or a spec without a pin, is an error: both
are committed fixtures, and losing one silently would disarm the gate.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile


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
    if not pin.is_file():
        return f"no pinned report at {pin}"
    doc = json.loads(spec.read_text())
    n_cells = len(doc["systems"]) * len(doc["plans"])
    with tempfile.TemporaryDirectory(prefix="shard_check.") as tmp:
        workdir = pathlib.Path(tmp)
        try:
            one = run_sharded(driver, spec, 1, workdir)
            if one != pin.read_bytes():
                return (f"--shards 1 report differs from {pin}; if the "
                        f"change is deliberate, re-capture with `{driver} "
                        f"run --spec {spec} --shards 1 --out-dir D "
                        f"--out {pin}`")
            if n_cells >= 2 and run_sharded(driver, spec, 2, workdir) != one:
                return ("merged reports differ between --shards 1 and "
                        "--shards 2 (sharding must be bit-invariant)")
        except (subprocess.CalledProcessError, RuntimeError) as e:
            return str(e)
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--driver", required=True,
                        help="path to the built campaign_driver binary")
    parser.add_argument("--specs", required=True, nargs="+",
                        help="directories holding the committed *.json specs")
    args = parser.parse_args()

    failures = 0
    for spec_dir in map(pathlib.Path, args.specs):
        specs = sorted(spec_dir.glob("*.json"))
        if not specs:
            print(f"shard_check: no *.json specs under {spec_dir}",
                  file=sys.stderr)
            failures += 1
        for spec in specs:
            problem = check_spec(args.driver, spec)
            if problem:
                print(f"FAIL {spec}: {problem}", file=sys.stderr)
                failures += 1
            else:
                print(f"OK   {spec}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
