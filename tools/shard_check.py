#!/usr/bin/env python3
"""Shard bit-identity gate: the sharding contract, checked end to end.

Invoked from ctest (see fortress_tests_shard in CMakeLists.txt):

    shard_check.py --driver build/campaign_driver --specs specs/

For every committed specs/*.json campaign spec this runs the full
multi-process driver twice — `run --shards 1` and `run --shards 2` — and
requires the two merged result reports to be BYTE-identical. That is the
scale-out contract of scenario/shard.hpp: trial seeds derive from global
cell indices and adaptive stopping is per-cell, so partitioning the grid
across processes must change nothing. The check also exercises
fork/wait, the sidecar codec and the merge's coverage checks for real, and
requires that the driver's write-to-temp-then-rename leaves no *.tmp file.

An empty or missing specs directory is an error: the spec is a committed
fixture, losing it silently would disarm the gate.
"""

import argparse
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
            f"{spec.name}: expected {shards} sidecars, found {len(sidecars)}")
    # Outputs are written to <path>.tmp and renamed into place; a leftover
    # means a write was not completed.
    leftovers = sorted(p.name for p in workdir.rglob("*.tmp"))
    if leftovers:
        raise RuntimeError(f"{spec.name}: temporary files left behind: "
                           f"{', '.join(leftovers)}")
    return merged.read_bytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--driver", required=True,
                        help="path to the built campaign_driver binary")
    parser.add_argument("--specs", required=True,
                        help="directory holding the committed *.json specs")
    args = parser.parse_args()

    spec_dir = pathlib.Path(args.specs)
    specs = sorted(spec_dir.glob("*.json"))
    if not specs:
        print(f"shard_check: no *.json specs under {spec_dir}",
              file=sys.stderr)
        return 1

    failures = 0
    for spec in specs:
        with tempfile.TemporaryDirectory(prefix="shard_check.") as tmp:
            workdir = pathlib.Path(tmp)
            try:
                one = run_sharded(args.driver, spec, 1, workdir)
                two = run_sharded(args.driver, spec, 2, workdir)
            except (subprocess.CalledProcessError, RuntimeError) as e:
                print(f"FAIL {spec.name}: {e}", file=sys.stderr)
                failures += 1
                continue
        if one != two:
            print(f"FAIL {spec.name}: merged reports differ between "
                  "--shards 1 and --shards 2 (sharding must be "
                  "bit-invariant)", file=sys.stderr)
            failures += 1
        else:
            print(f"OK   {spec.name}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
