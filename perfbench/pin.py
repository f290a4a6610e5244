"""Recompute the golden pins the benchmark compares against.

    python3 perfbench/pin.py

For every workload, input slot (benchmark seed modulo
``workloads.PIN_SLOTS``) and round count (the full workload, and
``workloads.SMOKE_ROUNDS`` for the smoke test), runs the experiment set
and stores each experiment's ``MetricsLog.checksum()`` and the digest of its
output files (``workloads.output_digest``) in golden.json.

Re-pinning is deliberate: run this only for a change that is meant to alter
simulated behaviour or the files a run writes, and record it in CHANGES.md.
Every pin that changes is printed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"


def main() -> int:
    pins = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    out = HERE.parent / ".bench_out" / "pin"
    changed = 0
    for workload in workloads.WORKLOADS:
        for rounds in (None, workloads.SMOKE_ROUNDS):
            for slot in range(workloads.PIN_SLOTS):
                res = workloads.run_set(workload, slot, rounds, out / workload)
                if res.errors:
                    print(f"{workload} slot {slot}: {res.errors}", file=sys.stderr)
                    return 1
                for key, checksum in res.checksums.items():
                    pk = workloads.pin_key(workload, slot, rounds, key)
                    pin = {"checksum": checksum, "outputs": res.digests[key]}
                    if pins.get(pk) != pin:
                        changed += pk in pins
                        print(f"{pk}: {pins.get(pk)} -> {pin}")
                        pins[pk] = pin
                print(f"{workload} r{rounds or 'full'} slot {slot}: "
                      f"{res.wall_s:.1f}s", flush=True)
                GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"{len(pins)} pins, {changed} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
