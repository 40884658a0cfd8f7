"""Regenerate perfbench/references.json, the outputs the guard compares against.

Usage (from the root of a checkout): python3 perfbench/make_references.py

Runs one untraced pass of every workload in every seed slot and stores the
report numbers and chain CSV hashes, with the thread count (the usable
processors) they were made at; run.py pins ``MCMCCALC_THREADS`` to it.
Refuses to store a slot whose run raised or failed a deterministic check
row.  Only a change that is meant to alter the library's outputs should
regenerate the file.
"""

from __future__ import annotations

import json
import shutil
import sys

import guard
from run import NPROC, REFERENCES, WORK, Workload
from workloads import SLOTS, WORKLOADS


def main() -> int:
    stored = {"slots": SLOTS, "threads": NPROC, "rel_tol": guard.REL_TOL, "abs_tol": guard.ABS_TOL,
              "workloads": {}}
    for name in WORKLOADS:
        stored["workloads"][name] = {}
        for slot in range(SLOTS):
            work_dir = WORK / f"references-{name}-{slot}"
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            try:
                workload = Workload(name, slot, work_dir, {
                    "slots": SLOTS, "threads": NPROC, "workloads": {name: {}}})
                results = workload.run_pass(trace=False)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            entries = {}
            for index, res in enumerate(results):
                if res["problems"]:
                    print(f"{name} slot {slot} {res['kind']}: {res['problems']}",
                          file=sys.stderr)
                    return 1
                entries[f"{index}-{res['kind']}"] = guard.reference_entry(res["digest"])
            stored["workloads"][name][str(slot)] = entries
            print(f"{name} slot {slot}: stored {len(entries)} experiments", file=sys.stderr)
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
