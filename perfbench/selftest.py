"""Self-test of the benchmark at tiny mesh sizes (a few seconds).

    python3 perfbench/selftest.py

Runs every workload untraced and traced and checks that each metric named in
BENCHMARK.json is emitted with its unit and that the outputs pass their
checks; then corrupts each workload's solver output and checks that the
error rate becomes non-zero.  Exits non-zero on any finding.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 1


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    findings = []
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            result, _prov, _outcomes, tr = run.run_single(
                workload, SEED, 0.0, bool(trace), size_name="tiny", min_ops=2)
            if tr is not None:
                unreported = {name for name in tr.durations() if not name.startswith("op")}
                unreported -= set(run.SPAN_METRICS)
                if unreported:
                    findings.append(f"{workload}: spans {sorted(unreported)} are not reported")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != wanted[trace]:
                findings.append(f"{workload} trace={trace}: metrics {sorted(emitted.items())} "
                                f"differ from BENCHMARK.json {sorted(wanted[trace].items())}")
            if not result["correct"] or result["failed"]:
                findings.append(f"{workload} trace={trace}: checks failed on clean output")
        result, *_ = run.run_single(workload, SEED, 0.0, False, size_name="tiny",
                                    min_ops=1, corrupt=True)
        if result["failed"] == 0 or result["correct"]:
            findings.append(f"{workload}: corrupted output left error_rate at 0")
        print(f"{workload}: checked", flush=True)
    for finding in findings:
        print(f"selftest: {finding}")
    print("selftest: " + ("ok" if not findings else f"{len(findings)} finding(s)"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
