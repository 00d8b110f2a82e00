"""Self-tests of the benchmark itself, at a tiny size (a few minutes).

Run with ``python3 perfbench/run.py --selftest``.  Checks that

* the declared workloads are the runnable ones, and every workload,
  traced and untraced, emits exactly the metric names
  and units ``BENCHMARK.json`` declares (end-to-end untraced, per-layer
  traced) in a result with exactly the contract's keys;
* a seeded wrong prediction fails the serve correctness check and raises
  the failure count;
* the compare mode renders a verdict for every end-to-end metric.

Tiny training runs stop long before their accuracy target, so they
report ``correct=False``; the name check does not depend on it.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from core import OUT_DIR, ROOT

SECONDS = 2.0
RESULTS = os.path.join(OUT_DIR, "selftest")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        "workloads": {w["name"] for w in bench["workloads"]},
    }


def check_names(failures: list) -> None:
    from run import WORKLOADS, run_workload

    want = declared()
    if want["workloads"] != set(WORKLOADS):
        failures.append(f"declared workloads {sorted(want['workloads'])} "
                        f"!= runnable {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            out = run_workload(name, seed=1, seconds=SECONDS, trace=bool(trace),
                               tiny=True, results_dir=RESULTS)
            result = out["result"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if got != want[trace]:
                failures.append(
                    f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                    f"extra {sorted(set(got) - set(want[trace]))}, "
                    f"missing {sorted(set(want[trace]) - set(got))}, "
                    f"units {[k for k in got if k in want[trace] and got[k] != want[trace][k]]}"
                )
            print(f"selftest: {name} trace={trace}: {len(got)} metrics, "
                  f"correct={result['correct']}", flush=True)


def check_wrong_prediction(failures: list) -> None:
    from run import run_workload

    clean = run_workload("serve-swap", seed=2, seconds=SECONDS, trace=False,
                         tiny=True, results_dir=RESULTS)
    wrong = run_workload(
        "serve-swap", seed=2, seconds=SECONDS, trace=False, tiny=True,
        results_dir=os.path.join(RESULTS, "tampered"),
        tamper=lambda pred: replace(pred, energy=pred.energy + 1e-9),
    )
    c, w = clean["result"], wrong["result"]
    if not c["correct"]:
        failures.append(f"serve-swap without tampering failed: {clean['record']['checks']}")
    failed_checks = [x["name"] for x in wrong["record"]["checks"] if not x["ok"]]
    if w["correct"] or not any("bit-identical" in n for n in failed_checks):
        failures.append(f"tampered prediction passed the serve check: {failed_checks}")
    if w["failed"] / w["attempted"] <= c["failed"] / c["attempted"]:
        failures.append("tampered prediction did not raise the fail ratio")
    print(f"selftest: wrong prediction -> correct={w['correct']}, "
          f"failed {w['failed']}/{w['attempted']}", flush=True)


def check_compare(failures: list) -> None:
    from compare import compare_dirs

    table = compare_dirs(RESULTS, RESULTS)
    if "same" not in table:
        failures.append("compare mode rendered no verdicts")
    print("selftest: compare mode ok", flush=True)


def main() -> int:
    failures: list = []
    check_names(failures)
    check_wrong_prediction(failures)
    check_compare(failures)
    for f in failures:
        print(f"SELFTEST FAILURE: {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
