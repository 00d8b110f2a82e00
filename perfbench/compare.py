"""Compare two sets of perfbench results, workload by workload.

Each side is a directory of result files as ``run.py`` writes them
(``<workload>-seed<n>-trace<t>.json``, typically one per seed).  For every
workload and metric the table gives each side's median and quartiles
over its runs and the change of the median.  An end-to-end metric whose
run-to-run spread (interquartile range over median) on either side is
wider than its bound in ``BENCHMARK.json`` is marked ``unresolved``
unless every run of one side beats every run of the other; otherwise it
is ``better``, ``worse`` (beyond the bound) or ``same``.  Per-layer
metrics have no bound and get no verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

from core import ROOT


def _load(directory: str) -> dict:
    """``{(workload, trace): {metric: [values...]}}`` over every result file."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as fh:
            rec = json.load(fh)
        key = (rec["workload"], int(rec["environment"]["settings"]["trace"]))
        bucket = out.setdefault(key, {})
        for name, m in rec["metrics"].items():
            bucket.setdefault(name, []).append(float(m["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    lower = better == "lower"
    wins = all((n < b) if lower else (n > b) for n in new for b in base)
    losses = all((n > b) if lower else (n < b) for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not (wins or losses):
        return "unresolved"
    mb, mn = statistics.median(base), statistics.median(new)
    change = (mn - mb) / abs(mb) if mb else 0.0
    if not lower:
        change = -change
    if change > bound:
        return "worse"
    if change < -bound or wins:
        return "better"
    return "same"


def compare_dirs(base_dir: str, new_dir: str) -> str:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    e2e = {m["name"]: m for m in declared["end_to_end"]}
    base, new = _load(base_dir), _load(new_dir)
    lines = [f"base: {base_dir}", f"new:  {new_dir}"]
    header = (f"{'workload':20s} {'metric':32s} {'base q1/med/q3':>30s} "
              f"{'new q1/med/q3':>30s} {'change':>8s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        lines.append("")
        lines.append(f"[{workload}, trace={trace}] runs: base {len(next(iter(base[key].values())))}, "
                     f"new {len(next(iter(new[key].values())))}")
        lines.append(header)
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            qb, qn = quartiles(b), quartiles(n)
            change = (qn[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
            v = ""
            if name in e2e and not trace:
                v = verdict(b, n, e2e[name]["better"], e2e[name]["bound"])
            lines.append(
                f"{workload:20s} {name:32s} "
                f"{qb[0]:9.4g}/{qb[1]:9.4g}/{qb[2]:9.4g} "
                f"{qn[0]:9.4g}/{qn[1]:9.4g}/{qn[2]:9.4g} {change:+8.1%}  {v}"
            )
    missing = sorted(set(base) ^ set(new))
    if missing:
        lines.append("")
        lines.append(f"on one side only: {missing}")
    return "\n".join(lines)
