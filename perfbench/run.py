"""perfbench: the repository's end-to-end and per-layer benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # each in its own process
    python3 perfbench/run.py --compare perfbench/out/A perfbench/out/B
    python3 perfbench/run.py --selftest

One run builds the workload's inputs from ``--seed``, sets it up several
times (``setup_s`` is the median), measures for ``--seconds``, checks the
outputs, and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports every end-to-end
metric of :mod:`catalog`; ``--trace 1`` runs part of the measurement with
a tracer installed and reports every per-layer metric instead, plus the
span file and Chrome trace it wrote under ``perfbench/out/``.  The full
result -- environment block, workload-specific names of the metrics
(``train_frames_per_s``, ``serve_rps``, ...), trajectories, checks -- is
written to
``perfbench/out/results/<workload>-seed<n>-trace<t>.json`` (or under
``--results DIR``); ``--compare`` reads two such directories.

``--workload all`` runs every workload in a child process of its own,
so each reports its own peak memory, and prints one line for all of
them (counts summed, metrics keyed ``<workload>.<metric>``).

The exit code is 0 when every correctness check passed, 1 when one
failed, and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

WORKLOADS = ("train-paper", "train-small-stream", "serve-swap")


def _runner(name: str):
    if name.startswith("train-"):
        from train import run_train

        return lambda **kw: run_train(name, **kw)
    from serve import run_serve

    return run_serve


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, results_dir: str | None = None,
                 **hooks) -> dict:
    """Run one workload; returns the printed result plus its full record,
    which is also written to ``results_dir``."""
    import catalog
    import env
    from core import OUT_DIR, finite

    out = _runner(name)(seed=seed, seconds=seconds, trace=trace, tiny=tiny, **hooks)
    run = out["run"]
    if not trace:
        for metric, value in out["e2e"].items():
            run.check(f"{metric} measured", finite(value) and value > 0, repr(value))
    metrics = catalog.render(out["layers"] if trace else out["e2e"],
                             catalog.PER_LAYER if trace else catalog.E2E)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": name,
        "environment": env.environment(seed, name, {
            "seconds": seconds, "trace": int(trace), "tiny": tiny,
        }),
        "fail_ratio": run.fail_ratio,
        "named_metrics": out["named"],
        "checks": run.checks,
        "info": out["info"],
    }
    results_dir = results_dir or os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    record["path"] = path
    return {"result": result, "record": record}


def _summary(record: dict) -> str:
    env = record["environment"]
    blas = ", ".join(
        f"{os.path.basename(b['path'])} threads={b['threads']}" for b in env["blas_loaded"]
    )
    lines = [
        f"== {record['workload']} seed={env['seed']} "
        f"correct={record['correct']} attempted={record['attempted']} "
        f"failed={record['failed']} fail_ratio={record['fail_ratio']:.4g}",
        f"  env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas=[{blas}] threads_env="
        f"{ {k: v for k, v in env['thread_env'].items() if v} } "
        f"executor={env['program_env']['REPRO_EXECUTOR']} "
        f"compile={env['program_env']['REPRO_COMPILE']} sha={env['git_sha']}",
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for name, v in record["named_metrics"].items():
        lines.append(f"  [{name}] {v:.6g}")
    for c in record["checks"]:
        if not c["ok"]:
            lines.append(f"  FAILED CHECK: {c['name']} ({c['detail']})")
    lines.append(f"  full record: {os.path.relpath(record['path'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", metavar="DIR",
                   help="directory for the full result files "
                        "(default perfbench/out/results)")
    p.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.compare:
        from compare import compare_dirs

        print(compare_dirs(*args.compare))
        return 0
    if args.selftest:
        from selftest import main as selftest_main

        return selftest_main()

    if args.workload == "all":
        line = _run_all(args)
    else:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           results_dir=args.results)
        print(_summary(out["record"]), flush=True)
        line = out["result"]
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def _run_all(args) -> dict:
    """Every workload in a child process; one line for all: counts add
    up, metrics keyed ``<workload>.<metric>``."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.results:
            cmd += ["--results", args.results]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise SystemExit(f"perfbench: {name} printed no result "
                             f"(exit code {child.returncode})")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())
