"""pointfuse benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json, the one place the
run length is set; give it only for a shorter trial run.

Run from the root of a checkout.  One workload runs in this process;
"all" (the default) runs each workload in its own fresh child process,
one after another.  The last line of standard output is one JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics of BENCHMARK.json, or with --trace 1 its per-layer metrics.  The
lines before it are a readable summary and a "details" JSON line with the
environment, digests and counts.  The exit code is 1 when an output check
failed and 2 when the checkout holds no pointfuse sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train-desk", "train-mid", "detect-desk")
BLAS_THREADS = 1        # one client, one core: steadier than sharing BLAS threads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# what an op-neutral end-to-end metric is called on each kind of workload
OP_NAMES = {"train": ("step_ms", "steps_per_s"), "detect": ("scene_ms", "scenes_per_s")}


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_rev": git_rev(), "machine": platform.machine()}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics() -> dict:
    s = spec()
    return {key: {m["name"]: m["unit"] for m in s[key]} for key in ("end_to_end", "per_layer")}


def report(values: dict, units: dict) -> dict:
    """Every declared metric with its unit; per-layer ones a workload
    does not exercise read 0."""
    extra = set(values) - set(units)
    if extra:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}


def print_summary(res: dict, metrics: dict, trace: bool) -> None:
    op, rate = OP_NAMES[res["kind"]]
    print(f"{res['workload']} seed {res['seed']}: {res['timed_ops']} timed ops"
          + (f", {res['traced_ops']} traced" if trace else ""))
    for name, m in metrics.items():
        shown = name
        if name.startswith("op"):
            shown = name.replace("op_ms", op).replace("ops_per_s", rate)
        note = ""
        if name == "op_ms.tail":
            note = f"  (p{res['tail_percentile']:.1f} of {res['timed_ops']})"
        print(f"  {shown:26s} {m['value']:14.6g} {m['unit']}{note}")
    rate_shown = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    print(f"  {'error_rate':26s} {rate_shown:14.6g} ({res['failed']} failed of "
          f"{res['attempted']} attempted)")
    for check in res["checks"]:
        print(f"  CHECK FAILED: {check}")


def run_one(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    res = workloads.run(args.workload, args.seed, args.seconds, tracer)
    res["environment"] = environment()
    declared = declared_metrics()
    metrics = report(res["per_layer"] if args.trace else res["end_to_end"],
                     declared["per_layer" if args.trace else "end_to_end"])
    correct = (res["failed"] == 0 and not res["checks"]
               and all(math.isfinite(m["value"]) for m in metrics.values()))

    if tracer is not None:
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl"), t0)
    print_summary(res, metrics, bool(args.trace))
    details = {k: v for k, v in res.items() if k not in ("end_to_end", "per_layer")}
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed run length per workload (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pointfuse", "__init__.py")):
        print(f"no pointfuse sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
