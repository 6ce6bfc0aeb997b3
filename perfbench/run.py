"""Benchmark entry point: generate inputs, run one workload in a fresh
process, check every output, and print the metrics.

    python3 perfbench/run.py --workload train-tiny --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` before the timed process starts, so
generation counts in no metric.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it repeat the end-to-end numbers in
seconds with their sample counts, and the environment they were measured
in.  The exit code is nonzero if any output check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("train-full", "train-tiny", "test-set")
CHILD_TIMEOUT_S = 170
KNOWN_ANSWER_TOL = 1e-12
SCORES = ("mse_a", "mse_s", "lmse_a", "lmse_s", "dssim_a", "dssim_s")


def environment() -> dict:
    """What the numbers were measured on; runs from different machines are
    not comparable."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                if hasattr(handle, name):
                    getattr(handle, name).restype = ctypes.c_int
                    threads = getattr(handle, name)()
                    break
    except OSError:
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def run_child(plan_path: str, seconds: int, trace: int, out_path: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "workload.py"),
           plan_path, str(seconds), str(trace), out_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"timed process exceeded {CHILD_TIMEOUT_S} s")
    if rc != 0:
        raise RuntimeError(f"timed process exited with code {rc}")


# -- output checks ------------------------------------------------------------

def check_train(workload: str, plan: dict, res: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems): every iteration is an operation."""
    iters = plan["iterations"]
    attempted = failed = 0
    problems = []
    reference = None
    for k, call in enumerate(res["calls"]):
        attempted += iters
        losses = call["losses"]
        why = None
        if call["rc"] != 0:
            why = f"train call {k} returned {call['rc']}"
        elif len(losses) != iters or call["steps"] != iters:
            why = f"train call {k} ran {call['steps']} of {iters} iterations"
        elif not all(math.isfinite(v) for v in losses):
            why = f"train call {k} has a non-finite loss"
        elif workload == "train-tiny" and (
                statistics.fmean(losses[-iters // 10:]) >= statistics.fmean(losses[:iters // 10])):
            why = f"train call {k}: last-tenth mean loss not below the first tenth"
        elif reference is not None and call["digest"] != reference:
            why = f"train call {k}: loss trace or checkpoint differs from call 0"
        if reference is None and call["rc"] == 0:
            reference = call["digest"]
        if why:
            failed += iters
            problems.append(why)
    return attempted, failed, problems


def _check_png(path: str, extents) -> str | None:
    from intrinsics.png_io import read_png
    try:
        arr = read_png(path)
    except (OSError, ValueError) as e:
        return f"{path}: {e}"
    if arr.shape != (*extents, 3):
        return f"{path}: extents {arr.shape} instead of {(*extents, 3)}"
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        return f"{path}: values outside [0, 1]"
    return None


def known_answer(plan: dict) -> str | None:
    """A prediction equal to its ground truth must score 0 on every metric."""
    import intrinsics.cli as cli
    from intrinsics.data import parse_manifest
    work = plan["work"]
    manifest = parse_manifest(plan["known_manifest"])
    pred = os.path.join(work, "known_pred")
    os.makedirs(pred, exist_ok=True)
    for e in manifest.entries:
        shutil.copyfile(os.path.join(manifest.base_dir, e.albedo_path),
                        os.path.join(pred, f"{e.id}_albedo.png"))
        shutil.copyfile(os.path.join(manifest.base_dir, e.shading_path),
                        os.path.join(pred, f"{e.id}_shading.png"))
    out = os.path.join(work, "known_report.json")
    if cli.main(["eval", "--pred-dir", pred, "--manifest", plan["known_manifest"],
                 "--out", out]) != 0:
        return "known-answer eval returned nonzero"
    with open(out) as f:
        report = json.load(f)
    rows = report["per_sample"]
    if report["errors"] or len(rows) != len(manifest.entries):
        return f"known-answer eval reported errors {report['errors']}"
    bad = [(r["id"], k, r[k]) for r in rows for k in SCORES if abs(r[k]) > KNOWN_ANSWER_TOL]
    return f"known-answer scores not 0: {bad}" if bad else None


def check_test_set(plan: dict, res: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems): every decompose call and every eval
    sample is an operation."""
    attempted = failed = 0
    problems = []
    first = {}
    n = len(plan["frames"])
    for k, call in enumerate(res["calls"]):
        why = None
        if call["kind"] == "eval":
            attempted += n
            if call["rc"] != 0:
                failed += n
                problems.append(f"eval returned {call['rc']}")
                continue
            with open(call["report"]) as f:
                report = json.load(f)
            bad = len(report["errors"]) + max(0, n - len(report["errors"])
                                             - len(report["per_sample"]))
            if bad:
                failed += bad
                problems.append(f"eval report errors: {report['errors']}")
            elif first.setdefault("eval", call["digest"]) != call["digest"]:
                failed += n
                problems.append(f"eval call {k}: report differs from the first eval")
            continue
        attempted += 1
        key = call.get("frame", "warmup")
        extents = plan["frame_extents"] if key != "warmup" else plan["warmup_extents"]
        if call["rc"] != 0:
            why = f"{call['kind']} call {k} returned {call['rc']}"
        elif key in first and call["digest"] != first[key]:
            why = f"{call['kind']} call {k}: outputs differ from the first call on that frame"
        else:
            why = next(filter(None, (_check_png(p, extents) for p in call["outputs"])), None)
        first.setdefault(key, call["digest"])
        if why:
            failed += 1
            problems.append(why)
    attempted += 1
    why = known_answer(plan)
    if why:
        failed += 1
        problems.append(why)
    return attempted, failed, problems


# -- metrics -------------------------------------------------------------------

def fast(times: list[float]) -> float:
    """Lower decile of operation times (inclusive interpolation, so with a
    few samples it sits just above the fastest).  Other tenants of a shared
    machine slow single operations down by up to half in bursts, which move
    the median of a run more than its fast tail."""
    return statistics.quantiles(times, n=10, method="inclusive")[0] if len(times) > 1 \
        else times[0]


def end_to_end(workload: str, plan: dict, res: dict) -> tuple[dict, list[str]]:
    """The gated metrics and the readable lines, with sample counts."""
    kind = "decompose" if workload == "test-set" else "iter"
    times = sorted(o["s"] for o in res["ops"] if o["kind"] == kind and not o["traced"])
    what = "decompose calls" if kind == "decompose" else "iterations"
    setup = statistics.median(res["setups"])
    op_s = fast(times)
    lines = [f"setup_s           {setup:.4f} s   median of {len(res['setups'])} set-ups"]
    if workload == "test-set":
        ev = [o["s"] for o in res["ops"] if o["kind"] == "eval" and not o["traced"]]
        n = res["ops"][-1]["n"]
        item_s = op_s + min(ev)
        lines += [f"decompose_s       {statistics.median(times):.4f} s"
                  f"   median of {len(times)} decompose calls",
                  f"eval_sample_s     {statistics.median(ev):.4f} s"
                  f"   median of {len(ev)} eval passes over {n} samples each"]
    else:
        item_s = op_s / plan["batch"]
        lines.append(f"train_iter_s      {statistics.median(times):.4f} s"
                     f"   median of {len(times)} iterations")
        if len(times) >= 100:
            lines.append(f"train_iter_p90_s  {statistics.quantiles(times, n=10)[-1]:.4f} s"
                         f"   p90 of {len(times)} iterations")
    lines += [f"peak_rss_mb       {res['peak_rss_mb']:.1f} MB",
              f"op_s              {op_s:.4f} s   lower decile of {len(times)} {what}",
              f"item_s            {item_s:.4f} s   per "
              + ("frame: op_s plus the fastest eval pass per sample"
                 if workload == "test-set" else f"training sample: op_s / {plan['batch']}")]
    metrics = {"setup_s": {"value": setup, "unit": "s"},
               "op_s": {"value": op_s, "unit": "s"},
               "item_s": {"value": item_s, "unit": "s"},
               "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    return metrics, lines


def overhead(workload: str, res: dict) -> float:
    """Traced over untraced operation time, minus one (frame 0 only on
    test-set, the frame both kinds of call decompose)."""
    kind = "decompose" if workload == "test-set" else "iter"

    def times(traced):
        return [o["s"] for o in res["ops"] if o["kind"] == kind
                and o["traced"] == traced and o.get("frame", 0) == 0]
    return fast(times(True)) / fast(times(False)) - 1.0


UNITS = {"gflop": "GFLOP-computed", "col_mb": "MB-computed", "col_peak_mb": "MB-computed",
         "gflops": "GFLOP/s", "mb_per_s": "MB/s", "frac": "1", "calls": "count",
         "draws": "count", "windows": "count"}


def unit_of(name: str) -> str:
    if "rows_filter" in name:
        return "count"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith("_s"):
        return "s"
    raise KeyError(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "intrinsics", "__init__.py")):
        print(f"perfbench: no program at {SRC}/intrinsics", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import intrinsics
    if not os.path.abspath(intrinsics.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported intrinsics from {intrinsics.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import gen

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t = time.perf_counter()
    plan = gen.generate(args.workload, args.seed, work)
    plan["spans_out"] = os.path.join(WORK, f"{name}.spans.jsonl")
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    gen_s = time.perf_counter() - t
    out_path = os.path.join(work, "result.json")
    run_child(plan_path, args.seconds, args.trace, out_path)
    with open(out_path) as f:
        res = json.load(f)

    if args.workload == "test-set":
        attempted, failed, problems = check_test_set(plan, res)
    else:
        attempted, failed, problems = check_train(args.workload, plan, res)
    env = environment()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} inputs generated in {gen_s:.1f} s")
    print("# env " + json.dumps(env, sort_keys=True))
    for why in problems:
        print(f"# CHECK FAILED: {why}")
    print(f"failed_frac       {failed / attempted:.4f}   {failed} of {attempted} operations")
    if args.trace:
        layer = {**res["per_layer"], "trace.overhead_frac": overhead(args.workload, res)}
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        print(f"# spans written to {plan['spans_out']}")
    else:
        metrics, lines = end_to_end(args.workload, plan, res)
        for line in lines:
            print(line)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(os.path.join(WORK, f"{name}.result.json"), "w") as f:
        json.dump({"env": env, **summary}, f, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
