"""The timed process of one benchmark run.

It is started fresh for every run, after the inputs exist, and drives the
program only through ``intrinsics.cli.main`` as a closed loop: one caller
issues the next command after the previous one returns.  Training iterations
are delimited by the returns of ``trainer.sgd_momentum_step``.

On a shared machine other tenants slow single operations down by up to
half, in bursts; the fast tail of the operation times is the program's own
speed, so the gated operation time is a low percentile (see run.py).

Usage: python3 perfbench/workload.py PLAN.json SECONDS TRACE OUT.json
"""

import hashlib
import json
import os
import resource
import sys
import time

T0 = time.perf_counter()
import intrinsics.cli as cli  # noqa: E402  the program's import is set-up time
IMPORT_S = time.perf_counter() - T0

import intrinsics.trainer as trainer  # noqa: E402
import spans  # noqa: E402

WARMUPS = 3  # test-set set-ups per run
EVAL_PASSES = 2  # untraced eval passes per test-set run
MIN_TRAIN_CALLS = {"train-full": 2, "train-tiny": 3}


def digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Run:
    def __init__(self, plan: dict, seconds: float, trace: bool):
        self.plan = plan
        self.seconds = seconds
        self.tracer = spans.Tracer() if trace else None
        self.setups: list[float] = []
        self.ops: list[dict] = []
        self.calls: list[dict] = []
        self.steps: list[float] = []
        orig = trainer.sgd_momentum_step

        def step_clock(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.steps.append(time.perf_counter())
            return out
        trainer.sgd_momentum_step = step_clock

    def command(self, argv: list[str], traced: bool) -> tuple[int, float, float]:
        """One closed-loop command: (return code, start, seconds)."""
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            rc = cli.main(argv)
            return rc, start, time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()

    # -- training ------------------------------------------------------------

    def train(self) -> None:
        plan = self.plan
        out_dir = os.path.join(plan["work"], "out")
        trace_csv = os.path.join(out_dir, "loss_trace.csv")
        ckpt = os.path.join(out_dir, f"checkpoint_{plan['iterations']:06d}.ckpt")
        n_min = MIN_TRAIN_CALLS[plan["workload"]]
        schedule = [k % 2 == 1 for k in range(n_min)] if self.tracer else None
        start = time.perf_counter()
        k = 0
        while (k < len(schedule)) if schedule else (
                k < n_min or time.perf_counter() - start < self.seconds):
            traced = bool(schedule and schedule[k])
            for path in (trace_csv, ckpt):
                if os.path.exists(path):
                    os.remove(path)
            if traced:
                self.tracer.set_op("setup", k)
            self.steps = []
            rc, t0, _ = self.command(["train", "--config", plan["config"]], traced)
            if self.steps:
                self.setups.append(IMPORT_S + self.steps[0] - t0)
            for a, b in zip(self.steps, self.steps[1:]):
                self.ops.append({"kind": "iter", "s": b - a, "traced": traced})
            losses = []
            if os.path.exists(trace_csv):
                with open(trace_csv) as f:
                    losses = [float(line.split(",")[1]) for line in f.read().split("\n")[1:]
                              if line]
            self.calls.append({"kind": "train", "rc": rc, "traced": traced,
                               "steps": len(self.steps), "losses": losses,
                               "digest": [digest(trace_csv), digest(ckpt)]})
            k += 1

    # -- test set ------------------------------------------------------------

    def decompose(self, image: str, out_a: str, out_s: str, traced: bool):
        return self.command(["decompose", "--checkpoint", self.plan["checkpoint"],
                             "--input", image, "--out-albedo", out_a,
                             "--out-shading", out_s], traced)

    def test_set(self) -> None:
        plan = self.plan
        work = plan["work"]
        frames = plan["frames"]
        pred = os.path.join(work, "pred")
        os.makedirs(pred, exist_ok=True)
        warm = [os.path.join(work, "warmup_albedo.png"),
                os.path.join(work, "warmup_shading.png")]
        for _ in range(WARMUPS):
            rc, _, dt = self.decompose(plan["warmup"], *warm, False)
            self.setups.append(IMPORT_S + dt)
            self.calls.append({"kind": "warmup", "rc": rc, "digest": [digest(p) for p in warm],
                               "outputs": warm})
        if self.tracer:
            schedule = [(0, False)] + [(i, True) for i in range(len(frames))]
        else:
            schedule = None
        start = time.perf_counter()
        k = 0
        while (k < len(schedule)) if schedule else (
                k < len(frames) + 1 or time.perf_counter() - start < self.seconds):
            i, traced = schedule[k] if schedule else (k % len(frames), False)
            frame = frames[i]
            outs = [os.path.join(pred, f"{frame['id']}_albedo.png"),
                    os.path.join(pred, f"{frame['id']}_shading.png")]
            if traced:
                self.tracer.set_op("frame", i)
            rc, _, dt = self.decompose(frame["input"], *outs, traced)
            self.ops.append({"kind": "decompose", "s": dt, "traced": traced, "frame": i})
            self.calls.append({"kind": "decompose", "rc": rc, "frame": i, "traced": traced,
                               "digest": [digest(p) for p in outs], "outputs": outs})
            k += 1
        traced = self.tracer is not None
        for k in range(1 if traced else EVAL_PASSES):
            if traced:
                self.tracer.set_op("eval", 0)
            report = os.path.join(work, f"report{k}.json")
            rc, _, dt = self.command(["eval", "--pred-dir", pred, "--manifest",
                                      plan["manifest"], "--out", report], traced)
            self.ops.append({"kind": "eval", "s": dt / len(frames), "traced": traced,
                             "n": len(frames)})
            self.calls.append({"kind": "eval", "rc": rc, "report": report,
                               "digest": digest(report)})

    # -- results -------------------------------------------------------------

    def result(self) -> dict:
        out = {"import_s": IMPORT_S, "setups": self.setups, "ops": self.ops,
               "calls": self.calls,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if self.tracer:
            if self.plan["workload"] == "test-set":
                kinds, n_ops, n_setups = ("frame", "eval"), len(self.plan["frames"]), 1
            else:
                kinds, n_ops = ("iter",), self.tracer.iterations
                n_setups = sum(c["traced"] for c in self.calls)
            out["per_layer"] = spans.layer_metrics(self.tracer, kinds, max(n_ops, 1),
                                                   max(n_setups, 1))
            self.tracer.dump(self.plan["spans_out"])
        return out


def main(argv: list[str]) -> int:
    plan_path, seconds, trace, out_path = argv
    with open(plan_path) as f:
        plan = json.load(f)
    run = Run(plan, float(seconds), trace == "1")
    if plan["workload"] == "test-set":
        run.test_set()
    else:
        run.train()
    result = run.result()
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
