"""Run one workload for a fixed time and report its metrics as JSON.

Untraced runs (`--trace 0`) report the end-to-end metrics; a traced run
(`--trace 1`) runs the same round untraced and then traced, checks that
they reach the same verdicts, and reports the per-layer metrics.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gen

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_RUNS = 7
STARTUP_RUNS = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_subprocess(cmd: list[str], env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=PROBE_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return seconds


class SetUp:
    """Set-up runs of one workload and seed, each in a fresh interpreter.

    The first run's output is the input of every round; later runs only
    time set-up again and must write the same plan.
    """

    def __init__(self, args, work: Path, env: dict) -> None:
        self.cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out"]
        self.work, self.env = work, env
        self.inputs = work / "inputs"
        self.seconds: list[float] = []
        self.deterministic = True

    def run(self) -> None:
        out = self.inputs if not self.seconds else self.work / "setup-again"
        self.seconds.append(timed_subprocess(self.cmd + [str(out)], self.env))
        if out != self.inputs:
            same = (out / "plan.json").read_bytes() == (self.inputs / "plan.json").read_bytes()
            self.deterministic = self.deterministic and same
            shutil.rmtree(out)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(round_fn, ctx, seconds: float, setup: SetUp) -> list[list]:
    """Whole rounds until they have taken `seconds` (always at least one).

    The set-up runs are spread between the rounds, so that their median
    samples the whole run rather than one moment of it; their time is
    not counted against `seconds`.
    """
    rounds = []
    spent = 0.0
    while not rounds or spent < seconds:
        if rounds and len(setup.seconds) < SETUP_RUNS:
            setup.run()
        gc.collect()  # start every round from the same collector state
        start = time.perf_counter()
        rounds.append(round_fn(ctx, len(rounds)))
        spent += time.perf_counter() - start
    while len(setup.seconds) < SETUP_RUNS:
        setup.run()
    return rounds


def end_to_end(setup_seconds: list[float], rounds: list[list]) -> dict:
    """wall_s: median over rounds of the round's timed program work;
    verdict_p50_s: median over the operations counted as verdicts."""
    walls = [sum(o.seconds for o in r) for r in rounds]
    verdicts = [o.seconds for r in rounds for o in r if o.in_median]
    return {
        "setup_s": metric(median(setup_seconds), "s"),
        "wall_s": metric(median(walls), "s"),
        "verdict_p50_s": metric(median(verdicts), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def trace_run(round_fn, ctx, trace_path: Path):
    """Per-layer metrics from three rounds of the same operations.

    The first round runs as in an untraced run and gives the CLI
    subprocess timings.  The traced round runs CLI commands in this
    process, so its overhead is taken against the second round: untraced,
    in-process, and like the traced round past the first round's warm-up.
    """
    import tracer as tr

    rounds = [round_fn(ctx, 0)]
    ctx.in_process = True
    baseline = round_fn(ctx, 1)
    rounds.append(baseline)
    spans = tr.Tracer()
    ctx.tracer = spans
    with tr.Instrumented(spans):
        traced = round_fn(ctx, 2)
    ctx.tracer = None
    rounds.append(traced)
    spans.write(trace_path)

    same = all([o.verdict for o in r] == [o.verdict for o in traced] for r in rounds)
    startup = [timed_subprocess([sys.executable, "-c", "import born_kernel.cli"], ctx.env)
               for _ in range(STARTUP_RUNS)]
    metrics = {"cli.startup_s": median(startup)}
    metrics.update(tr.subprocess_medians(ctx.cli_seconds))
    metrics.update(tr.layer_metrics(spans))
    metrics["trace.overhead_s"] = (sum(o.seconds for o in traced)
                                   - sum(o.seconds for o in baseline))
    units = {"_s": "s", "_mb": "MB", "_ratio": "ratio"}
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = metric(value, unit)
    return rounds, out, same


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "born_kernel" / "__init__.py").is_file():
        print(f"error: no born_kernel package under {src}; run from the root of a "
              "born-kernel checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = SetUp(args, work, env)
        setup.run()

        import workloads  # imports born_kernel from src/

        ctx = workloads.Context(gen.load(setup.inputs), setup.inputs, work, env)
        round_fn = workloads.ROUNDS[args.workload]
        if args.trace:
            trace_path = root / WORK_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
            rounds, metrics, same = trace_run(round_fn, ctx, trace_path)
        else:
            rounds = measure(round_fn, ctx, args.seconds, setup)
            metrics = end_to_end(setup.seconds, rounds)
            same = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    deterministic = setup.deterministic

    ops = [o for r in rounds for o in r]
    failed = [o for o in ops if not o.ok]
    unexpected = [o for o in failed if o.fault is None]
    for o in unexpected:
        print(f"FAIL {o.name}: {o.why}", file=sys.stderr)
    if not same:
        print("FAIL traced and untraced rounds reached different verdicts", file=sys.stderr)
    if not deterministic:
        print("FAIL set-up runs with one seed wrote different inputs", file=sys.stderr)
    faults = sorted({o.fault for o in failed if o.fault})
    n_verdicts = sum(1 for o in ops if o.in_median)
    walls = " ".join(f"{sum(o.seconds for o in r):.3f}" for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds ({walls} s), "
          f"{len(ops)} operations, {n_verdicts} verdicts; known faults failing: "
          + (", ".join(f"{f} x{sum(o.fault == f for o in failed)}" for f in faults) or "none"))
    print(json.dumps({
        "correct": not unexpected and same and deterministic,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0
