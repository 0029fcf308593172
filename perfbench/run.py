"""Benchmark of the dpgelast study entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Load is a closed loop with one
client: each study runs in a fresh process (`study.py`), one after the
other, until S seconds have passed. Every study's output files are
checked against perfbench/reference/. With --trace 0 the end-to-end
metrics are printed; with --trace 1 one untraced study is followed by
traced ones and the per-layer metrics are printed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# per-process, so two runs in one checkout cannot remove each other's files
WORK = ROOT / ".perfbench_work" / str(os.getpid())
RESULTS = ROOT / ".perfbench_results"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import spans  # noqa: E402
from study import WORKLOADS  # noqa: E402

# set-up-only processes per run; setup_s is the median over these and
# the set-up of every study
SETUP_PROBES = 4
MIN_TRACED = 2
MIN_COVERAGE = 0.9
# a run must end within 180 s, even when a study hangs
CHILD_TIMEOUT_S = 150
# no study is started that could end past this point of the run
RUN_BUDGET_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 2

# metric names and units come from BENCHMARK.json, so the two cannot drift apart
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def is_count(name) -> bool:
    """Exact counts, which must repeat between the studies of a run."""
    return PER_LAYER[name] != "s" and not name.startswith("trace.")


class Child:
    """One finished study.py process."""

    def __init__(self, workload, mode, trace, study_id, env):
        self.out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        cmd = [
            sys.executable, str(HERE / "study.py"),
            "--workload", workload, "--mode", mode, "--trace", str(trace),
            "--study-id", study_id, "--src", str(SRC), "--out", str(self.out),
        ]
        self.problems = []
        self.result = None
        spawned = time.monotonic()
        self.wall = float("inf")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{study_id}: no result within {CHILD_TIMEOUT_S} s")
            return
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.problems.append(f"{study_id}: exit code {proc.returncode}: {tail[0]}")
            return
        self.wall = time.monotonic() - spawned
        self.result = json.loads((self.out / "result.json").read_text())
        self.setup_s = self.result["setup_end"] - spawned

    def check(self, workload, reference):
        if self.result is None:
            return
        try:
            got = oracle.read_outputs(workload, self.out)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as err:
            self.problems.append(f"unreadable output: {err!r}")
            return
        self.problems += oracle.check(workload, got, reference)

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({k: str(blas_threads()) for k in BLAS_VARS})
    return env


def environment(seed, versions) -> dict:
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_vars": list(BLAS_VARS),
        "versions": versions,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


class Run:
    """Closed loop of fresh study processes for one workload."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.reference = oracle.load_reference(workload)
        self.env = child_env()
        self.studies = []
        self.problems = []
        self.n = 0

    def spawn(self, mode, trace=0):
        self.n += 1
        return Child(self.workload, mode, trace, f"{self.workload}-s{self.seed}-{self.n}", self.env)

    def study(self, trace=0):
        child = self.spawn("study", trace)
        child.check(self.workload, self.reference)
        child.cleanup()
        self.studies.append(child)
        self.problems += child.problems
        return child

    def setup_probe(self):
        child = self.spawn("setup")
        child.cleanup()
        if child.result is None:
            raise RuntimeError("; ".join(child.problems))
        return child

    def loop(self, trace, minimum):
        """Studies one after the other until `seconds` have passed."""
        t0 = time.monotonic()
        done = []
        while True:
            done.append(self.study(trace))
            elapsed = time.monotonic() - t0
            if len(done) >= minimum and elapsed >= self.seconds:
                return done
            if elapsed + 1.5 * max(c.wall for c in done) > RUN_BUDGET_S:
                return done

    @property
    def failed(self):
        return sum(1 for c in self.studies if c.problems)

    def completed(self):
        return [c for c in self.studies if c.result is not None]


def end_to_end(run: Run, setups):
    done = run.completed()
    samples = {
        "setup_s": setups + [c.setup_s for c in done],
        "study_s": [c.result["study_s"] for c in done],
        "finest_step_s": [c.result["finest_step_s"] for c in done],
        "peak_rss_mb": [c.result["peak_rss_kb"] / 1024.0 for c in done],
    }
    return samples, {k: statistics.median(v) for k, v in samples.items()}


def per_layer(run: Run, untraced, traced):
    layers = [spans.layer_metrics(c.result["trace"], c.result["fallbacks"], c.result["large_residual"])
              for c in traced]
    for c, m in zip(traced, layers):
        if m["trace.coverage"] < MIN_COVERAGE:
            c.problems.append(f"trace.coverage {m['trace.coverage']:.3f} < {MIN_COVERAGE}")
            run.problems.append(c.problems[-1])
    counts = [{k: m[k] for k in PER_LAYER if is_count(k)} for m in layers]
    for c, cnt in zip(traced[1:], counts[1:]):
        diff = sorted(k for k in cnt if cnt[k] != counts[0][k])
        if diff:
            c.problems.append(f"counts differ between studies: {diff}")
            run.problems.append(c.problems[-1])
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in layers]
        metrics[name] = values[0] if is_count(name) else statistics.median(values)
    traced_s = statistics.median(m["trace.study_s"] for m in layers)
    metrics["trace.overhead_s"] = traced_s - untraced.result["study_s"]
    return layers, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dpgelast study benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dpgelast" / "__init__.py").is_file():
        print(f"error: no dpgelast package under {SRC}", file=sys.stderr)
        return 2
    # the studies take no random input: the seed is recorded only
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        # the first process after a source change compiles bytecode; users
        # pay that once, so it is not timed
        warm = run.setup_probe()
        if args.trace:
            untraced = run.study(0)
            traced = run.loop(1, MIN_TRACED)
            traced = [c for c in traced if c.result is not None]
            if untraced.result is None or not traced:
                raise RuntimeError("; ".join(run.problems))
            layers, metrics = per_layer(run, untraced, traced)
            units = PER_LAYER
            samples = {"traced": layers, "untraced_study_s": untraced.result["study_s"]}
            trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps([c.result["trace"] for c in traced]))
        else:
            setups = [run.setup_probe().setup_s for _ in range(SETUP_PROBES)]
            run.loop(0, 1)
            if not run.completed():
                raise RuntimeError("; ".join(run.problems))
            samples, metrics = end_to_end(run, setups)
            units = END_TO_END
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()

    env = environment(args.seed, warm.result["versions"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "samples": samples,
        "attempted": len(run.studies),
        "failed": run.failed,
        "problems": run.problems,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("env " + json.dumps(env))
    for problem in run.problems:
        print(f"FAILED {problem}")
    fallbacks = sum(c.result["fallbacks"] + c.result["large_residual"] for c in run.completed())
    print(f"solver warnings (LU->CG fallback or large residual): {fallbacks}")
    for name, value in metrics.items():
        n = len(samples["traced"]) if args.trace else len(samples[name])
        print(f"{name:40s} {value:14.6g} {units[name]:6s} (median of {n})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.studies),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
