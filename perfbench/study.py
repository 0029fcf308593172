"""One study in one fresh process: the unit of work the benchmark times.

    python3 perfbench/study.py --workload NAME --mode study|setup --trace 0|1 --out DIR

The process imports dpgelast, parses the workload's config and calls
`benchmark_setup` (the set-up phase), records the monotonic clock, then
calls the public study entry point (the study phase). In `setup` mode it
stops before the study. It writes `result.json` into DIR; the parent
(`run.py`) reads it, checks the study's output files and aggregates.

This module imports dpgelast only inside functions, so `run.py` can read
the workload table without loading the program.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from pathlib import Path

# Each workload drives one public study entry point of dpgelast.cli_io.
WORKLOADS = {
    "uniform_ultraweak": {
        "study": "converge",
        "config": {
            "benchmark": "smooth_square",
            "formulation": "ultraweak",
            "p": 2,
            "dp": 1,
            "p_res": 4,
            "initial_n": 2,
            "steps": 4,
        },
    },
    "adaptive_lshape": {
        "study": "adapt",
        "config": {
            "benchmark": "lshape_singular",
            "formulation": "primal",
            "p": 2,
            "dp": 1,
            "p_res": 4,
            "initial_n": 4,
            "steps": 14,
            "theta": 0.3,
        },
    },
    "infsup_table": {"study": "infsup", "config": {"p": 1}},
    "mesh_dump": {
        "study": "dump-mesh",
        "config": {"benchmark": "lshape_singular", "initial_n": 2},
        "levels": 6,
    },
}

# File each study writes into its output directory.
OUTPUT_FILES = {
    "converge": "convergence.csv",
    "adapt": "adaptive.csv",
    "infsup": "infsup.csv",
    "dump-mesh": "mesh.vtk",
}

SOLVER_LOGGER = "dpgelast.dpg_solver"


class SolverHealth(logging.Handler):
    """Counts the solver's LU->CG fallback and large-residual warnings."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.fallbacks = 0
        self.large_residual = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("sparse LU failed"):
            self.fallbacks += 1
        elif msg.startswith("large linear-solve residual"):
            self.large_residual += 1


def config_text(workload: str, out_dir: Path) -> str:
    cfg = dict(WORKLOADS[workload]["config"], output_dir=str(out_dir))
    return "\n".join(f"{k}={v}" for k, v in cfg.items()) + "\n"


def dump_mesh_argv(workload: str, out_dir: Path) -> list:
    spec = WORKLOADS[workload]
    argv = ["dump-mesh"]
    for k, v in spec["config"].items():
        argv += ["--set", f"{k}={v}"]
    return argv + ["--levels", str(spec["levels"]), "--out", str(out_dir / OUTPUT_FILES["dump-mesh"])]


def call_study(cli_io, workload: str, cfg, out_dir: Path):
    """Run the workload's study; return the finest step's wall time as the
    study reports it, or None when the study reports none."""
    study = WORKLOADS[workload]["study"]
    if study == "converge":
        return cli_io.run_convergence(cfg).steps[-1]["wall_time"]
    if study == "adapt":
        return cli_io.run_adaptive(cfg).steps[-1]["wall_time"]
    if study == "infsup":
        cli_io.run_infsup(cfg)
        return None
    code = cli_io.main(dump_mesh_argv(workload, out_dir))
    if code != 0:
        raise RuntimeError(f"dump-mesh exited with code {code}")
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", choices=("study", "setup"), default="study")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--study-id", default="study")
    ap.add_argument("--src", required=True, help="directory that must hold the dpgelast package")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out_dir = Path(args.out)

    # set-up phase: everything a user pays before the study starts
    import dpgelast
    from dpgelast import cli_io

    pkg = Path(dpgelast.__file__).resolve().parent
    if pkg.parent != Path(args.src).resolve():
        raise RuntimeError(f"dpgelast imported from {pkg}, expected under {args.src}")
    health = SolverHealth()
    logging.getLogger(SOLVER_LOGGER).addHandler(health)
    cfg = cli_io.parse_config(config_text(args.workload, out_dir))
    cfg.benchmark_setup()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(args.study_id)
        spans.install(recorder)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}

    if args.mode == "study":
        t0 = time.perf_counter()
        if recorder is None:
            finest = call_study(cli_io, args.workload, cfg, out_dir)
        else:
            with recorder.span("cli_io.study"):
                finest = call_study(cli_io, args.workload, cfg, out_dir)
        study_s = time.perf_counter() - t0
        result.update(
            study_s=study_s,
            finest_step_s=finest if finest is not None else study_s,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            fallbacks=health.fallbacks,
            large_residual=health.large_residual,
        )
        if recorder is not None:
            result["trace"] = recorder.export()

    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
