"""The contract between the package and perfbench's outside-in tracer.

`perfbench/spans.py` rebinds dpgelast's public functions by name and
reads some of their arguments and results. This test runs its `install`
and one small ultraweak `converge` study in a fresh process, so the
rebinding never reaches the test process, and checks that the solver's
spans were recorded and that the spans cover the study.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import spans
from dpgelast import cli_io

cfg = cli_io.parse_config(
    "benchmark=smooth_square\\nformulation=ultraweak\\np=2\\np_res=4\\ninitial_n=2\\nsteps=2\\noutput_dir=" + sys.argv[2] + "\\n"
)
cfg.benchmark_setup()
rec = spans.Recorder("contract")
spans.install(rec)
with rec.span(spans.ROOT_SPAN):
    cli_io.run_convergence(cfg)
trace = rec.export()
print(json.dumps({"names": sorted({s["name"] for s in trace["spans"]}), "metrics": spans.layer_metrics(trace, 0, 0)}))
"""


def test_spans_record_the_solver_and_cover_the_study(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    names, metrics = set(out["names"]), out["metrics"]
    for span in ("dpg_solver.solve", "dpg_solver.scatter", "dpg_solver.condense", "dpg_solver.factor_solve"):
        assert span in names, span
    assert metrics["dpg_solver.solves"] == 3
    assert 0 < metrics["dpg_solver.free_dofs"] <= metrics["dpg_solver.ndof"]
    assert metrics["dpg_solver.K_nnz"] > 0 and metrics["dpg_solver.lu_fill_nnz"] > 0
    assert metrics["trace.coverage"] >= 0.9
