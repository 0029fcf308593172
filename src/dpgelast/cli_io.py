"""Config-driven command-line front end.

Runs are described by a plain key=value config (file or command-line
overrides): benchmark, formulation, orders, refinement schedule,
material, and output directory. Studies write fixed-header CSV files
with 17-significant-digit decimal values, so identical configs produce
byte-identical outputs; wall-clock timings are kept in the in-memory
records only. Subcommands: converge, adapt, infsup, dump-mesh.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from .material import MaterialParams
from .mesh import build_square_mesh, build_lshape_mesh, uniform_refine, write_vtk
from .exact_solutions import smooth_solution_2d, singular_solution, error_norms
from .forms import bc_from_exact, FORMULATION_IDS
from .dpg_solver import solve
from .residual_adaptivity import element_residuals, adaptive_loop
from .infsup_lab import discrete_infsup
from .persistence_formats import StudyManifest

BENCHMARKS = ("smooth_square", "lshape_singular")
METHODS = FORMULATION_IDS + ("galerkin",)

# Fixed, documented CSV headers.
CONVERGENCE_HEADER = "step,dofs,eta,rel_error"
INFSUP_HEADER = "formulation,level,regime,gamma,ntrial"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    benchmark: str = "smooth_square"
    formulation: str = "primal"
    p: int = 1
    dp: int = 1
    p_res: int = 4
    steps: int = 4
    initial_n: int = 2
    lam: float = 1.0
    mu: float = 1.0
    theta: float = 0.5
    output_dir: str = "."

    def validate(self):
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"benchmark must be one of {BENCHMARKS}, got {self.benchmark!r}")
        if self.formulation not in METHODS:
            raise ConfigError(f"formulation must be one of {METHODS}, got {self.formulation!r}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.dp < 0:
            raise ConfigError(f"dp must be >= 0, got {self.dp}")
        if self.p_res < self.p + 1:
            raise ConfigError(f"p_res must be >= p + 1, got p_res={self.p_res} with p={self.p}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.theta < 1.0:
            raise ConfigError(f"theta must lie in [0, 1), got {self.theta}")
        try:
            MaterialParams(lam=self.lam, mu=self.mu)
        except ValueError as err:  # its message names lam or mu
            raise ConfigError(str(err)) from None
        return self

    def benchmark_setup(self):
        if self.benchmark == "smooth_square":
            exact = smooth_solution_2d(MaterialParams(lam=self.lam, mu=self.mu))
            mesh = build_square_mesh(self.initial_n)
        else:
            exact = singular_solution(MaterialParams(lam=self.lam, mu=self.mu))
            mesh = build_lshape_mesh(self.initial_n)
        return mesh, exact, bc_from_exact(exact)


_FIELD_TYPES = {f.name: f.type for f in dc_fields(RunConfig)}


def _coerce(key, raw):
    t = _FIELD_TYPES[key]  # a string, as annotations are postponed
    if t == "int":
        return int(raw)
    if t == "float":
        return float(raw)
    return raw


def _assign(cfg: RunConfig, text: str, label: str) -> RunConfig:
    """Set cfg fields from key=value lines; '#' starts a comment. Errors
    name the offending line as '<label> <number>' and the key."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{label} {lineno}: expected key=value, got {line.strip()!r}")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{label} {lineno}: unknown config key {key!r}")
        try:
            setattr(cfg, key, _coerce(key, raw))
        except ValueError as err:
            raise ConfigError(f"{label} {lineno}: bad value for {key!r}: {err}") from err
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines; '#' starts a comment. Errors carry the
    offending line number."""
    return _assign(RunConfig(), text, "line").validate()


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)


# ---------------------------------------------------------------------------
# records and rate fitting


@dataclass
class ConvergenceRecord:
    config: RunConfig
    steps: list = field(default_factory=list)  # dicts: step, dofs, eta, rel_error, wall_time
    eta_slope: float = float("nan")
    error_slope: float = float("nan")


def estimate_rate(record, K: int, key: str = "rel_error") -> float:
    """Least-squares slope of log10(value) vs log10(dofs), last K rows."""
    if K < 2:
        raise ValueError(f"rate fit needs K >= 2, got {K}")
    rows = record.steps if isinstance(record, ConvergenceRecord) else list(record)
    if len(rows) < K:
        raise ValueError(f"record has {len(rows)} rows, need at least {K}")
    rows = rows[-K:]
    dofs = np.log10([r["dofs"] for r in rows])
    vals = np.log10([r[key] for r in rows])
    if np.ptp(dofs) == 0:
        raise ValueError("degenerate rate fit: dofs are constant")
    A = np.vstack([dofs, np.ones(K)]).T
    return float(np.linalg.lstsq(A, vals, rcond=None)[0][0])


def _residual_total(cfg, fields):
    if cfg.formulation == "galerkin":
        return float("nan")
    return element_residuals(fields, p_res=cfg.p_res).total


def _write_convergence_csv(record, path):
    lines = [CONVERGENCE_HEADER]
    for row in record.steps:
        lines.append(
            "%d,%.17g,%.17g,%.17g" % (row["step"], row["dofs"], row["eta"], row["rel_error"])
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_convergence_csv(path):
    lines = Path(path).read_text().splitlines()
    if lines[0] != CONVERGENCE_HEADER:
        raise ConfigError(f"{path}: unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        step, dofs, eta, rel = line.split(",")
        rows.append(
            {"step": int(step), "dofs": float(dofs), "eta": float(eta), "rel_error": float(rel)}
        )
    return rows


def run_convergence(cfg: RunConfig) -> ConvergenceRecord:
    """Uniform refinement study: solve, estimate, measure, refine."""
    cfg.validate()
    mesh, exact, bc = cfg.benchmark_setup()
    record = ConvergenceRecord(config=cfg)
    for step in range(cfg.steps + 1):
        t0 = time.perf_counter()
        fields = solve(cfg.formulation, mesh, exact.material, cfg.p, dp=cfg.dp, bc=bc)
        eta = _residual_total(cfg, fields)
        rel, _ = error_norms(fields, exact)
        record.steps.append(
            {
                "step": step,
                "dofs": fields.num_free_dofs(),
                "eta": eta,
                "rel_error": rel,
                "wall_time": time.perf_counter() - t0,
            }
        )
        if step < cfg.steps:
            mesh = uniform_refine(mesh)
    return _finish_study(cfg, record, "convergence")


def run_adaptive(cfg: RunConfig) -> ConvergenceRecord:
    """Adaptive refinement study via the residual-driven loop."""
    cfg.validate()
    if cfg.formulation == "galerkin":
        raise ConfigError("adaptive runs need a minimum-residual formulation")
    if cfg.steps < 2:  # the rate fit needs two solves; converge's steps + 1 rows allow 1
        raise ConfigError(f"steps must be >= 2 for an adaptive run, got {cfg.steps}")
    mesh, exact, bc = cfg.benchmark_setup()
    t0 = time.perf_counter()
    history = adaptive_loop(
        cfg.formulation,
        mesh,
        exact.material,
        cfg.p,
        bc,
        steps=cfg.steps,
        dp=cfg.dp,
        p_res=cfg.p_res,
        theta=cfg.theta,
    )
    record = ConvergenceRecord(config=cfg)
    for step, h in enumerate(history):
        rel, _ = error_norms(h.fields, exact)
        record.steps.append(
            {
                "step": step,
                "dofs": h.ndofs,
                "eta": h.report.total,
                "rel_error": rel,
                "wall_time": (time.perf_counter() - t0) if step == len(history) - 1 else 0.0,
            }
        )
    return _finish_study(cfg, record, "adaptive")


def _finish_study(cfg, record, name) -> ConvergenceRecord:
    """Rate fits over the last max(2, steps - 2) rows (eta only where a
    minimum-residual method estimates it), then <name>.csv and the manifest."""
    K = max(2, cfg.steps - 2)
    record.error_slope = estimate_rate(record, K, "rel_error")
    if cfg.formulation != "galerkin":
        record.eta_slope = estimate_rate(record, K, "eta")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_convergence_csv(record, out / f"{name}.csv")
    _write_manifest(cfg, out, {name: out / f"{name}.csv"})
    return record


def run_infsup(cfg: RunConfig) -> Path:
    """Inf-sup table: 5 formulations x 3 levels x 2 boundary regimes."""
    cfg.validate()
    material = MaterialParams(lam=cfg.lam, mu=cfg.mu)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [INFSUP_HEADER]
    # n = 1 leaves some clamped trial spaces empty, start at n = 2
    meshes = [build_square_mesh(2)]
    for _ in range(2):
        meshes.append(uniform_refine(meshes[-1]))
    for spec in FORMULATION_IDS:
        for regime, g0_empty in (("dirichlet", False), ("free", True)):
            for level, mesh in enumerate(meshes):
                r = discrete_infsup(spec, mesh, material, cfg.p, gamma0_empty=g0_empty)
                lines.append(
                    "%s,%d,%s,%.17g,%d" % (spec, level, regime, r.gamma, r.ntrial)
                )
    path = out / "infsup.csv"
    path.write_text("\n".join(lines) + "\n")
    _write_manifest(cfg, out, {"infsup": path})
    return path


def _write_manifest(cfg, out_dir, artifacts):
    from . import __version__

    manifest = StudyManifest(
        config={f.name: getattr(cfg, f.name) for f in dc_fields(RunConfig)},
        code_version=__version__,
    )
    for name, path in artifacts.items():
        manifest.add_artifact(name, path)
    manifest.save(Path(out_dir) / "manifest.json")


# ---------------------------------------------------------------------------
# CLI


def _add_overrides(parser):
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return _assign(cfg, "\n".join(args.set), "override").validate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpgelast", description="minimum-residual elasticity studies"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("converge", "adapt", "infsup"):
        sp = sub.add_parser(name)
        _add_overrides(sp)
    dm = sub.add_parser("dump-mesh")
    _add_overrides(dm)
    dm.add_argument("--levels", type=int, default=0, help="uniform refinements before dumping")
    dm.add_argument("--out", default="mesh.vtk")
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "converge":
            record = run_convergence(cfg)
            print(
                "converge: %d levels, error slope %.4f, eta slope %.4f"
                % (len(record.steps), record.error_slope, record.eta_slope)
            )
        elif args.command == "adapt":
            record = run_adaptive(cfg)
            print(
                "adapt: %d steps, eta slope %.4f" % (len(record.steps), record.eta_slope)
            )
        elif args.command == "infsup":
            path = run_infsup(cfg)
            print(f"infsup: wrote {path}")
        elif args.command == "dump-mesh":
            if args.levels < 0:
                raise ConfigError(f"--levels must be non-negative, got {args.levels}")
            mesh, _, _ = cfg.benchmark_setup()
            for _ in range(args.levels):
                mesh = uniform_refine(mesh)
            write_vtk(mesh, args.out)
            print(f"dump-mesh: wrote {args.out}")
        return 0
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
