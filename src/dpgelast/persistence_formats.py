"""On-disk formats: solution snapshots and study manifests.

Both formats are plain text so regression baselines stay diffable.
Solution files carry a versioned header, the identifiers needed to
rebuild the discrete spaces (formulation, orders, material), a mesh
fingerprint, and one coefficient block per trial slot written with 17
significant digits, which round-trips doubles exactly. Version 3 files
hold H1 coefficients in the topological numbering (vertices, edge
interiors, cell interiors) and conforming H(div) interior coefficients
dual to moments against the orthonormal reference modal basis. Older
files are rejected: version 2 holds interior coefficients dual to
monomial moments, version 1 the coordinate-based H1 numbering.

A study manifest records the configuration snapshot, the artifact files
a run produced, and their sha256 hashes; loading verifies every file
still exists and hashes match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .material import MaterialParams

FORMAT_VERSION = 3
MANIFEST_VERSION = 1
# what parsing a malformed file raises: bad numbers or JSON, missing keys
# or lines, JSON of the wrong shape
MALFORMED = (ValueError, KeyError, IndexError, TypeError, AttributeError)


class PersistenceError(RuntimeError):
    pass


def _mesh_fingerprint(mesh):
    return {
        "generation": int(mesh.generation),
        "num_vertices": int(mesh.num_vertices),
        "num_triangles": int(mesh.num_triangles),
    }


def save_solution(fields, path):
    """Write a SolutionFields snapshot as versioned decimal text."""
    path = Path(path)
    lines = [f"solutionfile v{FORMAT_VERSION}"]
    header = {
        "spec_name": fields.spec_name,
        "p": int(fields.p),
        "dp": int(fields.dp),
        "lam": repr(float(fields.material.lam)),
        "mu": repr(float(fields.material.mu)),
        "mesh": _mesh_fingerprint(fields.mesh),
        "slots": {name: [fields.spaces[name].kind, int(len(c))] for name, c in fields.coeffs.items()},
    }
    lines.append(json.dumps(header, sort_keys=True))
    for name in sorted(fields.coeffs):
        c = fields.coeffs[name]
        lines.append(f"slot {name} {len(c)}")
        lines.extend("%.17g" % v for v in c)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as err:
        raise PersistenceError(f"cannot write solution file {path}: {err}") from err


def load_solution(path, spec, mesh, bc=None):
    """Reconstruct a SolutionFields snapshot written by save_solution.

    spec is the solve path the file is expected to hold (SOLVE_PATHS),
    whose formulation path_formulation rebuilds; mesh must carry the same
    generation fingerprint the solution was saved with. bc is the problem
    data (BCData) the solution was computed with; a file cannot hold
    callables, so the rebuilt formulation and its boundary constraints
    take it from here (zero data by default). A file that cannot be read
    or parsed raises PersistenceError.
    """
    from .forms import trial_layout
    from .dpg_solver import SOLVE_PATHS, _fields_from_vector, path_formulation

    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise PersistenceError(f"cannot read solution file {path}: {err}") from err
    lines = text.splitlines()
    if not lines or not lines[0].startswith("solutionfile v"):
        raise PersistenceError(f"{path}: not a solution file")
    try:
        version = int(lines[0].split("v")[-1])
        if version != FORMAT_VERSION:
            raise PersistenceError(f"{path}: unsupported format version {version}")
        header = json.loads(lines[1])
        if header["spec_name"] != spec:
            raise PersistenceError(
                f"{path}: formulation mismatch (file holds {header['spec_name']!r}, expected {spec!r})"
            )
        fp = _mesh_fingerprint(mesh)
        if fp != header["mesh"]:
            raise PersistenceError(
                f"{path}: mesh mismatch (file {header['mesh']}, given {fp})"
            )
        material = MaterialParams(lam=float(header["lam"]), mu=float(header["mu"]))
        p, dp = header["p"], header["dp"]
        coeffs = {}
        i = 2
        while i < len(lines):
            parts = lines[i].split()
            if len(parts) != 3 or parts[0] != "slot":
                raise PersistenceError(f"{path}: malformed slot header at line {i + 1}")
            name, n = parts[1], int(parts[2])
            coeffs[name] = np.array([float(v) for v in lines[i + 1 : i + 1 + n]])
            i += 1 + n
        if {name: len(c) for name, c in coeffs.items()} != {name: n for name, (_, n) in header["slots"].items()}:
            raise PersistenceError(f"{path}: slot blocks do not match the header")
    except MALFORMED as err:
        raise PersistenceError(f"{path}: malformed solution file: {err!r}") from err

    if spec not in SOLVE_PATHS:
        raise PersistenceError(f"{path}: unknown formulation {spec!r}")
    form = path_formulation(spec, mesh, material, p, dp=dp, bc=bc)
    rebuilt = {name: [s.kind, s.ndof] for name, s in form.trial_spaces.items()}
    if rebuilt != header["slots"]:
        raise PersistenceError(f"{path}: slots {header['slots']} (kind, dofs) do not match the rebuilt spaces {rebuilt}")
    layout = trial_layout(form)
    fields = _fields_from_vector(form, layout, np.concatenate([coeffs[name] for name in layout.offsets]))
    return replace(fields, spec_name=spec, form=None if spec == "galerkin" else form)  # the estimator rejects a Galerkin solution


# ---------------------------------------------------------------------------
# study manifests


def sha256_file(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class StudyManifest:
    """Index of a study's artifacts with content hashes."""

    config: dict
    artifacts: dict = field(default_factory=dict)  # name -> {"file":, "sha256":}
    code_version: str = ""

    def add_artifact(self, name, path):
        self.artifacts[name] = {"file": str(Path(path).name), "sha256": sha256_file(path)}

    def save(self, path):
        payload = {
            "manifest_version": MANIFEST_VERSION,
            "config": self.config,
            "artifacts": self.artifacts,
            "code_version": self.code_version,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path, verify=True):
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
            if payload.get("manifest_version") != MANIFEST_VERSION:
                raise PersistenceError(f"{path}: unsupported manifest version")
            m = cls(
                config=payload["config"],
                artifacts=payload["artifacts"],
                code_version=payload.get("code_version", ""),
            )
            if verify:
                for name, entry in m.artifacts.items():
                    f = path.parent / entry["file"]
                    if not f.exists():
                        raise PersistenceError(f"manifest artifact missing: {f}")
                    h = sha256_file(f)
                    if h != entry["sha256"]:
                        raise PersistenceError(f"manifest hash mismatch for {f}")
        except MALFORMED as err:
            raise PersistenceError(f"{path}: malformed manifest: {err!r}") from err
        return m
