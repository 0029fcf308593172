"""Correctness oracle: read a study's output files and compare them with
the reference values committed in perfbench/reference/.

`read_outputs` turns the files a study wrote into plain JSON data;
`make_reference.py` stores that data once, and `check` compares a later
run's data against it. A non-empty list of mismatches fails the study.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from study import OUTPUT_FILES, WORKLOADS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-8
# a free-regime inf-sup constant this far below its Dirichlet value is degenerate
DEGENERATE_RATIO = 1e-6
# VTK coordinates are snapped to this grid before comparing; refined
# vertices are dyadic, so the snap is exact for them
COORD_SCALE = 2.0**40

CSV_HEADERS = {
    "converge": "step,dofs,eta,rel_error",
    "adapt": "step,dofs,eta,rel_error",
    "infsup": "formulation,level,regime,gamma,ntrial",
}


def _read_csv(path: Path, header: str) -> list:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: unexpected header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _check_manifest(out_dir: Path, artifact: str):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    entries = {e["file"]: e["sha256"] for e in manifest["artifacts"].values()}
    digest = hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
    if entries.get(artifact) != digest:
        raise ValueError(f"manifest.json does not hold the hash of {artifact}")


def canonical_vtk(path: Path) -> dict:
    """Counts plus a hash of the mesh that ignores vertex and triangle
    numbering: sorted vertex coordinates, and triangles as sorted triples
    of those coordinates' ranks."""
    lines = path.read_text().splitlines()
    head = next(i for i, l in enumerate(lines) if l.startswith("POINTS "))
    nv = int(lines[head].split()[1])
    pts = np.array(" ".join(lines[head + 1 : head + 1 + nv]).split(), dtype=float).reshape(nv, 3)
    cell = head + 1 + nv
    if not lines[cell].startswith("CELLS "):
        raise ValueError("VTK: CELLS must follow POINTS")
    nt = int(lines[cell].split()[1])
    cells = np.array(" ".join(lines[cell + 1 : cell + 1 + nt]).split(), dtype=np.int64).reshape(nt, 4)
    if np.any(cells[:, 0] != 3):
        raise ValueError("VTK: non-triangle cell")
    q = np.rint(pts[:, :2] * COORD_SCALE).astype(np.int64)
    order = np.lexsort((q[:, 1], q[:, 0]))
    rank = np.empty(nv, dtype=np.int64)
    rank[order] = np.arange(nv)
    tris = np.sort(rank[cells[:, 1:]], axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    sq = q[order]
    distinct = 1 + int(np.count_nonzero(np.any(sq[1:] != sq[:-1], axis=1))) if nv else 0
    h = hashlib.sha256(sq.tobytes())
    h.update(tris.tobytes())
    return {"vertices": nv, "distinct_vertices": distinct, "triangles": nt, "sha256": h.hexdigest()}


def read_outputs(workload: str, out_dir: Path) -> dict:
    study = WORKLOADS[workload]["study"]
    path = out_dir / OUTPUT_FILES[study]
    if study == "dump-mesh":
        return {"mesh": canonical_vtk(path)}
    rows = _read_csv(path, CSV_HEADERS[study])
    _check_manifest(out_dir, path.name)
    if study == "infsup":
        return {
            "rows": [
                {"formulation": f, "level": int(l), "regime": r, "gamma": float(g), "ntrial": int(n)}
                for f, l, r, g, n in rows
            ]
        }
    return {
        "rows": [
            {"step": int(s), "dofs": float(d), "eta": float(e), "rel_error": float(r)}
            for s, d, e, r in rows
        ]
    }


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check(workload: str, got: dict, ref: dict) -> list:
    """Mismatches between a run's outputs and the reference."""
    study = WORKLOADS[workload]["study"]
    if study == "dump-mesh":
        return [
            f"mesh {k}: got {got['mesh'][k]}, expected {v}"
            for k, v in ref["mesh"].items()
            if got["mesh"].get(k) != v
        ]
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{len(got['rows'])} rows, expected {len(ref['rows'])}"]
    bad = []
    if study == "infsup":
        key = lambda r: (r["formulation"], r["level"], r["regime"])
        refs = {key(r): r for r in ref["rows"]}
        for r in got["rows"]:
            e = refs.get(key(r))
            if e is None:
                bad.append(f"unexpected row {key(r)}")
                continue
            if r["ntrial"] != e["ntrial"]:
                bad.append(f"{key(r)} ntrial {r['ntrial']} != {e['ntrial']}")
            dirichlet = refs[(r["formulation"], r["level"], "dirichlet")]["gamma"]
            if r["regime"] == "free" and e["gamma"] <= DEGENERATE_RATIO * dirichlet:
                if r["gamma"] > DEGENERATE_RATIO * dirichlet:
                    bad.append(f"{key(r)} gamma {r['gamma']!r} no longer degenerate")
            elif _rel(r["gamma"], e["gamma"]) > REL_TOL:
                bad.append(f"{key(r)} gamma {r['gamma']!r} != {e['gamma']!r}")
        return bad
    for r, e in zip(got["rows"], ref["rows"]):
        if r["step"] != e["step"] or r["dofs"] != e["dofs"]:
            bad.append(f"step {e['step']}: dofs {r['dofs']!r} != {e['dofs']!r}")
        for k in ("eta", "rel_error"):
            if _rel(r[k], e[k]) > REL_TOL:
                bad.append(f"step {e['step']}: {k} {r[k]!r} != {e[k]!r}")
    return bad
