"""Architecture checks on the package source: the reference-tensor element
kernels are called by the element assembly of forms only, so every other
module takes its blocks from forms.assemble_local_blocks; every sparse LU
is made in dpg_solver._factor_checked, with SuperLU's panel size left at
its default; no module uses an iterative solver, so every sparse solve
goes through that one factorization; free dofs are computed by
forms.free_ids, from a boolean mask and with no setdiff1d anywhere, called
by forms.slot_layout, and by dpg_solver._solve_constrained on the interface
numbering, only; and each element fact is stored once: the affine maps
and the skeleton are built by Mesh.geometry and Mesh.skeleton alone, and
no other module imports the skeleton builder, the edge orientations and
the geometry classes are defined in mesh.py alone and built by
Mesh.edge_flips and Mesh.classes, a space keeps typed fields,
not a payload dict, and an element operator is one M = [B | Bhat], never
glued from a separate trace block."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dpgelast"
ELEMENT_KERNELS = {"volume_blocks", "basis_pairing"}


def called_names(path):
    """Names of the functions called in a module, bare or as attributes."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            yield f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_forms_calls_the_element_kernels():
    assert ELEMENT_KERNELS <= set(called_names(SRC / "forms.py"))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "forms.py"))
def test_element_kernels_called_only_in_forms(module):
    assert not ELEMENT_KERNELS & set(called_names(SRC / module))


def referencing_functions(path, name, calls_only=False):
    """For each reference to `name` in a module, bare or as an attribute (with
    calls_only, each call of it), the innermost function around it (None at
    module level)."""
    tree = ast.parse(path.read_text())
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so inner functions overwrite outer
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if calls_only:
            if not isinstance(node, ast.Call):
                continue
            node = node.func
        if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
            yield owner.get(node)


def test_splu_only_in_factor_checked():
    # one factorization site, so every sparse LU turns SuperLU's failure into LinAlgError
    sites = [(p.name, fn) for p in sorted(SRC.glob("*.py")) for fn in referencing_functions(p, "splu")]
    assert sites == [("dpg_solver.py", "_factor_checked")]


def test_free_dofs_only_in_slot_layout():
    # one numbering of slot spaces: every other path reads TrialLayout.free;
    # free ids come from one mask (forms.free_ids), never from a sorting setdiff1d
    assert not [p.name for p in SRC.glob("*.py") if list(referencing_functions(p, "setdiff1d"))]
    sites = {(p.name, fn) for p in sorted(SRC.glob("*.py")) for fn in referencing_functions(p, "free_ids", calls_only=True)}
    assert sites == {("forms.py", "slot_layout"), ("dpg_solver.py", "_solve_constrained")}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_panel_size(module):
    # in a sweep, a panel_size below relax crashed SuperLU at interpreter exit
    tree = ast.parse((SRC / module).read_text())
    assert not [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.keyword) and node.arg == "panel_size")
        or (isinstance(node, ast.Constant) and node.value == "panel_size")
    ]


# scipy.sparse.linalg's Krylov solvers
ITERATIVE_SOLVERS = {"cg", "cgs", "bicg", "bicgstab", "gmres", "lgmres", "minres", "qmr", "gcrotmk", "tfqmr", "lsqr", "lsmr"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_iterative_solver(module):
    # one sparse solve path: a failed factorization raises, nothing falls back
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(ast.parse((SRC / module).read_text()))}
    assert not ITERATIVE_SOLVERS & names


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_payload_or_separate_trace_block(module):
    # a space's facts are typed fields; the element operator is one M = [B | Bhat]
    tree = ast.parse((SRC / module).read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = attrs | {getattr(node, "id", None) or getattr(node, "arg", None) for node in ast.walk(tree)}
    assert "payload" not in attrs
    assert "Bhat" not in names


def test_geometry_built_only_by_the_mesh():
    # one affine map per mesh, which every space and formulation reads
    sites = [(p.name, fn) for p in sorted(SRC.glob("*.py")) for fn in referencing_functions(p, "Geometry", calls_only=True)]
    assert sites == [("mesh.py", "geometry")]


def test_skeleton_built_only_by_the_mesh():
    # one skeleton per mesh, which every space and formulation reads; an
    # import of the builder counts under any alias
    imports = [
        p.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ImportFrom) and any(a.name == "skeleton" for a in node.names)
    ]
    sites = [(p.name, fn) for p in sorted(SRC.glob("*.py")) for fn in referencing_functions(p, "skeleton", calls_only=True)]
    assert imports == []
    assert sites == [("mesh.py", "skeleton")]


def test_edge_flips_and_classes_only_in_the_mesh():
    # both depend on the mesh alone, so the mesh builds them once
    defs = [
        (p.name, node.name)
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("edge_flips", "geometry_classes")
    ]
    sites = [(p.name, fn) for p in sorted(SRC.glob("*.py")) for fn in referencing_functions(p, "geometry_classes", calls_only=True)]
    assert sorted(defs) == [("mesh.py", "edge_flips"), ("mesh.py", "geometry_classes")]
    assert sites == [("mesh.py", "classes")]
