"""Architecture checks on the package source: the reference-tensor element
kernels are called by the element assembly of forms only, so every other
module takes its blocks from forms.assemble_local_blocks."""

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
