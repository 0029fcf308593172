"""Round-trip and tamper tests for the solution and manifest files."""

import json
import re

import numpy as np
import pytest

from dpgelast.mesh import build_square_mesh, uniform_refine
from dpgelast.exact_solutions import smooth_solution_2d
from dpgelast.forms import bc_from_exact
from dpgelast.dpg_solver import assemble_and_solve, solve
from dpgelast.residual_adaptivity import element_residuals
from dpgelast.persistence_formats import (
    FORMAT_VERSION,
    PersistenceError,
    save_solution,
    load_solution,
    sha256_file,
    StudyManifest,
)


@pytest.fixture(scope="module")
def solved():
    smooth = smooth_solution_2d()
    mesh = build_square_mesh(2)
    f = solve("ultraweak", mesh, smooth.material, 2, bc=bc_from_exact(smooth))
    return mesh, f


class TestSolutionFile:
    def test_round_trip_bit_exact(self, solved, tmp_path):
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        g = load_solution(path, "ultraweak", mesh)
        assert set(g.coeffs) == set(f.coeffs)
        for name in f.coeffs:
            assert np.array_equal(g.coeffs[name], f.coeffs[name]), name
        # trace slots are persisted alongside the volume fields
        assert "uhat" in g.coeffs and "shat" in g.coeffs

    def test_header_metadata(self, solved, tmp_path):
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"solutionfile v{FORMAT_VERSION}"
        header = json.loads(lines[1])
        assert header["spec_name"] == "ultraweak" and header["p"] == 2
        assert header["mesh"]["num_triangles"] == mesh.num_triangles

    def test_spec_mismatch_rejected(self, solved, tmp_path):
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        with pytest.raises(PersistenceError, match="mismatch"):
            load_solution(path, "primal", mesh)

    def test_mesh_mismatch_rejected(self, solved, tmp_path):
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        with pytest.raises(PersistenceError, match="mesh"):
            load_solution(path, "ultraweak", uniform_refine(mesh))

    def test_bad_version_rejected(self, solved, tmp_path):
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        body = path.read_text().splitlines()
        body[0] = "solutionfile v99"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(PersistenceError, match="version"):
            load_solution(path, "ultraweak", mesh)

    def test_v1_file_rejected(self, solved, tmp_path):
        # v1 files hold H1 blocks in the old coordinate-hashed node order
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        body = path.read_text().splitlines()
        body[0] = "solutionfile v1"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(PersistenceError, match="unsupported format version 1"):
            load_solution(path, "ultraweak", mesh)

    def test_v2_file_rejected(self, solved, tmp_path):
        # v2 files hold conforming H(div) interior coefficients dual to monomial moments
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        body = path.read_text().splitlines()
        body[0] = "solutionfile v2"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(PersistenceError, match="unsupported format version 2"):
            load_solution(path, "ultraweak", mesh)

    def test_block_shorter_than_its_header_rejected(self, solved, tmp_path):
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        body = path.read_text().splitlines()
        k = max(i for i, line in enumerate(body) if line.startswith("slot "))
        _, name, n = body[k].split()
        body[k] = f"slot {name} {int(n) - 1}"
        path.write_text("\n".join(body[:-1]) + "\n")
        with pytest.raises(PersistenceError, match="slot blocks do not match the header"):
            load_solution(path, "ultraweak", mesh)

    def _without_spec_name(body):
        header = json.loads(body[1])
        del header["spec_name"]
        return [body[0], json.dumps(header)] + body[2:]

    # each edit of a saved file, and the parse error it raised unwrapped
    MALFORMED_EDITS = {
        "version_tag": (lambda body: ["solutionfile vX"] + body[1:], ValueError),
        "slot_count": (lambda body: body[:2] + [body[2].rsplit(" ", 1)[0] + " x"] + body[3:], ValueError),
        "value": (lambda body: body[:3] + ["one"] + body[4:], ValueError),
        "header_json": (lambda body: [body[0], "{not json"] + body[2:], json.JSONDecodeError),
        "header_keys": (_without_spec_name, None),
        "first_line_only": (lambda body: body[:1], IndexError),
    }

    @pytest.mark.parametrize("edit", sorted(MALFORMED_EDITS))
    def test_malformed_file_raises_persistence_error(self, solved, tmp_path, edit):
        # a parse failure names the file and chains the error behind it
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        change, cause = self.MALFORMED_EDITS[edit]
        path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")
        with pytest.raises(PersistenceError, match=re.escape(str(path))) as info:
            load_solution(path, "ultraweak", mesh)
        if cause is not None:
            assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize(
        "key, value",
        [("p", "2"), ("p", 2.5), ("p", None), ("p", 0), ("p", -1), ("p", True), ("dp", True), ("dp", "1"), ("dp", -1)],
    )
    def test_bad_orders_raise_persistence_error(self, solved, tmp_path, key, value):
        # the orders rebuild the spaces, so one of the wrong type or range is malformed
        mesh, f = solved
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        body = path.read_text().splitlines()
        header = json.loads(body[1])
        header[key] = value
        path.write_text("\n".join([body[0], json.dumps(header)] + body[2:]) + "\n")
        with pytest.raises(PersistenceError, match=re.escape(str(path))):
            load_solution(path, "ultraweak", mesh)

    def test_reloaded_solution_estimates_like_the_original(self, tmp_path):
        smooth = smooth_solution_2d()
        mesh = build_square_mesh(3)
        bc = bc_from_exact(smooth)
        f = solve("primal", mesh, smooth.material, 2, bc=bc)
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        g = load_solution(path, "primal", mesh, bc=bc)
        assert g.num_free_dofs() == f.num_free_dofs()
        assert np.array_equal(element_residuals(g).eta, element_residuals(f).eta)

    @pytest.mark.parametrize("spec", ["fosls", "hybrid_mixed", "hybrid_mixed_conservative"])
    def test_least_squares_round_trip(self, spec, tmp_path):
        # load_solution rebuilds these on their base formulations, strong and mixed
        smooth = smooth_solution_2d()
        mesh = build_square_mesh(3)
        bc = bc_from_exact(smooth)
        f = solve(spec, mesh, smooth.material, 2, bc=bc)
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        g = load_solution(path, spec, mesh, bc=bc)
        assert g.spec_name == spec and g.dp == f.dp
        assert set(g.coeffs) == set(f.coeffs)
        for name in f.coeffs:
            assert np.array_equal(g.coeffs[name], f.coeffs[name]), name
        assert np.array_equal(element_residuals(g).eta, element_residuals(f).eta)

    def test_conservative_file_is_not_a_plain_hybrid_file(self, tmp_path):
        # the file names the solve path, so a reload says whether the
        # elementwise momentum balance was imposed
        smooth = smooth_solution_2d()
        mesh = build_square_mesh(2)
        bc = bc_from_exact(smooth)
        path = tmp_path / "sol.txt"
        save_solution(solve("hybrid_mixed_conservative", mesh, smooth.material, 1, bc=bc), path)
        with pytest.raises(PersistenceError):
            load_solution(path, "hybrid_mixed", mesh, bc=bc)

    def test_fosls_reload_rebuilds_the_solved_formulation(self, tmp_path):
        # FOSLS solves Strong at dp=0 with order-p L2 test spaces, not order p-1
        smooth = smooth_solution_2d()
        mesh = build_square_mesh(4)
        bc = bc_from_exact(smooth)
        f = solve("fosls", mesh, smooth.material, 2, bc=bc)
        path = tmp_path / "sol.txt"
        save_solution(f, path)
        g = load_solution(path, "fosls", mesh, bc=bc)
        assert {n: s.order for n, s in g.form.test_spaces.items()} == {n: s.order for n, s in f.form.test_spaces.items()}
        x, ref = assemble_and_solve(g.form).full_vector(), f.full_vector()
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_not_a_solution_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(PersistenceError):
            load_solution(path, "primal", build_square_mesh(1))

    def test_galerkin_file(self, tmp_path):
        smooth = smooth_solution_2d()
        mesh = build_square_mesh(2)
        f = solve("galerkin", mesh, smooth.material, 1, bc=bc_from_exact(smooth))
        path = tmp_path / "gal.txt"
        save_solution(f, path)
        g = load_solution(path, "galerkin", mesh)
        assert np.array_equal(g.coeffs["u"], f.coeffs["u"])

    def test_galerkin_reload_layout(self, tmp_path):
        smooth = smooth_solution_2d()
        mesh = build_square_mesh(2)
        bc = bc_from_exact(smooth)
        f = solve("galerkin", mesh, smooth.material, 2, bc=bc)
        path = tmp_path / "gal.txt"
        save_solution(f, path)
        g = load_solution(path, "galerkin", mesh, bc=bc)
        assert g.num_free_dofs() == f.num_free_dofs()
        assert np.array_equal(g.layout.constrained, f.layout.constrained)
        assert np.array_equal(g.layout.values, f.layout.values)
        assert np.array_equal(g.full_vector(), f.full_vector())


class TestManifest:
    def test_round_trip_with_hash_verify(self, tmp_path):
        art = tmp_path / "data.csv"
        art.write_text("a,b\n1,2\n")
        m = StudyManifest(config={"p": 1}, code_version="0.1.0")
        m.add_artifact("data", art)
        mpath = tmp_path / "manifest.json"
        m.save(mpath)
        loaded = StudyManifest.load(mpath, verify=True)
        assert loaded.config == {"p": 1}
        assert loaded.artifacts["data"]["sha256"] == sha256_file(art)

    def test_tampered_artifact_detected(self, tmp_path):
        art = tmp_path / "data.csv"
        art.write_text("a,b\n1,2\n")
        m = StudyManifest(config={})
        m.add_artifact("data", art)
        mpath = tmp_path / "manifest.json"
        m.save(mpath)
        art.write_text("a,b\n1,3\n")
        with pytest.raises(PersistenceError, match="hash"):
            StudyManifest.load(mpath, verify=True)

    def test_missing_artifact_detected(self, tmp_path):
        art = tmp_path / "data.csv"
        art.write_text("x\n")
        m = StudyManifest(config={})
        m.add_artifact("data", art)
        mpath = tmp_path / "manifest.json"
        m.save(mpath)
        art.unlink()
        with pytest.raises(PersistenceError):
            StudyManifest.load(mpath, verify=True)

    def test_load_without_verify(self, tmp_path):
        art = tmp_path / "data.csv"
        art.write_text("x\n")
        m = StudyManifest(config={})
        m.add_artifact("data", art)
        mpath = tmp_path / "manifest.json"
        m.save(mpath)
        art.unlink()
        loaded = StudyManifest.load(mpath, verify=False)
        assert "data" in loaded.artifacts

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("not json\n", json.JSONDecodeError),
            ('{"manifest_version": 1, "artifacts": {}}\n', KeyError),
            ("[1, 2]\n", AttributeError),
            ('{"manifest_version": 1, "config": {}, "artifacts": {"data": {}}}\n', KeyError),
        ],
        ids=["not_json", "no_config", "json_list", "artifact_without_file"],
    )
    def test_malformed_manifest_raises_persistence_error(self, tmp_path, text, cause):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(text)
        with pytest.raises(PersistenceError, match=re.escape(str(mpath))) as info:
            StudyManifest.load(mpath)
        assert isinstance(info.value.__cause__, cause)
