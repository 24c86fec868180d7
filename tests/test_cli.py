"""Command-line driver: spec parsing, reports, exit codes, determinism."""

from __future__ import annotations

import inspect
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import I2, PAULI_X, SQ2, SWAP_SUBGROUP
from fellbundles import approximation as approx
from fellbundles import bundles, cli, duality, groups, matrices, sections
from fellbundles.errors import ParseError


def run(capsys, *args):
    rc = cli.run_command(list(args))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def mat(m):
    return cli.encode_matrix(np.asarray(m, dtype=complex))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def pauli_spec_dict():
    return {"schema": "fellbundle/1",
            "group": {"kind": "cyclic", "n": 2},
            "ambient_dim": 2,
            "fibers": {"0": [mat(I2)], "1": [mat(PAULI_X)]}}


@pytest.fixture()
def pauli_spec(tmp_path):
    return write_json(tmp_path / "pauli.json", pauli_spec_dict())


@pytest.fixture()
def zero_spec(tmp_path):
    # every fiber is zero-dimensional: a Fell bundle, but the zero one
    spec = pauli_spec_dict()
    spec["fibers"] = {}
    return write_json(tmp_path / "zero.json", spec)


@pytest.fixture()
def broken_spec(tmp_path):
    # fiber(1) = span{E12} is not closed under the adjoint
    spec = pauli_spec_dict()
    spec["fibers"]["1"] = [mat([[0, 1], [0, 0]])]
    return write_json(tmp_path / "broken.json", spec)


class TestMatrixCodec:

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            enc = cli.encode_matrix(m)
            npt.assert_array_equal(cli.decode_matrix(enc, "m"), m)
            # and through actual JSON text: repr round trip is exact
            npt.assert_array_equal(
                cli.decode_matrix(json.loads(json.dumps(enc)), "m"), m)

    def test_rejects_plain_nesting(self):
        with pytest.raises(ParseError):
            cli.decode_matrix([[1.0, 2.0], [3.0, 4.0]], "m")

    def test_rejects_non_numeric(self):
        with pytest.raises(ParseError):
            cli.decode_matrix([[["a", "b"]]], "m")

    def test_square_shape_checked(self):
        with pytest.raises(ParseError, match="expected a 3x3"):
            cli._decode_square(mat(I2), 3, "m")


class TestParseSpec:

    def test_valid(self, tmp_path):
        g, bundle, options = cli.parse_spec(write_json(tmp_path / "s.json", pauli_spec_dict()))
        assert g.order == 2
        assert bundle.fiber_dims() == (1, 1)
        assert bundles.verify_fell_axioms(bundle)["pass"]
        assert options == {}

    def test_unlisted_fibers_are_zero(self, tmp_path):
        spec = pauli_spec_dict()
        del spec["fibers"]["1"]
        _, bundle, _ = cli.parse_spec(write_json(tmp_path / "s.json", spec))
        assert bundle.fiber_dims() == (1, 0)

    def test_options_passed_through(self, tmp_path):
        spec = pauli_spec_dict()
        spec["tolerance"] = 1e-6
        spec["normal_subgroup"] = [0]
        _, _, options = cli.parse_spec(write_json(tmp_path / "s.json", spec))
        assert options == {"tolerance": 1e-6, "normal_subgroup": (0,)}

    def test_schema_defaulted_and_checked(self, tmp_path):
        spec = pauli_spec_dict()
        del spec["schema"]
        cli.parse_spec(write_json(tmp_path / "ok.json", spec))
        spec["schema"] = "fellbundle/99"
        with pytest.raises(ParseError, match="unsupported schema"):
            cli.parse_spec(write_json(tmp_path / "bad.json", spec))

    @pytest.mark.parametrize("mutate,pattern", [
        (lambda s: s.pop("group"), "missing group"),
        (lambda s: s.pop("ambient_dim"), "missing ambient_dim"),
        (lambda s: s.update(ambient_dim=0), "must be positive"),
        (lambda s: s.update(fibers={"x": [mat(I2)]}), "not an element index"),
        (lambda s: s.update(fibers={"7": [mat(I2)]}), "outside a group"),
        (lambda s: s.update(fibers={"0": [mat(np.eye(3))]}), "expected a 2x2"),
        (lambda s: s.update(fibers=[mat(I2)]), "must map element indices"),
        (lambda s: s.update(group={"kind": "frobenius"}), "unknown group kind"),
        (lambda s: s.update(group={"n": 2}), "expected a descriptor"),
        (lambda s: s.update(group={"kind": "cyclic"}), "missing field"),
    ])
    def test_malformed(self, tmp_path, mutate, pattern):
        spec = pauli_spec_dict()
        mutate(spec)
        with pytest.raises(ParseError, match=pattern):
            cli.parse_spec(write_json(tmp_path / "bad.json", spec))

    def test_table_group_kind(self, tmp_path):
        z2 = groups.cyclic(2)
        spec = pauli_spec_dict()
        spec["group"] = {"kind": "table", "table": [list(r) for r in z2.table]}
        g, bundle, _ = cli.parse_spec(write_json(tmp_path / "s.json", spec))
        assert g.table == z2.table
        assert bundles.verify_fell_axioms(bundle)["pass"]


class TestGroupDescriptor:

    def test_colon_grammar(self):
        assert cli.group_from_descriptor("cyclic:4")[0].order == 4
        assert cli.group_from_descriptor("dihedral:4")[0].order == 8
        g, desc = cli.group_from_descriptor("symmetric:3")
        assert g.order == 6
        assert desc == {"kind": "symmetric", "n": 3}

    def test_table_descriptor(self, tmp_path):
        z4 = groups.cyclic(4)
        path = write_json(tmp_path / "t.json", {"table": [list(r) for r in z4.table]})
        g, desc = cli.group_from_descriptor(f"table:{path}")
        assert g.table == z4.table
        assert desc["kind"] == "table"
        # bare-list files work too
        path2 = write_json(tmp_path / "t2.json", [list(r) for r in z4.table])
        assert cli.group_from_descriptor(f"table:{path2}")[0].table == z4.table

    @pytest.mark.parametrize("text", ["cyclic", "cyclic:x", "frobenius:3"])
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            cli.group_from_descriptor(text)


class TestVerifyCommand:

    def test_pass(self, capsys, pauli_spec):
        rc, out, err = run(capsys, "verify", pauli_spec)
        assert rc == 0 and err == ""
        report = json.loads(out)
        assert report["command"] == "verify"
        assert report["pass"] is True
        assert report["violations"] == []
        assert set(report["checks"]) == {
            "product_closure", "adjoint_symmetry", "independent_grading",
            "unit_fiber_algebra", "cstar_identity"}

    def test_corrupted_involution_exits_1_with_report(self, capsys, broken_spec):
        rc, out, _ = run(capsys, "verify", broken_spec)
        assert rc == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["checks"]["adjoint_symmetry"]["pass"] is False
        assert report["violations"]

    def test_repeated_runs_byte_identical(self, capsys, pauli_spec):
        rc1, out1, _ = run(capsys, "verify", pauli_spec)
        rc2, out2, _ = run(capsys, "verify", pauli_spec)
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2


class TestPullbackCommand:

    def test_report(self, capsys, pauli_spec):
        rc, out, _ = run(capsys, "pullback", pauli_spec,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 0
        report = json.loads(out)
        assert report["group_order"] == 4
        assert report["ambient_dim"] == 8
        assert report["fiber_dims"] == [1, 1, 1, 1]
        assert report["section_dimension"] == 4
        assert all(v["pass"] for v in report["axioms"].values())

    def test_output_spec_round_trips(self, capsys, tmp_path, pauli_spec):
        out_path = tmp_path / "pb.json"
        rc, out, _ = run(capsys, "pullback", pauli_spec,
                         "--group", "cyclic:4", "--normal", "0,2",
                         "-o", str(out_path))
        assert rc == 0 and json.loads(out)["pass"] is True
        g, pb, _ = cli.parse_spec(str(out_path))
        assert g.order == 4 and pb.fiber_dims() == (1, 1, 1, 1)
        # written spans coincide with the in-process pull-back
        _, d, _ = cli.parse_spec(pauli_spec)
        expected = bundles.pullback(d, groups.quotient(groups.cyclic(4), (0, 2)))
        for s in range(4):
            for b in pb.fiber(s).basis_list():
                assert expected.fiber(s).residual(b) <= 1e-12
        rc2, _, _ = run(capsys, "verify", str(out_path))
        assert rc2 == 0

    def test_requires_quotient_flags(self, capsys, pauli_spec):
        rc, _, err = run(capsys, "pullback", pauli_spec)
        assert rc == 2 and err.startswith("error:")

    def test_group_mismatch_is_an_input_error(self, capsys, pauli_spec):
        rc, _, err = run(capsys, "pullback", pauli_spec,
                         "--group", "cyclic:4", "--normal", "0,1,2,3")
        assert rc == 2 and "does not match" in err


class TestCrossedCommand:

    def test_dimension_law_and_isometry(self, capsys, pauli_spec):
        rc, out, _ = run(capsys, "crossed", pauli_spec)
        assert rc == 0
        report = json.loads(out)
        assert report["crossed_dimension"] == report["expected_dimension"] == 4
        assert report["isometry_residual"] <= 1e-10

    def test_broken_bundle_exits_1(self, capsys, broken_spec):
        rc, out, _ = run(capsys, "crossed", broken_spec)
        assert rc == 1
        report = json.loads(out)
        assert report["pass"] is False and report["error"] == "AxiomViolation"

    def test_broken_bundle_detail_is_the_first_violation(self, capsys, broken_spec):
        # the detail is the repr of the first entry of verify_fell_axioms' violations
        _, out, _ = run(capsys, "crossed", broken_spec)
        assert json.loads(out)["detail"] == (
            "grading axiom failed: "
            "{'axiom': 'adjoint_symmetry', 's': 1, 't': None, 'residual': 1.0}")


class TestImprimitivityCommand:

    def test_pauli_over_z4(self, capsys, pauli_spec):
        rc, out, _ = run(capsys, "imprimitivity", pauli_spec,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 0
        report = json.loads(out)
        assert report["pass"] is True and report["violations"] == []
        assert report["gamma"] is True
        morita = report["morita"]
        assert morita["dimC"] == 4 and morita["dimB"] == 16 and morita["dimX"] == 8
        assert morita["blocksC"] == 1 and morita["blocksB"] == 1
        assert morita["equivalent"] is True

    def test_broken_base_bundle_exits_1_on_its_axioms(self, capsys, broken_spec):
        rc, out, _ = run(capsys, "imprimitivity", broken_spec,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 1
        report = json.loads(out)
        assert report["pass"] is False and report["error"] == "AxiomViolation"
        assert report["detail"].startswith("grading axiom failed: ")

    def test_zero_base_bundle_exits_1_without_a_unit(self, capsys, zero_spec):
        rc, out, _ = run(capsys, "imprimitivity", zero_spec,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 1
        assert json.loads(out) == {"command": "imprimitivity", "pass": False,
                                   "error": "NonUnitalUnitFiber",
                                   "detail": "the zero algebra has no unit"}


@pytest.fixture()
def landstad_inputs(tmp_path):
    """Concretized twisted Z4 bundle over the quotient plus its canonical family."""
    z4 = groups.cyclic(4)
    line = matrices.MatrixSubspace(1, np.ones((1, 1, 1), dtype=complex))
    act = bundles.TwistedAction(
        line, z4, groups.NormalSubgroup(z4, (0, 2)),
        np.ones((4, 1, 1), dtype=complex),
        {0: np.eye(1, dtype=complex), 2: -np.eye(1, dtype=complex)})
    real = bundles.concretize(bundles.twisted_semidirect_bundle(act))
    fam = duality.canonical_landstad_family(act, real)
    spec = cli.bundle_to_spec(real.bundle, {"kind": "cyclic", "n": 2})
    family = {"u": {str(s): mat(fam.mat(s)) for s in z4.elements()}}
    return (write_json(tmp_path / "twisted.json", spec),
            write_json(tmp_path / "family.json", family),
            real.bundle.ambient_dim)


class TestLandstadCommand:

    def test_reconstructs_twist(self, capsys, landstad_inputs):
        spec, family, n = landstad_inputs
        rc, out, _ = run(capsys, "landstad", spec, "--family", family,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 0
        report = json.loads(out)
        assert report["coefficient_dim"] == 1 and report["isomorphism"] is True
        tau2 = cli.decode_matrix(report["twist"]["2"], "twist")
        npt.assert_allclose(tau2, -np.eye(n), atol=1e-10)

    def test_family_required(self, capsys, landstad_inputs):
        spec, _, _ = landstad_inputs
        rc, _, err = run(capsys, "landstad", spec,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 2 and "--family" in err

    def test_incomplete_family(self, capsys, tmp_path, landstad_inputs):
        spec, family, _ = landstad_inputs
        data = json.loads(open(family).read())
        del data["u"]["3"]
        partial = write_json(tmp_path / "partial.json", data)
        rc, _, err = run(capsys, "landstad", spec, "--family", partial,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 2 and "missing elements" in err

    def test_corrupted_family_exits_1(self, capsys, tmp_path, landstad_inputs):
        # scaling u(1) by i breaks u(1)u(1) = u(2): a math failure, not a parse one
        spec, family, _ = landstad_inputs
        data = json.loads(open(family).read())
        u1 = cli.decode_matrix(data["u"]["1"], "u")
        data["u"]["1"] = mat(1j * u1)
        bad = write_json(tmp_path / "badfam.json", data)
        rc, out, _ = run(capsys, "landstad", spec, "--family", bad,
                         "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 1
        report = json.loads(out)
        assert report["pass"] is False and "error" in report


@pytest.fixture()
def action_spec(tmp_path):
    """Trivial Z4 action on C twisted over {0, 2} by tau(2) = -1."""
    one = mat([[1.0]])
    spec = {"schema": "fellbundle/1", "kind": "twisted_action",
            "group": {"kind": "cyclic", "n": 4},
            "normal_subgroup": [0, 2],
            "algebra": [one],
            "alpha": {str(s): one for s in range(4)},
            "tau": {"0": one, "2": mat([[-1.0]])}}
    return write_json(tmp_path / "action.json", spec)


class TestOlesenPedersenCommand:

    def test_forward_and_extraction(self, capsys, action_spec):
        rc, out, _ = run(capsys, "olesen-pedersen", action_spec)
        assert rc == 0
        report = json.loads(out)
        assert report["dim_semidirect"] == report["dim_pullback"] == 4
        assert report["isomorphism"] is True
        tau2 = cli.decode_matrix(report["extracted_twist"]["2"], "tau")
        npt.assert_allclose(tau2, [[-1.0]], atol=1e-12)
        assert report["twist_residual"] <= 1e-12

    def test_default_tau_is_the_unit(self, capsys, tmp_path, action_spec):
        # tau[0] may be omitted; the unit of the algebra is filled in
        data = json.loads(open(action_spec).read())
        del data["tau"]["0"]
        plain = write_json(tmp_path / "plain.json", data)
        rc, out, _ = run(capsys, "olesen-pedersen", plain)
        assert rc == 0 and json.loads(out)["twist_residual"] <= 1e-12

    def test_tau_missing_off_unit_element_rejected(self, capsys, tmp_path, action_spec):
        data = json.loads(open(action_spec).read())
        del data["tau"]
        rc, _, err = run(capsys, "olesen-pedersen",
                         write_json(tmp_path / "notau.json", data))
        assert rc == 2 and "tau is missing element 2" in err

    @pytest.mark.parametrize("mutate,pattern", [
        (lambda d: d["alpha"].pop("3"), "missing element 3"),
        (lambda d: d.update(algebra=[]), "nonempty list"),
        (lambda d: d.pop("alpha"), "missing alpha"),
        (lambda d: d["tau"].update({"1": mat([[1.0]])}), "not indexed by"),
        (lambda d: d.update(kind="gset_action"), "expected kind"),
    ])
    def test_malformed(self, capsys, tmp_path, action_spec, mutate, pattern):
        data = json.loads(open(action_spec).read())
        mutate(data)
        bad = write_json(tmp_path / "bad.json", data)
        rc, _, err = run(capsys, "olesen-pedersen", bad)
        assert rc == 2 and pattern.split()[0] in err


class TestGsimpleCommand:

    def test_pauli(self, capsys, pauli_spec):
        rc, out, _ = run(capsys, "gsimple", pauli_spec)
        assert rc == 0
        report = json.loads(out)
        assert report["section_dimension"] == 2
        assert report["ideal_dims"] == [0, 2]
        assert report["is_g_simple"] is True

    def test_zero_bundle_has_no_unit(self, capsys, zero_spec):
        # the section algebra is the zero algebra, so neither command has a unit to
        # start from; both name the error in a report rather than raising
        for command in ("gsimple", "report"):
            rc, out, _ = run(capsys, command, zero_spec)
            assert rc == 1
            assert json.loads(out) == {"command": command, "pass": False, "error": "NotUnital",
                                       "detail": "the zero algebra has no unit"}


@pytest.fixture()
def gset_spec(tmp_path):
    """S3 acting on the cosets of a transposition subgroup."""
    act = duality.coset_action(groups.symmetric(3), SWAP_SUBGROUP)
    spec = {"kind": "gset_action", "group": {"kind": "symmetric", "n": 3},
            "size": act.size, "perm": [list(r) for r in act.perm]}
    return write_json(tmp_path / "gset.json", spec)


class TestObstructionCommand:

    def test_free_point_blocks_induction(self, capsys, gset_spec):
        rc, out, _ = run(capsys, "obstruction", gset_spec, "--normal", "0,3,4")
        assert rc == 0
        report = json.loads(out)
        assert report["kernel"] == [0]
        assert report["induced_possible"] is False
        assert "not weakly induced" in report["verdict"]

    def test_normal_required_and_nontrivial(self, capsys, gset_spec):
        assert run(capsys, "obstruction", gset_spec)[0] == 2
        assert run(capsys, "obstruction", gset_spec, "--normal", "0")[0] == 2

    def test_non_normal_subgroup_rejected(self, capsys, gset_spec):
        # a transposition subgroup is not normal in S3
        rc, _, err = run(capsys, "obstruction", gset_spec, "--normal", "0,2")
        assert rc == 2 and err.startswith("error:")

    def test_perm_as_element_map(self, capsys, tmp_path, gset_spec):
        data = json.loads(open(gset_spec).read())
        data["perm"] = {str(s): row for s, row in enumerate(data["perm"])}
        alt = write_json(tmp_path / "gset2.json", data)
        rc, out, _ = run(capsys, "obstruction", alt, "--normal", "0,3,4")
        assert rc == 0 and json.loads(out)["kernel"] == [0]

    def test_invalid_perm_rejected(self, capsys, tmp_path, gset_spec):
        data = json.loads(open(gset_spec).read())
        data["perm"][1] = [0, 0, 0]
        bad = write_json(tmp_path / "badgset.json", data)
        assert run(capsys, "obstruction", bad, "--normal", "0,3,4")[0] == 2


class TestEpCommand:

    def test_uniform_witness(self, capsys, pauli_spec):
        rc, out, _ = run(capsys, "ep", pauli_spec)
        assert rc == 0
        report = json.loads(out)
        assert abs(report["bound"] - 1.0) <= 1e-9
        assert report["defect"] <= 1e-12
        assert report["support"] == [0, 1]

    def test_witness_file(self, capsys, tmp_path, pauli_spec):
        wit = write_json(tmp_path / "wit.json", {"f": {"0": mat(I2 / SQ2)}})
        rc, out, _ = run(capsys, "ep", pauli_spec, "--witness", wit)
        assert rc == 0
        report = json.loads(out)
        assert report["support"] == [0]
        assert abs(report["bound"] - 0.5) <= 1e-12
        assert report["defect"] > 0.3

    def test_witness_outside_unit_fiber_exits_1(self, capsys, tmp_path, pauli_spec):
        wit = write_json(tmp_path / "wit.json", {"f": {"0": mat(PAULI_X)}})
        rc, out, _ = run(capsys, "ep", pauli_spec, "--witness", wit)
        assert rc == 1
        assert json.loads(out)["error"] == "ValueOutsideUnitFiber"

    def test_witness_file_shape_checked(self, capsys, tmp_path, pauli_spec):
        assert run(capsys, "ep", pauli_spec, "--witness",
                   write_json(tmp_path / "w.json", {"f": {"0": mat(np.eye(3))}}))[0] == 2
        assert run(capsys, "ep", pauli_spec, "--witness",
                   write_json(tmp_path / "w2.json", {"g": {}}))[0] == 2


class TestReportCommand:

    def test_combined_report(self, capsys, pauli_spec):
        rc, out, _ = run(capsys, "report", pauli_spec)
        assert rc == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["crossed_dimension"] == report["expected_crossed_dimension"] == 4
        assert report["ideal_dims"] == [0, 2]
        assert report["is_g_simple"] is True
        amen = report["amenability"]
        assert amen["regular_rep_kernel_dim"] == 0
        assert amen["ep_exact_witness_found"] is True
        assert amen["witness_defect"] <= 1e-10

    def test_broken_bundle_stops_at_axioms(self, capsys, broken_spec):
        rc, out, _ = run(capsys, "report", broken_spec)
        assert rc == 1
        report = json.loads(out)
        assert report["pass"] is False and report["violations"]
        assert "crossed_dimension" not in report

    def test_byte_identical_reruns(self, capsys, pauli_spec):
        _, out1, _ = run(capsys, "report", pauli_spec)
        _, out2, _ = run(capsys, "report", pauli_spec)
        assert out1 == out2


def table_spec(bundle) -> dict:
    desc = {"kind": "table", "table": [list(r) for r in bundle.group.table]}
    return cli.bundle_to_spec(bundle, desc)


class TestCrossedFieldsAgainstTheDenseModel:
    """crossed and report read the crossed product off the bundle; the dense
    span{a_s (x) E_{st,t}} of `sections.crossed_product` is the oracle."""

    @pytest.mark.parametrize("name", ["pauli_bundle", "trivial_z4", "trivial_s3",
                                      "pauli_pullback", "twisted_z4_realized",
                                      "swap_semidirect_realized"])
    def test_dimension_and_isometry(self, capsys, tmp_path, request, name):
        bundle = request.getfixturevalue(name)
        bundle = bundle.bundle if name.endswith("_realized") else bundle
        spec = write_json(tmp_path / "spec.json", table_spec(bundle))
        cp = sections.crossed_product(bundle)
        rc, out, _ = run(capsys, "crossed", spec)
        crossed = json.loads(out)
        assert rc == 0 and crossed["pass"] is True
        assert crossed["crossed_dimension"] == crossed["expected_dimension"] == cp.total.dim
        assert crossed["ambient_dim"] == cp.ambient_dim
        assert crossed["isometry_residual"] <= 1e-10
        gap = max(abs(matrices.op_norm(cp.j_fiber(s, a)) - matrices.op_norm(a))
                  for s in bundle.group.elements() for a in bundle.fiber(s).basis_list())
        assert gap <= 1e-10
        rc, out, _ = run(capsys, "report", spec)
        assert rc == 0 and json.loads(out)["crossed_dimension"] == cp.total.dim


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child process whose address space is capped at 3 GiB."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", "from fellbundles.cli import main; main()", *argv],
                          capture_output=True, text=True, env=env, preexec_fn=limit,
                          timeout=300, check=False)


def test_s4_crossed_and_report_fit_three_gib(tmp_path, m2_full):
    # the dense crossed product of this bundle would stack 2304 matrices of
    # size 1152 x 1152, about 49 GB
    bundle = bundles.trivial_bundle(groups.symmetric(4), m2_full)
    spec = write_json(tmp_path / "m2_s4.json",
                      cli.bundle_to_spec(bundle, {"kind": "symmetric", "n": 4}))
    crossed = run_capped("crossed", spec)
    assert crossed.returncode == 0, crossed.stderr
    report = json.loads(crossed.stdout)
    assert report["crossed_dimension"] == report["expected_dimension"] == 2304
    assert report["ambient_dim"] == 1152
    combined = run_capped("report", spec)
    assert combined.returncode == 0, combined.stderr
    report = json.loads(combined.stdout)
    assert report["crossed_dimension"] == 2304
    assert report["ideal_dims"] == [0, 96]


class TestMalformedFieldsExit2:
    """A field of the wrong type is an input problem: exit 2 naming file and field."""

    @pytest.mark.parametrize("command,fixture,mutate,field", [
        ("olesen-pedersen", "action_spec", lambda d: d["tau"].update(x=mat([[1.0]])), "tau key"),
        ("olesen-pedersen", "action_spec", lambda d: d.update(normal_subgroup=[0, "two"]),
         "normal_subgroup"),
        ("olesen-pedersen", "action_spec", lambda d: d.update(tau=[mat([[1.0]])]), "tau"),
        ("obstruction", "gset_spec", lambda d: d.update(size="three"), "size"),
        ("obstruction", "gset_spec", lambda d: d["perm"][1].__setitem__(0, "a"), "perm[1]"),
        ("verify", "pauli_spec", lambda d: d.update(tolerance="tight"), "tolerance"),
        ("verify", "pauli_spec", lambda d: d.update(normal_subgroup=[0, "x"]),
         "normal_subgroup"),
    ], ids=["action-tau-key", "action-normal-subgroup", "action-tau-not-a-map", "gset-size",
            "gset-perm-entry", "spec-tolerance", "spec-normal-subgroup"])
    def test_exits_2(self, capsys, tmp_path, request, command, fixture, mutate, field):
        data = json.loads(open(request.getfixturevalue(fixture)).read())
        mutate(data)
        bad = write_json(tmp_path / "bad.json", data)
        rc, out, err = run(capsys, command, bad, "--normal", "0,3,4")
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {bad}: {field}")


class TestOutputAndExitCodes:

    def test_report_written_to_file(self, capsys, tmp_path, pauli_spec):
        out_path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "verify", pauli_spec, "-o", str(out_path))
        assert rc == 0 and out == ""
        assert json.loads(out_path.read_text())["pass"] is True

    def test_error_report_honours_output_file(self, capsys, tmp_path, broken_spec):
        out_path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "crossed", broken_spec, "-o", str(out_path))
        assert rc == 1 and out == ""
        assert json.loads(out_path.read_text())["error"] == "AxiomViolation"

    def test_tol_flag_beats_file_tolerance(self, capsys, tmp_path):
        spec = pauli_spec_dict()
        spec["tolerance"] = 1e-300  # absurdly tight; the flag must override it
        path = write_json(tmp_path / "s.json", spec)
        assert run(capsys, "verify", path, "--tol", "1e-9")[0] == 0
        assert run(capsys, "verify", path)[0] == 1

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "verify", "/nonexistent/spec.json")
        assert rc == 2 and err.startswith("error:")

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        rc, _, err = run(capsys, "verify", str(path))
        assert rc == 2 and "invalid JSON" in err

    def test_unknown_command(self, capsys, pauli_spec):
        assert run(capsys, "frobnicate", pauli_spec)[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_format_rejected(self, capsys, pauli_spec):
        assert run(capsys, "verify", pauli_spec, "--format", "xml")[0] == 2

    def test_main_entry_point(self, capsys, monkeypatch, pauli_spec):
        monkeypatch.setattr("sys.argv", ["fellbundles", "verify", pauli_spec])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_table_file_without_a_table_field_exits_2(capsys, tmp_path):
    spec = pauli_spec_dict()
    spec.update(group={"kind": "cyclic", "n": 1}, fibers={"0": [mat(I2)]})
    one = write_json(tmp_path / "one.json", spec)
    table = write_json(tmp_path / "t.json", {"tab": [[0]]})
    rc, out, err = run(capsys, "pullback", one, "--group", f"table:{table}", "--normal", "0")
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {table}: ") and "'table'" in err


def test_olesen_pedersen_checks_the_action_three_times(capsys, monkeypatch, action_spec):
    # once for the twisted semidirect bundle, once for the semidirect one and
    # once for the extracted twist: the semidirect bundle is built once
    calls = []
    check = bundles.verify_twisted_action

    def counted(t, tol=matrices.DEFAULT_TOL):
        calls.append(t)
        return check(t, tol)

    monkeypatch.setattr(bundles, "verify_twisted_action", counted)
    rc, out, _ = run(capsys, "olesen-pedersen", action_spec)
    assert rc == 0 and json.loads(out)["isomorphism"] is True
    assert len(calls) == 3


def transformation_system_spec(path, kind, n, normal):
    """Action spec of G on G/N with tau = 1 on N, in the parser's orthonormalized basis."""
    g = getattr(groups, kind)(n)
    act = duality.transformation_system(duality.coset_action(g, normal))
    alg = matrices.orthonormalize(act.algebra.basis_list())
    alpha = {str(s): mat(np.stack([alg.coords(act.apply(s, b)) for b in alg.basis_list()], axis=1))
             for s in g.elements()}
    unit = mat(matrices.unit_element(alg))
    spec = {"schema": "fellbundle/1", "kind": "twisted_action",
            "group": {"kind": kind, "n": n}, "normal_subgroup": list(normal),
            "algebra": [mat(b) for b in alg.basis_list()],
            "alpha": alpha, "tau": {str(m): unit for m in normal}}
    return write_json(path, spec)


def test_s4_olesen_pedersen_fits_three_gib(tmp_path):
    # S4 acting on S4/V4: the dense pull-back and the dense images of the forward
    # map would be 144 + 144 complex matrices of size 864 x 864
    spec = transformation_system_spec(tmp_path / "ts_s4_v4.json", "symmetric", 4, (0, 7, 16, 23))
    done = run_capped("olesen-pedersen", spec)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["dim_pullback"] == report["dim_semidirect"] == 144
    assert report["isomorphism"] is True and report["twist_residual"] <= 1e-9


def test_report_builds_the_section_algebra_once(capsys, monkeypatch, pauli_spec):
    calls = []
    build = sections.section_algebra

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(sections, "section_algebra", counted)
    monkeypatch.setattr(approx, "section_algebra", counted)
    rc, out, _ = run(capsys, "report", pauli_spec)
    assert rc == 0 and json.loads(out)["amenability"]["regular_rep_kernel_dim"] == 0
    assert len(calls) == 1


class TestMalformedFiberAndToleranceExit2:
    """Beside TestMalformedFieldsExit2: a fiber that is not a list of matrices,
    and a tolerance that is not a finite number >= 0, from either source."""

    @pytest.mark.parametrize("entry", [5, "I", {"0": mat(I2)}, None])
    def test_fiber_not_a_list(self, capsys, tmp_path, entry):
        spec = pauli_spec_dict()
        spec["fibers"]["0"] = entry
        bad = write_json(tmp_path / "bad.json", spec)
        rc, out, err = run(capsys, "verify", bad)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {bad}: fibers[0]: expected a list of matrices")

    @pytest.mark.parametrize("command", ["verify", "crossed", "report"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    def test_tol_flag(self, capsys, pauli_spec, command, value):
        rc, out, err = run(capsys, command, pauli_spec, f"--tol={value}")
        assert rc == 2 and out == ""
        assert err.startswith("error: --tol: expected a finite number >= 0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", -1, -1e-300])
    def test_spec_tolerance(self, capsys, tmp_path, value):
        spec = pauli_spec_dict()
        spec["tolerance"] = value
        bad = write_json(tmp_path / "bad.json", spec)
        rc, out, err = run(capsys, "verify", bad)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {bad}: tolerance: expected a finite number >= 0")

    def test_zero_and_an_overridden_bad_spec_tolerance_are_accepted(self, capsys, tmp_path):
        spec = pauli_spec_dict()
        spec["tolerance"] = "nan"
        path = write_json(tmp_path / "s.json", spec)
        assert run(capsys, "verify", path, "--tol", "1e-9")[0] == 0
        assert run(capsys, "verify", path, "--tol", "0")[0] != 2

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["tolerance", "ambient_dim"])
    def test_spec_boolean_is_not_a_number(self, capsys, tmp_path, field, value):
        # int(true) and float(true) are 1: a tolerance of 1.0 would pass every check
        spec = pauli_spec_dict()
        spec[field] = value
        bad = write_json(tmp_path / "bad.json", spec)
        rc, out, err = run(capsys, "verify", bad)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {bad}: {field}: expected a number, got {json.dumps(value)}")

    def test_gset_boolean_size_is_not_a_number(self, capsys, tmp_path, gset_spec):
        data = json.loads(open(gset_spec).read())
        data["size"] = True
        bad = write_json(tmp_path / "bad.json", data)
        rc, out, err = run(capsys, "obstruction", bad, "--normal", "0,3,4")
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {bad}: size: expected a number, got true")

    def test_boolean_tolerance_is_rejected_before_a_run(self, capsys, tmp_path):
        # a tolerance of 1.0 let a broken grading pass; the boolean now stops it first
        spec = pauli_spec_dict()
        spec["fibers"]["1"] = [mat([[0, 1], [0, 0]])]
        spec["tolerance"] = True
        bad = write_json(tmp_path / "bad.json", spec)
        assert run(capsys, "verify", bad)[0] == 2
        del spec["tolerance"]
        assert run(capsys, "verify", write_json(tmp_path / "plain.json", spec))[0] == 1


class TestEveryInputFileChecksItsSchema:
    """G-set, witness and family files go through the same object reader as
    bundle and action specs, so an unknown schema exits 2 for each kind."""

    def test_gset_file(self, capsys, tmp_path, gset_spec):
        data = json.loads(open(gset_spec).read())
        data["schema"] = "fellbundle/99"
        bad = write_json(tmp_path / "bad.json", data)
        rc, out, err = run(capsys, "obstruction", bad, "--normal", "0,3,4")
        assert rc == 2 and out == ""
        assert err == f"error: {bad}: unsupported schema 'fellbundle/99'\n"

    def test_witness_file(self, capsys, tmp_path, pauli_spec):
        wit = write_json(tmp_path / "wit.json",
                         {"schema": "fellbundle/99", "f": {"0": mat(I2 / SQ2)}})
        rc, out, err = run(capsys, "ep", pauli_spec, "--witness", wit)
        assert rc == 2 and out == ""
        assert err == f"error: {wit}: unsupported schema 'fellbundle/99'\n"

    def test_family_file(self, capsys, tmp_path, landstad_inputs):
        spec, family, _ = landstad_inputs
        data = json.loads(open(family).read())
        data["schema"] = "fellbundle/99"
        bad = write_json(tmp_path / "badfam.json", data)
        rc, out, err = run(capsys, "landstad", spec, "--family", bad,
                           "--group", "cyclic:4", "--normal", "0,2")
        assert rc == 2 and out == ""
        assert err == f"error: {bad}: unsupported schema 'fellbundle/99'\n"

    def test_the_current_schema_is_accepted(self, capsys, tmp_path, gset_spec, pauli_spec):
        data = json.loads(open(gset_spec).read())
        data["schema"] = cli.SCHEMA
        gset = write_json(tmp_path / "gset.json", data)
        assert run(capsys, "obstruction", gset, "--normal", "0,3,4")[0] == 0
        wit = write_json(tmp_path / "wit.json", {"schema": cli.SCHEMA, "f": {"0": mat(I2 / SQ2)}})
        assert run(capsys, "ep", pauli_spec, "--witness", wit)[0] == 0


@pytest.mark.parametrize("command", ["pullback", "imprimitivity", "landstad"])
def test_a_malformed_normal_is_reported_with_one_prefix(capsys, pauli_spec, command):
    rc, out, err = run(capsys, command, pauli_spec, "--group", "cyclic:4", "--normal", "0,x")
    assert rc == 2 and out == ""
    assert err == "error: --normal: expected a comma list of integers, got '0,x'\n"


class TestPullbackOutputFile:

    def test_written_when_the_pulled_back_axioms_fail(self, capsys, tmp_path, broken_spec):
        out_path = tmp_path / "pb.json"
        rc, out, _ = run(capsys, "pullback", broken_spec,
                         "--group", "cyclic:4", "--normal", "0,2", "-o", str(out_path))
        assert rc == 1 and json.loads(out)["pass"] is False
        g, pb, _ = cli.parse_spec(str(out_path))
        assert g.order == 4 and pb.fiber_dims() == (1, 1, 1, 1)
        assert run(capsys, "verify", str(out_path))[0] == 1

    @pytest.mark.parametrize("extra", [["--normal", "0,x"], ["--normal", "0,1,2,3"],
                                       ["--normal", "0,2", "--tol", "nan"]])
    def test_nothing_written_on_bad_input(self, capsys, tmp_path, pauli_spec, extra):
        out_path = tmp_path / "pb.json"
        rc, out, _ = run(capsys, "pullback", pauli_spec, "--group", "cyclic:4",
                         *extra, "-o", str(out_path))
        assert rc == 2 and out == "" and not out_path.exists()


class TestCommandTable:

    HELP = [
        ("verify", "run the grading axiom battery on a bundle spec"),
        ("pullback", "pull a bundle over G/N back to G (-o writes the bundle spec)"),
        ("crossed", "crossed-product dimension law and fiberwise isometry"),
        ("imprimitivity", "bimodule axioms and Morita report for a bundle over G/N"),
        ("landstad", "reconstruct a twisted action from a bundle plus --family"),
        ("olesen-pedersen", "semidirect vs pull-back comparison for a twisted action"),
        ("gsimple", "graded ideals of the section algebra"),
        ("obstruction", "stabilizer obstruction for a G-set action spec"),
        ("ep", "approximation-property bound and defect (--witness optional)"),
        ("report", "combined report: axioms, dimensions, ideals, amenability"),
    ]

    def test_help_lists_the_commands_in_order(self, capsys):
        rc, out, _ = run(capsys, "--help")
        flat = " ".join(out.split())  # argparse wraps the help lines
        where = [flat.find(f" {name} {line} ") for name, line in self.HELP]
        assert rc == 0 and -1 not in where and where == sorted(where)

    @pytest.mark.parametrize("option,owner", [("--witness", "ep"), ("--family", "landstad")])
    def test_only_one_command_takes_each_file_option(self, option, owner):
        parser = cli._build_parser()
        for name, _ in self.HELP:
            argv = [name, "in.json", option, "f.json"]
            if name == owner:
                assert getattr(parser.parse_args(argv), option[2:]) == "f.json"
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)

    def test_values_are_the_module_level_handlers(self):
        # perfbench/tracer.py swaps its wrappers into the table by the identity of its values
        assert list(cli.COMMANDS) == [name for name, _ in self.HELP]
        for name, handler in cli.COMMANDS.items():
            assert inspect.isfunction(handler)
            assert handler is getattr(cli, "cmd_" + name.replace("-", "_"))
