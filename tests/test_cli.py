"""Command-line driver: spec parsing, reports, exit codes, determinism."""

from __future__ import annotations

import argparse
import importlib
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

import models
from conftest import I2, PAULI_X, SQ2, SWAP_SUBGROUP
from fellbundles import approximation as approx
from fellbundles import bundles, cli, duality, groups, imprimitivity, matrices
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
        assert options == {"tolerance": 1e-6}

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

    def test_a_failing_gamma_fails_the_command(self, capsys, monkeypatch, pauli_spec):
        # a dual translation that ignores r breaks linner equivariance and nothing else
        monkeypatch.setattr(imprimitivity, "dual_b", lambda r, b: b)
        rc, out, _ = run(capsys, "imprimitivity", pauli_spec,
                         "--group", "cyclic:4", "--normal", "0,2")
        report = json.loads(out)
        assert rc == 1 and report["pass"] is False and report["gamma"] is False
        assert all(item["pass"] for item in report["items"].values())
        assert {v["axiom"] for v in report["violations"]} == {"linner_equivariance"}
        assert all(set(v) == {"axiom", "r", "residual"} for v in report["violations"])


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

    def test_zero_fibers_off_a_subgroup(self, capsys, tmp_path, m2_full):
        # M_2 over Z2 placed in Z4 at {0, 2}: the fibers at 1 and 3 are zero, and the
        # section algebra M_2 (x) C*(Z2) has one graded ideal besides 0
        bundle = models.even_part_of_z4(bundles.trivial_bundle(groups.cyclic(2), m2_full))
        spec = write_json(tmp_path / "even.json",
                          cli.bundle_to_spec(bundle, {"kind": "cyclic", "n": 4}))
        for command in ("gsimple", "report"):
            rc, out, _ = run(capsys, command, spec)
            report = json.loads(out)
            assert rc == 0 and report["pass"] is True
            assert report["ideal_dims"] == [0, 8] and report["is_g_simple"] is True


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

    def test_zero_bundle_takes_the_empty_witness(self, capsys, zero_spec):
        # the unit of the zero algebra is 0, so the uniform witness is empty and exact
        rc, out, _ = run(capsys, "ep", zero_spec)
        assert rc == 0
        report = json.loads(out)
        assert (report["bound"], report["defect"], report["support"]) == (0.0, 0.0, [])

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
    span{a_s (x) E_{st,t}} of `models.crossed_product` is the oracle."""

    @pytest.mark.parametrize("name", ["pauli_bundle", "trivial_z4", "trivial_s3",
                                      "pauli_pullback", "twisted_z4_realized",
                                      "swap_semidirect_realized"])
    def test_dimension_and_isometry(self, capsys, tmp_path, request, name):
        bundle = request.getfixturevalue(name)
        bundle = bundle.bundle if name.endswith("_realized") else bundle
        spec = write_json(tmp_path / "spec.json", table_spec(bundle))
        cp = models.crossed_product(bundle)
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


def even_permutations(n: int) -> list[int]:
    """The elements of symmetric(n) that are even permutations: A_n."""
    return [i for i, p in enumerate(models.symmetric_permutations(n))
            if sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n)) % 2 == 0]


@pytest.mark.parametrize("group, normal", [("dihedral:8", list(range(8))),
                                           ("symmetric:4", even_permutations(4))],
                         ids=["d8", "s4-a4"])
def test_imprimitivity_over_order_16_and_24_fits_three_gib(tmp_path, twisted_z4_realized,
                                                           group, normal):
    # the C2 bundle over D8/{rotations} and S4/A4: a dense table over pairs of
    # generators of B0 would hold 256^2 * 32^2 and 576^3 complex entries, over the cap
    spec = write_json(tmp_path / "c2.json", cli.bundle_to_spec(
        twisted_z4_realized.bundle, {"kind": "cyclic", "n": 2}))
    run = run_capped("imprimitivity", spec, "--group", group,
                     "--normal", ",".join(map(str, normal)))
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["pass"] is True and report["gamma"] is True
    assert report["morita"]["blocksB"] == report["morita"]["blocksC"]


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
        # integer fields are JSON integers: nothing is truncated or parsed from text
        ("verify", "pauli_spec", lambda d: d.update(ambient_dim=2.5),
         "ambient_dim: expected an integer, got 2.5"),
        ("verify", "pauli_spec", lambda d: d.update(ambient_dim=2.0),
         "ambient_dim: expected an integer, got 2.0"),
        ("verify", "pauli_spec", lambda d: d.update(ambient_dim="2"),
         'ambient_dim: expected a number, got "2"'),
        ("verify", "pauli_spec", lambda d: d["group"].update(n=True),
         "group: n: expected a number, got true"),
        ("verify", "pauli_spec", lambda d: d["group"].update(n=1.9),
         "group: n: expected an integer, got 1.9"),
        ("verify", "pauli_spec", lambda d: d.update(group={"kind": "table",
                                                             "table": [[0, 1], [1, 0.0]]}),
         "group: table: expected an integer, got 0.0"),
        ("obstruction", "gset_spec", lambda d: d["perm"][1].__setitem__(0, 1.9),
         "perm[1]: expected an integer, got 1.9"),
        ("obstruction", "gset_spec", lambda d: d.update(size=3.0),
         "size: expected an integer, got 3.0"),
        ("olesen-pedersen", "action_spec", lambda d: d.update(normal_subgroup=[0, 1.5]),
         "normal_subgroup: expected an integer, got 1.5"),
        # a group string in a spec names the file, not --group
        ("verify", "pauli_spec", lambda d: d.update(group="cyclic:0"),
         "group: order must be at least 1"),
        ("verify", "pauli_spec", lambda d: d.update(group="cyclic"),
         "group: expected kind:value, got 'cyclic'"),
        # every element-keyed map reads its keys as elements of the group
        ("olesen-pedersen", "action_spec", lambda d: d["alpha"].update({"9": mat([[1.0]])}),
         "alpha key 9 outside a group of order 4"),
        ("olesen-pedersen", "action_spec", lambda d: d["alpha"].update(x=mat([[1.0]])),
         "alpha key 'x' is not an element index"),
        ("obstruction", "gset_spec",
         lambda d: d.update(perm={**{str(s): r for s, r in enumerate(d["perm"])},
                                  "17": d["perm"][0]}),
         "perm key 17 outside a group of order 6"),
        # two keys naming one element are an input error, not a silent overwrite
        ("olesen-pedersen", "action_spec", lambda d: d["alpha"].update({"01": mat([[5.0]])}),
         "alpha key '01' repeats element 1"),
        ("verify", "pauli_spec", lambda d: d["fibers"].update({"+1": d["fibers"]["1"]}),
         "fiber key '+1' repeats element 1"),
        # a key is an index as str(int) writes it, so no other spelling stands for one
        *[("verify", "pauli_spec", lambda d, k=key: d.update(fibers={"0": d["fibers"]["0"],
                                                                     k: d["fibers"]["1"]}),
           f"fiber key '{key}' is not an element index") for key in ("0_1", " 1", "+1", "01")],
        # a matrix entry is a finite number, whether JSON reads NaN or numpy the text "nan"
        ("verify", "pauli_spec", lambda d: d["fibers"]["0"][0][0].__setitem__(0, [float("nan"), 0]),
         "fibers[0][0]: entries must be finite"),
        ("verify", "pauli_spec", lambda d: d["fibers"]["0"][0][0].__setitem__(0, ["nan", 0]),
         "fibers[0][0]: entries must be finite"),
        ("olesen-pedersen", "action_spec", lambda d: d["alpha"].update({"1": mat([[np.inf]])}),
         "alpha[1]: entries must be finite"),
        # nor is a number read from text
        ("verify", "pauli_spec", lambda d: d["fibers"]["0"][0][0].__setitem__(0, ["1", 0]),
         "fibers[0][0]: entries must be finite numbers"),
        ("verify", "pauli_spec", lambda d: d["fibers"]["0"][0][0].__setitem__(0, ["1.0", 0]),
         "fibers[0][0]: entries must be finite numbers"),
        # nor a boolean, which numpy reads as 1.0 among floats and as 1 among integers
        ("verify", "pauli_spec", lambda d: d["fibers"]["0"][0][0].__setitem__(0, [True, 0]),
         "fibers[0][0]: entries must be finite numbers, not booleans"),
        ("verify", "pauli_spec",
         lambda d: d["fibers"].update({"0": [[[[3, 2], [2, 2]], [[2, 2], [True, 2]]]]}),
         "fibers[0][0]: entries must be finite numbers, not booleans"),
    ], ids=["action-tau-key", "action-normal-subgroup", "action-tau-not-a-map", "gset-size",
            "gset-perm-entry", "spec-tolerance", "spec-dim-2.5", "spec-dim-2.0", "spec-dim-text",
            "spec-group-n-true", "spec-group-n-1.9", "spec-table-entry", "gset-perm-1.9",
            "gset-size-3.0", "action-normal-1.5", "spec-group-cyclic-0", "spec-group-cyclic",
            "action-alpha-key-9", "action-alpha-key-x", "gset-perm-key-17",
            "action-alpha-key-repeat", "spec-fiber-key-repeat", "spec-fiber-key-0_1",
            "spec-fiber-key-space-1", "spec-fiber-key-plus-1", "spec-fiber-key-01",
            "spec-fiber-nan", "spec-fiber-nan-text", "action-alpha-infinity", "spec-fiber-string",
            "spec-fiber-string-float", "spec-fiber-true", "spec-fiber-true-among-integers"])
    def test_exits_2(self, capsys, tmp_path, request, command, fixture, mutate, field):
        data = json.loads(open(request.getfixturevalue(fixture)).read())
        mutate(data)
        bad = write_json(tmp_path / "bad.json", data)
        normal = ["--normal", "0,3,4"] if command == "obstruction" else []
        rc, out, err = run(capsys, command, bad, *normal)
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


def test_olesen_pedersen_checks_the_action_twice(capsys, monkeypatch, action_spec):
    # once for the twisted semidirect bundle, which covers the semidirect one's
    # action, and once for the extracted twist
    calls = []
    check = bundles.verify_twisted_action

    def counted(t, tol=matrices.DEFAULT_TOL):
        calls.append(t)
        return check(t, tol)

    monkeypatch.setattr(bundles, "verify_twisted_action", counted)
    rc, out, _ = run(capsys, "olesen-pedersen", action_spec)
    assert rc == 0 and json.loads(out)["isomorphism"] is True
    assert len(calls) == 2


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


@pytest.mark.parametrize("command", ["report", "gsimple"])
def test_report_and_gsimple_read_the_sweep_once(capsys, monkeypatch, pauli_spec, command):
    # every section figure comes from the one sweep's constants: the dense oracle and
    # the pseudoinverse of the stacked fibers that it needs are never called
    reads, oracle, solves = [], [], []
    read, build, pinv = bundles._read_grading, models.section_algebra, np.linalg.pinv
    monkeypatch.setattr(bundles, "_read_grading",
                        lambda bundle, tol: reads.append(bundle) or read(bundle, tol))
    monkeypatch.setattr(models, "section_algebra",
                        lambda *args, **kwargs: oracle.append(args) or build(*args, **kwargs))
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda *args, **kwargs: solves.append(args) or pinv(*args, **kwargs))
    rc, out, _ = run(capsys, command, pauli_spec)
    report = json.loads(out)
    assert rc == 0 and report["ideal_dims"] == [0, 2] and report["is_g_simple"] is True
    assert report.get("amenability", {}).get("regular_rep_kernel_dim", 0) == 0
    assert len(reads) == 1 and oracle == [] and solves == []


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


def near_threshold_spec_dict():
    """Pauli over C2 with fiber 1 = span{X + 5e-9 I, Y}: its product_closure
    residual, about 7.07e-9, lies between the default tolerance and 1e-8."""
    spec = pauli_spec_dict()
    y, z = [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]
    spec["fibers"] = {"0": [mat(I2), mat(z)], "1": [mat(PAULI_X + 5e-9 * I2), mat(y)]}
    return spec


AXIOM_COMMANDS = {
    "verify": (), "pullback": ("--group", "cyclic:4", "--normal", "0,2"), "crossed": (),
    "gsimple": (), "imprimitivity": ("--group", "cyclic:4", "--normal", "0,2"), "report": (),
}


class TestDependentFibersFailTheAxiomCommands:
    """Fibers that are no direct sum fail every command that reads the bundle's own
    axioms; `pullback` requires them of its base, since the lambda factors would
    make the pull-back's fibers independent."""

    @pytest.mark.parametrize("case,command", [
        (case, command) for case in sorted(models.dependent_gradings())
        for command in ("crossed", "gsimple", "report", "verify")] +
        [("line_z2", "imprimitivity"), ("line_z2", "pullback")])
    def test_exits_1_on_independence(self, capsys, tmp_path, case, command):
        bundle, desc = models.dependent_gradings()[case]
        spec = write_json(tmp_path / f"{case}.json", cli.bundle_to_spec(bundle, desc))
        rc, out, _ = run(capsys, command, spec, *AXIOM_COMMANDS[command])
        report = json.loads(out)
        assert rc == 1 and report["pass"] is False
        first = report.get("detail") or repr(report["violations"][0])
        assert "'axiom': 'independent_grading'" in first

    def test_landstad_rejects_its_target(self, capsys, tmp_path):
        # the Landstad target is read as a grading: C1 twice over Z2 is no direct sum
        bundle, desc = models.dependent_gradings()["line_z2"]
        spec = write_json(tmp_path / "line.json", cli.bundle_to_spec(bundle, desc))
        family = write_json(tmp_path / "one.json", {"u": {str(s): mat([[1]]) for s in range(4)}})
        rc, out, _ = run(capsys, "landstad", spec, "--group", "cyclic:4", "--normal", "0,2",
                         "--family", family)
        report = json.loads(out)
        assert rc == 1 and report["error"] == "AxiomViolation"
        assert report["detail"].startswith(
            "grading axiom failed: {'axiom': 'independent_grading'")


class TestOneTolerancePerRun:
    """Every check of a run receives the tolerance `_tol` resolved; only the
    preconditions run at max(tol, DEFAULT_TOL)."""

    def test_the_default_is_the_library_default(self):
        args = cli._build_parser().parse_args(["verify", "in.json"])
        assert cli._tol(args, {}) == matrices.DEFAULT_TOL

    @pytest.mark.parametrize("command", sorted(AXIOM_COMMANDS))
    @pytest.mark.parametrize("flags,code", [((), 1), (("--tol", "1e-8"), 0)])
    def test_the_axiom_commands_agree_near_the_threshold(self, capsys, tmp_path, command,
                                                         flags, code):
        spec = write_json(tmp_path / "near.json", near_threshold_spec_dict())
        rc, out, _ = run(capsys, command, spec, *AXIOM_COMMANDS[command], *flags)
        assert rc == code and json.loads(out)["pass"] is (code == 0)

    @staticmethod
    def record_tol(monkeypatch, module, name) -> list:
        seen, real = [], getattr(module, name)

        def recorded(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return seen

    @pytest.mark.parametrize("flags,tol", [(("--tol", "3e-9"), 3e-9), ((), matrices.DEFAULT_TOL)])
    def test_tol_reaches_the_gamma_report(self, capsys, monkeypatch, pauli_spec, flags, tol):
        seen = self.record_tol(monkeypatch, imprimitivity, "bimodule_check")
        rc, out, _ = run(capsys, "imprimitivity", pauli_spec,
                         "--group", "cyclic:4", "--normal", "0,2", *flags)
        assert rc == 0 and json.loads(out)["gamma"] is True
        assert seen == [tol]

    @pytest.mark.parametrize("command,extra,checks", [
        ("verify", (), [(bundles, "verify_fell_axioms")]),
        ("pullback", AXIOM_COMMANDS["pullback"], [(bundles, "verify_fell_axioms")]),
        ("imprimitivity", AXIOM_COMMANDS["imprimitivity"],
         [(imprimitivity, "bimodule_check")]),
        ("gsimple", (), [(bundles, "abstract_from_graded"), (duality, "graded_ideals"),
                         (duality, "is_g_simple")]),
        ("ep", (), [(approx, "ep_defect")]),
        ("report", (), [(bundles, "_read_grading"), (duality, "graded_ideals"),
                        (duality, "is_g_simple"), (approx, "amenability_report")]),
    ])
    def test_a_tight_tol_reaches_the_reported_checks(self, capsys, monkeypatch, pauli_spec,
                                                     command, extra, checks):
        seen = [self.record_tol(monkeypatch, module, name) for module, name in checks]
        rc, _, _ = run(capsys, command, pauli_spec, *extra, "--tol", "1e-12")
        assert rc in (0, 1)
        assert seen == [[1e-12]] * len(checks)

    def test_a_tight_tol_reaches_landstad(self, capsys, monkeypatch, landstad_inputs):
        spec, family, _ = landstad_inputs
        seen = self.record_tol(monkeypatch, duality, "landstad_reconstruct")
        run(capsys, "landstad", spec, "--group", "cyclic:4", "--normal", "0,2",
            "--family", family, "--tol", "1e-12")
        assert seen == [1e-12]

    def test_landstad_at_tol_0_fails_at_the_reconstruction_map(self, capsys, monkeypatch,
                                                                tmp_path):
        # the benchmark's landstad.z4 input: the family's guards run at the default
        # tolerance, so tol 0 first fails where the run's tolerance belongs, at the
        # reconstruction map's round-off; in coordinates `into_fibers` is exactly 0.0
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        ladder = importlib.import_module("perfbench.ladder")
        monkeypatch.chdir(tmp_path)
        rung = next(r for r in ladder.build("duality", str(tmp_path), 1) if r.id == "landstad.z4")
        rc, out, _ = run(capsys, *rung.argv, "--tol", "0")
        report = json.loads(out)
        assert rc == 1 and report["error"] == "AxiomViolation"
        assert report["detail"].startswith("reconstruction map failed: {'axiom': 'multiplicative'")
        rc, out, _ = run(capsys, *rung.argv)
        assert rc == 0 and json.loads(out)["isomorphism"] is True

    def test_a_tight_tol_reaches_olesen_pedersen(self, capsys, monkeypatch, action_spec):
        seen = [self.record_tol(monkeypatch, duality, name)
                for name in ("olesen_pedersen_forward", "extract_twist")]
        run(capsys, "olesen-pedersen", action_spec, "--tol", "1e-12")
        assert seen == [[1e-12], [1e-12]]

    def test_preconditions_never_run_tighter_than_the_default(self, capsys, monkeypatch,
                                                              pauli_spec):
        # crossed only requires the axioms: the run's 1e-12 reaches the
        # precondition, which checks them at the default
        required = self.record_tol(monkeypatch, bundles, "abstract_from_graded")
        checked = self.record_tol(monkeypatch, bundles, "_read_grading")
        rc, _, _ = run(capsys, "crossed", pauli_spec, "--tol", "1e-12")
        assert rc == 0 and required == [1e-12] and checked == [matrices.DEFAULT_TOL]


class TestSubgroupMembersOutsideTheGroupExit2:

    @pytest.mark.parametrize("normal,member", [("0,9", 9), ("0,-2", -2)])
    def test_normal_flag(self, capsys, pauli_spec, normal, member):
        rc, out, err = run(capsys, "imprimitivity", pauli_spec,
                           "--group", "cyclic:4", "--normal", normal)
        assert rc == 2 and out == ""
        assert err == f"error: --normal: member {member} is outside a group of order 4\n"

    def test_action_file(self, capsys, tmp_path, action_spec):
        spec = json.loads(open(action_spec).read())
        spec["normal_subgroup"] = [0, 9]
        bad = write_json(tmp_path / "bad.json", spec)
        rc, out, err = run(capsys, "olesen-pedersen", bad)
        assert rc == 2 and out == ""
        assert err == (f"error: {bad}: normal_subgroup: "
                       "member 9 is outside a group of order 4\n")


class TestEachCommandTakesOnlyTheOptionsItReads:
    """A command declares exactly the options its handler reads; any other
    option, and a missing required one, is a usage error: exit 2, `error:`."""

    READS = {
        "verify": {"--tol"}, "pullback": {"--tol", "--group", "--normal"}, "crossed": {"--tol"},
        "imprimitivity": {"--tol", "--group", "--normal"},
        "landstad": {"--tol", "--group", "--normal", "--family"}, "olesen-pedersen": {"--tol"},
        "gsimple": {"--tol"}, "obstruction": {"--normal"}, "ep": {"--tol", "--witness"},
        "report": {"--tol"},
    }
    VALUES = {"--tol": "0.5", "--group": "cyclic:4", "--normal": "0,2", "-o": "out.json",
              "--witness": "w.json", "--family": "f.json"}
    REQUIRED = {"landstad": ["--family", "f.json"], "obstruction": ["--normal", "0,2"]}

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("option", list(VALUES))
    def test_parse_args_accepts_exactly_the_declared_options(self, capsys, command, option):
        argv = [command, "in.json", *self.REQUIRED.get(command, []), option, self.VALUES[option]]
        if option in self.READS[command] | {"-o"}:
            args = cli._build_parser().parse_args(argv)
            value = getattr(args, "output" if option == "-o" else option[2:])
            assert str(value) == self.VALUES[option]
        else:
            with pytest.raises(SystemExit) as exc:
                cli._build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err == f"error: unrecognized arguments: {option} " \
                f"{self.VALUES[option]}\n"

    def test_the_subparsers_hold_28_option_values(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        counts = {name: sum(1 for a in sp._actions if a.option_strings and a.dest != "help")
                  for name, sp in sub.choices.items()}
        assert counts == {name: len(reads) + 1 for name, reads in self.READS.items()}
        assert sum(counts.values()) == 28

    @pytest.mark.parametrize("command,spec,extra", [
        ("verify", "pauli_spec", ["--group", "cyclic:4"]),
        ("report", "pauli_spec", ["--normal", "0,2"]),
        ("olesen-pedersen", "action_spec", ["--group", "cyclic:4"]),
        ("obstruction", "gset_spec", ["--normal", "0,3,4", "--tol", "1e-9"]),
    ])
    def test_an_option_the_command_does_not_read_exits_2(self, capsys, request, command, spec,
                                                          extra):
        rc, out, err = run(capsys, command, request.getfixturevalue(spec), *extra)
        assert rc == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("command,extra,missing", [
        ("pullback", ["--normal", "0,2"], "--group"),
        ("imprimitivity", ["--group", "cyclic:4"], "--normal"),
        ("landstad", ["--group", "cyclic:4", "--normal", "0,2"], "--family"),
        ("obstruction", [], "--normal"),
    ])
    def test_a_missing_required_option_is_named(self, capsys, pauli_spec, command, extra,
                                                missing):
        rc, out, err = run(capsys, command, pauli_spec, *extra)
        assert rc == 2 and out == "" and err.startswith("error: ") and missing in err


class TestGroupsThatAreNoGroupExit2:

    @pytest.mark.parametrize("group,message", [("cyclic:0", "order must be at least 1"),
                                               ("dihedral:0", "order must be at least 1"),
                                               ("symmetric:-1", "n must be at least 0")])
    def test_on_the_command_line(self, capsys, pauli_spec, group, message):
        rc, out, err = run(capsys, "pullback", pauli_spec, "--group", group, "--normal", "0")
        assert rc == 2 and out == ""
        assert err == f"error: --group: {message}\n"

    def test_order_zero_in_a_spec(self, capsys, tmp_path):
        spec = pauli_spec_dict()
        spec["group"]["n"] = 0
        bad = write_json(tmp_path / "bad.json", spec)
        rc, out, err = run(capsys, "verify", bad)
        assert rc == 2 and out == ""
        assert err == f"error: {bad}: group: order must be at least 1\n"

    def test_a_table_file_that_is_not_a_group(self, capsys, tmp_path, pauli_spec):
        table = write_json(tmp_path / "t.json", {"table": [[0, 1], [0, 1]]})
        rc, out, err = run(capsys, "pullback", pauli_spec, "--group", f"table:{table}",
                           "--normal", "0")
        assert rc == 2 and out == ""
        assert err.startswith(f"error: --group: {table}: column 0 is not a permutation")


class TestAnUnwritableOutputExits2:

    @pytest.mark.parametrize("command,extra", [
        ("verify", []), ("pullback", ["--group", "cyclic:4", "--normal", "0,2"])])
    def test_exits_2_with_nothing_on_stdout(self, capsys, tmp_path, pauli_spec, command, extra):
        target = tmp_path / "missing" / "x.json"
        rc, out, err = run(capsys, command, pauli_spec, *extra, "-o", str(target))
        assert rc == 2 and out == "" and not target.exists()
        assert err.startswith("error: -o: ") and str(target) in err
