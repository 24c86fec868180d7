"""Packed matrix fields: {"dtype": "complex128", "shape": [r, c], "data": base64}.

Every matrix field of every input file takes the packed form beside the nested
one, under the same rules; `bundle_to_spec` writes it, so `pullback -o` does."""

from __future__ import annotations

import base64
import json
import tracemalloc

import numpy as np
import pytest

from conftest import I2, SQ2
from fellbundles import bundles, cli, groups
from test_cli import action_spec, landstad_inputs, mat, pauli_spec_dict, run, write_json  # noqa: F401
from test_metamorphic import conjugated, haar_unitary

A3 = "0,3,4"  # the even permutations of S3


def nested(spec: dict) -> dict:
    """spec with every fiber matrix in the nested form."""
    return {**spec, "fibers": {key: [mat(cli.decode_matrix(m, key)) for m in mats]
                               for key, mats in spec["fibers"].items()}}


def packed(m) -> dict:
    return cli.pack_matrix(np.asarray(m, dtype=complex))


class TestPackedCodec:

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        for shape in ((1, 1), (2, 3), (5, 5)):
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            text = json.dumps(cli.pack_matrix(m))
            assert np.array_equal(cli.decode_matrix(json.loads(text), "m"), m)

    def test_bytes_are_little_endian_row_major(self):
        m = np.array([[1 + 2j, 3], [4, 5 - 6j]])
        raw = base64.b64decode(cli.pack_matrix(m)["data"])
        assert raw == np.array([1, 2, 3, 0, 4, 0, 5, -6], dtype="<f8").tobytes()
        assert cli.pack_matrix(m)["shape"] == [2, 2]


def _truncated(m: dict, chars: int) -> dict:
    return {**m, "data": m["data"][:-chars]}


NAN = np.array([[np.nan, 0], [0, 1]])
INF = np.array([[1, 0], [0, np.inf * 1j]])


class TestMalformedPackedFieldsExit2:
    """A packed field that is not a finite complex128 matrix of the expected
    shape exits 2 with one `error:` line naming the file and the field."""

    @pytest.mark.parametrize("entry,message", [
        (_truncated(packed(I2), 1), "data is not base64"),
        (_truncated(packed(I2), 4), "data holds 63 bytes, a complex128 2x2 matrix 64"),
        ({**packed(I2), "data": "!" + packed(I2)["data"][1:]}, "data is not base64"),
        ({**packed(I2), "data": "é" + packed(I2)["data"][1:]}, "data is not base64"),
        ({**packed(I2), "data": 7}, "data is not base64"),
        ({**packed(I2), "dtype": "complex64"}, 'dtype must be "complex128", got "complex64"'),
        (packed(np.eye(3)), "expected a 2x2 matrix, got 3x3"),
        ({**packed(I2), "shape": [4, 1]}, "expected a 2x2 matrix, got 4x1"),
        ({**packed(I2), "shape": [2, True]}, "shape: expected a number, got true"),
        ({**packed(I2), "shape": [2.0, 2]}, "shape: expected an integer, got 2.0"),
        ({**packed(I2), "shape": [4]}, "shape must be two positive integers, got [4]"),
        ({**packed(I2), "shape": "2x2"}, 'shape: expected a list, got "2x2"'),
        (packed(NAN), "entries must be finite numbers"),
        (packed(INF), "entries must be finite numbers"),
        ({k: v for k, v in packed(I2).items() if k != "dtype"},
         "a packed matrix has exactly the keys data, dtype and shape"),
        ({**packed(I2), "order": "C"},
         "a packed matrix has exactly the keys data, dtype and shape"),
    ], ids=["truncated-char", "truncated-block", "non-base64-char", "non-ascii-char",
            "data-not-text", "complex64", "shape-not-ambient", "shape-not-square",
            "shape-true", "shape-2.0", "shape-one-entry", "shape-text", "nan", "inf",
            "missing-key", "extra-key"])
    def test_spec_fiber(self, capsys, tmp_path, entry, message):
        spec = pauli_spec_dict()
        spec["fibers"]["0"] = [entry]
        bad = write_json(tmp_path / "bad.json", spec)
        rc, out, err = run(capsys, "verify", bad)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {bad}: fibers[0][0]: {message}")
        assert err.count("\n") == 1

    def test_every_other_matrix_field(self, capsys, tmp_path, action_spec):
        data = json.loads(open(action_spec).read())
        data["alpha"]["1"] = packed([[np.nan]])
        bad = write_json(tmp_path / "action.json", data)
        rc, out, err = run(capsys, "olesen-pedersen", bad)
        assert (rc, out) == (2, "") and err.startswith(f"error: {bad}: alpha[1]: entries must")
        spec = write_json(tmp_path / "pauli.json", pauli_spec_dict())
        wit = write_json(tmp_path / "wit.json", {"f": {"0": _truncated(packed(I2 / SQ2), 4)}})
        rc, out, err = run(capsys, "ep", spec, "--witness", wit)
        assert (rc, out) == (2, "") and err.startswith(f"error: {wit}: f[0]: data holds 63")


def landstad_family(name: str, bundle, path) -> str:
    """The Landstad family of the Pauli grading over C4 -> C4/{0, 2}, u(s) = X^s in
    the grading's frame; over S3 the unit, which is no such family."""
    if name == "haar_pauli":
        x = bundle.fiber(1).basis[0] * SQ2
        u = {str(s): mat(np.linalg.matrix_power(x, s % 2)) for s in range(4)}
    else:
        u = {str(s): mat(np.eye(bundle.ambient_dim)) for s in range(6)}
    return write_json(path, {"u": u})


BUNDLES = {
    "haar_pauli": (lambda fx: conjugated(fx("pauli_bundle"), haar_unitary(2, 11)),
                   {"kind": "cyclic", "n": 2}, ["--group", "cyclic:4", "--normal", "0,2"]),
    "c2_s3": (lambda fx: fx("twisted_z4_realized").bundle, {"kind": "cyclic", "n": 2},
              ["--group", "symmetric:3", "--normal", A3]),
    "trivial_m2_s3": (lambda fx: bundles.trivial_bundle(fx("s3"), fx("m2_full")),
                      {"kind": "symmetric", "n": 3}, ["--group", "symmetric:3", "--normal", "0"]),
}


COMMANDS = ["verify", "crossed", "gsimple", "ep", "report", "imprimitivity", "landstad", "pullback"]
# but imprimitivity over S3/{e}: its (vii)/(viii) gap grids for trivial M2 take 1.6 GiB
RUNS = [(name, command) for name in sorted(BUNDLES) for command in COMMANDS
        if (name, command) != ("trivial_m2_s3", "imprimitivity")]


@pytest.fixture()
def both_encodings(request, tmp_path):
    """(bundle, quotient options, landstad family, packed spec, nested spec)."""
    build, desc, quotient = BUNDLES[request.param]
    bundle = build(request.getfixturevalue)
    spec = cli.bundle_to_spec(bundle, desc)
    return (bundle, quotient, landstad_family(request.param, bundle, tmp_path / "u.json"),
            write_json(tmp_path / "packed.json", spec),
            write_json(tmp_path / "nested.json", nested(spec)))


class TestBothEncodingsAgree:

    @pytest.mark.parametrize("both_encodings", sorted(BUNDLES), indirect=True)
    def test_parse_spec_reads_equal_bases(self, both_encodings):
        bundle, _, _, packed_spec, nested_spec = both_encodings
        _, a, _ = cli.parse_spec(packed_spec)
        _, b, _ = cli.parse_spec(nested_spec)
        assert a.fiber_dims() == b.fiber_dims() == bundle.fiber_dims()
        assert all(np.array_equal(f.basis, h.basis) for f, h in zip(a.fibers, b.fibers))

    @pytest.mark.parametrize("both_encodings,command", RUNS, indirect=["both_encodings"])
    def test_every_command_prints_the_same_report(self, capsys, tmp_path, both_encodings,
                                                  command):
        _, quotient, family, packed_spec, nested_spec = both_encodings
        extra = {"imprimitivity": quotient, "pullback": quotient,
                 "landstad": [*quotient, "--family", family]}.get(command, [])
        outcomes = []
        for spec, name in ((packed_spec, "a"), (nested_spec, "b")):
            written = tmp_path / f"{name}.out.json"
            written_args = ["-o", str(written)] if command == "pullback" else []
            rc, out, err = run(capsys, command, spec, *extra, *written_args)
            assert rc in (0, 1), err
            outcomes.append((rc, out, written.read_text() if written_args else None))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("both_encodings", sorted(BUNDLES), indirect=True)
    def test_pullback_writes_the_dense_pullback_exactly(self, capsys, tmp_path, both_encodings):
        bundle, quotient, _, packed_spec, _ = both_encodings
        out = tmp_path / "pb.json"
        assert run(capsys, "pullback", packed_spec, *quotient, "-o", str(out))[0] == 0
        g = cli.group_from_descriptor(quotient[1])[0]
        _, d, _ = cli.parse_spec(packed_spec)
        pb = bundles.pullback(d, groups.quotient(g, tuple(map(int, quotient[3].split(",")))))
        written = json.loads(out.read_text())["fibers"]
        rendition = {str(s): [mat(b) for b in pb.fiber(s).basis_list()]
                     for s in pb.group.elements() if pb.fiber(s).dim}
        assert written.keys() == rendition.keys()
        for key in written:
            assert all(isinstance(m, dict) for m in written[key])
            assert all(np.array_equal(cli.decode_matrix(a, key), cli.decode_matrix(b, key))
                       for a, b in zip(written[key], rendition[key], strict=True))


def _packed_copy(data: dict, *keys: str) -> dict:
    """data with every matrix under each key (a list or an element map) packed."""
    out = dict(data)
    for key in keys:
        value = data[key]
        out[key] = ([cli.pack_matrix(cli.decode_matrix(m, key)) for m in value]
                    if isinstance(value, list) else
                    {s: cli.pack_matrix(cli.decode_matrix(m, key)) for s, m in value.items()})
    return out


class TestPackedAuxiliaryFields:
    """Family, witness and action files take packed matrices as they take nested ones."""

    def test_family(self, capsys, tmp_path, landstad_inputs):
        spec, family, _ = landstad_inputs
        data = json.loads(open(family).read())
        both = [family, write_json(tmp_path / "fam.json", _packed_copy(data, "u"))]
        runs = [run(capsys, "landstad", spec, "--group", "cyclic:4", "--normal", "0,2",
                    "--family", f) for f in both]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_witness(self, capsys, tmp_path):
        spec = write_json(tmp_path / "pauli.json", pauli_spec_dict())
        data = {"f": {"0": mat(I2 / SQ2)}}
        both = [write_json(tmp_path / "w.json", data),
                write_json(tmp_path / "wp.json", _packed_copy(data, "f"))]
        runs = [run(capsys, "ep", spec, "--witness", w) for w in both]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_action(self, capsys, tmp_path, action_spec):
        data = json.loads(open(action_spec).read())
        packed_action = write_json(tmp_path / "packed.json",
                                   _packed_copy(data, "algebra", "alpha", "tau"))
        a, b = cli.parse_action_spec(action_spec), cli.parse_action_spec(packed_action)
        assert np.array_equal(a.algebra.basis, b.algebra.basis)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.tau.keys() == b.tau.keys()
        assert all(np.array_equal(a.tau[n], b.tau[n]) for n in a.tau)
        runs = [run(capsys, "olesen-pedersen", path) for path in (action_spec, packed_action)]
        assert runs[0] == runs[1] and runs[0][0] == 0


# the tracemalloc peak of `parse_spec`, over the bytes of the fibers it returns:
# about 3.5 for packed payloads and 11 for nested ones (one float object per number)
PARSE_PEAK_PER_FIBER_BYTE = 5.0


def parse_peak(path: str) -> tuple[int, int]:
    """(tracemalloc peak of parse_spec(path), bytes of the fibers it returns),
    after one warm-up call."""
    cli.parse_spec(path)
    tracemalloc.start()
    try:
        _, bundle, _ = cli.parse_spec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(f.basis.nbytes for f in bundle.fibers)


def test_a_packed_spec_parses_in_memory_linear_in_its_matrices(tmp_path, m2_full):
    bundle = bundles.trivial_bundle(groups.dihedral(6), m2_full)
    spec = cli.bundle_to_spec(conjugated(bundle, haar_unitary(bundle.ambient_dim, 5)),
                              {"kind": "dihedral", "n": 6})
    peak, fiber_bytes = parse_peak(write_json(tmp_path / "packed.json", spec))
    assert fiber_bytes == 12 * 4 * 24 * 24 * 16
    assert peak <= PARSE_PEAK_PER_FIBER_BYTE * fiber_bytes
    # the law tells the encodings apart: one Python float per number breaks it
    peak, _ = parse_peak(write_json(tmp_path / "nested.json", nested(spec)))
    assert peak > PARSE_PEAK_PER_FIBER_BYTE * fiber_bytes
