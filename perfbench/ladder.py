"""Seeded ladder generator: the inputs and rungs of each benchmark workload.

Every bundle spec is built from the library constructors and conjugated by
one Haar-random unitary drawn from the seed, so no optimisation can key on
the sparse layout of the textbook examples.  Action and G-set specs do not
depend on the seed: parse_action_spec reads alpha in the coordinates of the
re-orthonormalized algebra basis, so they are written in exactly those
coordinates.

A rung is one `fellbundles` command.  Its argv names input files relative to
the work directory the rung runs in; `writes` names a file the command
produces, which the determinism check compares across passes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("bimodule", "report", "duality", "frontier")

# rounds of (subprocess pass, in-process pass) a run makes at least; one round
# of `report` is already long, and `frontier` is dominated by its budget charges
MIN_ROUNDS = {"bimodule": 2, "report": 1, "duality": 2, "frontier": 1}

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

# even permutations of S3 under the lexicographic enumeration
A3 = (0, 3, 4)
# the Klein four-group inside S4 under the same enumeration
V4 = (0, 7, 16, 23)


@dataclass(frozen=True)
class Rung:
    id: str
    argv: tuple
    inputs: tuple  # (parser kind, file) pairs that setup_s parses
    writes: str | None = None


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _conjugate(fb, bundle, u: np.ndarray):
    from fellbundles.matrices import MatrixSubspace
    fibers = tuple(MatrixSubspace(f.ambient_dim, u @ f.basis @ u.conj().T)
                   for f in bundle.fibers)
    return fb.GradedBundle(bundle.group, fibers)


def _write(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return name


class _Builder:
    """Writes the inputs of one workload into workdir; each method returns the file name."""

    def __init__(self, workdir: str, seed: int):
        import fellbundles as fb
        self.fb = fb
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def _bundle_spec(self, name, bundle, group_desc, u=None):
        if u is None:
            u = haar_unitary(self.rng, bundle.ambient_dim)
        spec = self.fb.cli.bundle_to_spec(_conjugate(self.fb, bundle, u), group_desc)
        return _write(self.workdir, name, spec)

    def pauli(self):
        fb = self.fb
        sq2 = np.sqrt(2.0)
        f0 = fb.matrices.MatrixSubspace(2, (I2 / sq2)[None])
        f1 = fb.matrices.MatrixSubspace(2, (PAULI_X / sq2)[None])
        bundle = fb.GradedBundle(fb.cyclic(2), (f0, f1))
        return self._bundle_spec("pauli.json", bundle, {"kind": "cyclic", "n": 2})

    def _twisted_z4(self):
        fb = self.fb
        z4 = fb.cyclic(4)
        line = fb.matrices.MatrixSubspace(1, np.ones((1, 1, 1), dtype=complex))
        act = fb.bundles.TwistedAction(
            line, z4, fb.NormalSubgroup(z4, (0, 2)), np.ones((4, 1, 1), dtype=complex),
            {0: np.eye(1, dtype=complex), 2: -np.eye(1, dtype=complex)})
        return act, fb.concretize(fb.twisted_semidirect_bundle(act))

    def c2_bundle(self):
        """The concretized twisted Z4 bundle, graded by the order-2 group S3/A3."""
        _, real = self._twisted_z4()
        return self._bundle_spec("c2.json", real.bundle, {"kind": "cyclic", "n": 2})

    def landstad(self):
        """The twisted Z4 bundle over Z4/{0,2} and its canonical family, one unitary."""
        act, real = self._twisted_z4()
        fam = self.fb.duality.canonical_landstad_family(act, real)
        u = haar_unitary(self.rng, real.bundle.ambient_dim)
        spec = self._bundle_spec("landstad.json", real.bundle, {"kind": "cyclic", "n": 2}, u)
        enc = self.fb.cli.encode_matrix
        family = {"u": {str(s): enc(u @ fam.mat(s) @ u.conj().T) for s in act.group.elements()}}
        return spec, _write(self.workdir, "family.json", family)

    def trivial_m2(self, kind: str, n: int):
        fb = self.fb
        m2 = np.zeros((4, 2, 2), dtype=complex)
        for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            m2[k, i, j] = 1.0
        bundle = fb.bundles.trivial_bundle(getattr(fb, kind)(n), fb.matrices.MatrixSubspace(2, m2))
        return self._bundle_spec(f"m2_{kind}{n}.json", bundle, {"kind": kind, "n": n})

    def transformation_system(self, kind: str, n: int, normal):
        """Action spec of G on G/N with tau = 1 on N, in the parser's re-orthonormalized basis."""
        fb = self.fb
        g = getattr(fb, kind)(n)
        act = fb.duality.transformation_system(fb.duality.coset_action(g, normal))
        alg = fb.orthonormalize(act.algebra.basis_list())
        alpha = {str(s): fb.cli.encode_matrix(
            np.stack([alg.coords(act.apply(s, b)) for b in alg.basis_list()], axis=1))
            for s in g.elements()}
        unit = fb.cli.encode_matrix(fb.matrices.unit_element(alg))
        spec = {"schema": "fellbundle/1", "kind": "twisted_action",
                "group": {"kind": kind, "n": n}, "normal_subgroup": list(normal),
                "algebra": [fb.cli.encode_matrix(b) for b in alg.basis_list()],
                "alpha": alpha, "tau": {str(m): unit for m in normal}}
        return _write(self.workdir, f"ts_{kind}{n}_{'-'.join(map(str, normal))}.json", spec)

    def gset(self, kind: str, n: int, members):
        act = self.fb.duality.coset_action(getattr(self.fb, kind)(n), members)
        spec = {"kind": "gset_action", "group": {"kind": kind, "n": n},
                "size": act.size, "perm": [list(r) for r in act.perm]}
        return _write(self.workdir, f"gset_{kind}{n}.json", spec)


def _rung(rid, argv, inputs, writes=None):
    return Rung(rid, tuple(argv), tuple(inputs), writes)


def _bimodule(b: _Builder) -> list[Rung]:
    pauli, c2 = b.pauli(), b.c2_bundle()
    return [
        _rung("imprimitivity.pauli.c4", ["imprimitivity", pauli, "--group", "cyclic:4",
              "--normal", "0,2"], [("spec", pauli)]),
        _rung("imprimitivity.pauli.c6", ["imprimitivity", pauli, "--group", "cyclic:6",
              "--normal", "0,2,4"], [("spec", pauli)]),
        _rung("imprimitivity.c2.s3", ["imprimitivity", c2, "--group", "symmetric:3",
              "--normal", ",".join(map(str, A3))], [("spec", c2)]),
    ]


def _report(b: _Builder) -> list[Rung]:
    rungs = []
    plan = [("symmetric", 3, ("verify", "crossed", "gsimple", "ep", "report")),
            ("dihedral", 4, ("verify", "crossed", "gsimple", "ep", "report")),
            ("cyclic", 8, ("gsimple", "report")),
            ("dihedral", 6, ("crossed", "report"))]
    for kind, n, commands in plan:
        spec = b.trivial_m2(kind, n)
        for cmd in commands:
            rungs.append(_rung(f"{cmd}.m2.{kind}{n}", [cmd, spec], [("spec", spec)]))
    return rungs


def _duality(b: _Builder) -> list[Rung]:
    ts_s3 = b.transformation_system("symmetric", 3, (0,))
    ts_d4 = b.transformation_system("dihedral", 4, (0, 2))
    ts_s3a3 = b.transformation_system("symmetric", 3, A3)
    spec, family = b.landstad()
    pauli = b.pauli()
    gset = b.gset("symmetric", 3, (0, 2))
    return [
        _rung("olesen-pedersen.s3.free", ["olesen-pedersen", ts_s3], [("action", ts_s3)]),
        _rung("olesen-pedersen.d4.center", ["olesen-pedersen", ts_d4], [("action", ts_d4)]),
        _rung("olesen-pedersen.s3.a3", ["olesen-pedersen", ts_s3a3], [("action", ts_s3a3)]),
        _rung("landstad.z4", ["landstad", spec, "--family", family, "--group", "cyclic:4",
              "--normal", "0,2"], [("spec", spec)]),
        _rung("pullback.pauli.d4", ["pullback", pauli, "--group", "dihedral:4",
              "--normal", "0,1,2,3", "-o", "pulled.json"], [("spec", pauli)],
              writes="pulled.json"),
        _rung("verify.pulled.d4", ["verify", "pulled.json"], []),
        _rung("obstruction.s3", ["obstruction", gset, "--normal", ",".join(map(str, A3))],
              [("gset", gset)]),
    ]


def _frontier(b: _Builder) -> list[Rung]:
    """S4-sized rungs that the seed code cannot fit in the memory budget, and one it can."""
    s4 = b.trivial_m2("symmetric", 4)
    ts = b.transformation_system("symmetric", 4, V4)
    return [
        _rung("crossed.m2.symmetric4", ["crossed", s4], [("spec", s4)]),
        _rung("report.m2.symmetric4", ["report", s4], [("spec", s4)]),
        _rung("olesen-pedersen.s4.v4", ["olesen-pedersen", ts], [("action", ts)]),
        _rung("verify.m2.symmetric4", ["verify", s4], [("spec", s4)]),
    ]


_PLANS = {"bimodule": _bimodule, "report": _report, "duality": _duality, "frontier": _frontier}


def build(workload: str, workdir: str, seed: int) -> list[Rung]:
    """Write the workload's inputs into workdir and return its rungs in pass order."""
    return _PLANS[workload](_Builder(workdir, seed))
