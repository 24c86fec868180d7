"""Maps into a pull-back of a block Realization, against the dense route.

`PulledBack(real, q)` takes a map's images as coordinates in the abstract
fibers of `real`, and the library checks them on structure constants:
products and adjoints from `real.abstract`, HS norms through
`Realization.frame`, operator norms from the blocks. A dense target takes the
same route once its images are decomposed in its fibers.
`models.dense_isomorphism_report` is the other route: the same images made
dense on `PulledBack(real.bundle, q)`, one n x n product per pair in
`homomorphism_residuals`, which `olesen_pedersen_forward` took before.
`TestForwardOnTheSmallFactor` holds the small factors to the lambda-dense
pull-back.
"""

import json

import numpy as np
import pytest

from fellbundles import bundles, cli, duality, groups, matrices

import models

from test_cli import mat, pauli_spec_dict, run, transformation_system_spec, write_json
from test_duality import assert_routes_agree, failing_checks, forward_images, ladder_action
from test_duality import a4_klein_action, s3_signed_action  # noqa: F401
from test_realization import inner_z4_action, z2_point_and_block, z3_corners  # noqa: F401


def both_targets(action):
    """The forward map's pieces with the twisted realization kept, and its two targets."""
    tw_real = bundles.concretize(bundles.twisted_semidirect_bundle(action))
    semi, semi_real, _, q, images = forward_images(action)
    return semi, semi_real, images, bundles.PulledBack(tw_real, q), tw_real, q


def forward_coords(action, q):
    """The forward map's images [b_i, s] as coordinates on the basis of fiber sN."""
    basis = np.eye(action.algebra.dim)
    return [bundles.twisted_normal_form(action, q, basis, s)[1] for s in q.group.elements()]


def test_s4_v4_forward_agrees_with_the_dense_grading_route():
    # the lambda-dense reference_olesen_pedersen_forward would hold 24 fibers of
    # 6 images in M_864 here (about 1.7 GB), so the dense route is the twisted
    # realization's dense grading, pulled back on the small factor
    action = ladder_action(groups.symmetric(4), (0, 7, 16, 23))
    semi, semi_real, images, _, tw_real, q = both_targets(action)
    new = duality.olesen_pedersen_forward(action)
    assert "bundle" not in vars(tw_real)
    ref = models.dense_isomorphism_report(semi, semi_real,
                                          bundles.PulledBack(tw_real.bundle, q), images)
    assert new["pass"] and ref["pass"]
    assert new["dim_semidirect"] == new["dim_pullback"] == 144
    assert_routes_agree(new["iso"], ref)


@pytest.mark.parametrize("name", ["twisted_z4_action", "s3_signed_action", "inner_z4_action"])
@pytest.mark.parametrize("change", ["perturbed", "doubled"])
def test_a_coordinate_map_fails_as_its_dense_images_do(name, change, request):
    action = request.getfixturevalue(name)
    semi, semi_real, _, pb, tw_real, q = both_targets(action)
    coords = forward_coords(action, q)
    if change == "perturbed":
        coords[-1][0, 0] += 1e-6
    else:
        coords = [2.0 * y for y in coords]
    dense = [duality._image(tw_real, q.coset_of[s], y) for s, y in enumerate(coords)]
    new = bundles.realization_isomorphism_report(semi, semi_real, pb, coords)
    ref = models.dense_isomorphism_report(semi, semi_real,
                                          bundles.PulledBack(tw_real.bundle, q), dense)
    assert not new["pass"] and "multiplicative" in failing_checks(new)
    assert_routes_agree(new, ref)
    for v, w in zip(new["violations"], ref["violations"]):
        assert abs(v["residual"] - w["residual"]) <= 1e-12 * abs(w["residual"]), v["axiom"]


@pytest.mark.parametrize("make", [z3_corners, z2_point_and_block])
@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("pulled", [True, False])
def test_uneven_blocks_agree_with_the_dense_grading(make, scale, pulled):
    # fibers of dims (2, 1, 1) and (3, 2): blocks of several sizes; the target is
    # the realization itself, or its pull-back along G -> G/{e}
    abstract = bundles.abstract_from_graded(make())
    real = bundles.concretize(abstract)
    q = groups.quotient(real.group, (0,))
    coords = [scale * np.eye(d) for d in abstract.dims]
    images = [scale * real.images[s] for s in real.group.elements()]
    target, dense = ((bundles.PulledBack(real, q), bundles.PulledBack(real.bundle, q)) if pulled
                     else (real, real.bundle))
    new = bundles.realization_isomorphism_report(abstract, real, target, coords)
    ref = models.dense_isomorphism_report(abstract, real, dense, images)
    assert new["pass"] == (scale == 1.0)
    assert_routes_agree(new, ref)


def test_olesen_pedersen_never_builds_the_twisted_grading(tmp_path, monkeypatch, capsys):
    spec = transformation_system_spec(tmp_path / "ts_d4.json", "dihedral", 4, (0, 2))
    made = []
    build = duality.concretize

    def recorded(b, tol=matrices.DEFAULT_TOL):
        made.append(build(b, tol))
        return made[-1]

    monkeypatch.setattr(duality, "concretize", recorded)
    assert cli.run_command(["olesen-pedersen", spec]) == 0
    capsys.readouterr()
    twisted = [r for r in made if r.group.order == 4]
    assert len(twisted) == 1
    assert "bundle" not in vars(twisted[0]) and twisted[0]._images == {}


@pytest.mark.parametrize("name", ["twisted_z4_action", "swap_action", "s3_signed_action",
                                  "inner_z4_action", "a4_klein_action"])
def test_extracted_twist_matches_the_dense_fit(name, request):
    t = request.getfixturevalue(name)
    real = bundles.concretize(bundles.semidirect_bundle(t))
    u = duality.induced_multiplier_family(t, real)
    tau = duality.extract_twist(t, real, u)
    g, alg = t.group, t.algebra
    unit_c = alg.coords(matrices.unit_element(alg))
    for n in u.domain:
        dense = duality._image(real, n, unit_c) @ u.mat(g.inv(n))
        c, res = real.coords_in(0, dense)
        assert res <= 1e-12
        assert matrices.hs_norm(tau[n] - alg.from_coords(c)) <= 1e-12


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def diagonal_spec_dict():
    """span{E11, E22} over C2 with a zero odd fiber: four graded ideals."""
    spec = pauli_spec_dict()
    spec["fibers"] = {"0": [mat(np.diag([1.0, 0.0])), mat(np.diag([0.0, 1.0]))]}
    return spec


@pytest.mark.parametrize("make", [pauli_spec_dict, diagonal_spec_dict])
@pytest.mark.parametrize("tol", ["0", "1e-300"])
def test_gsimple_at_a_vanishing_tol_finds_the_default_ideals(capsys, tmp_path, make, tol):
    spec = write_json(tmp_path / "spec.json", make())
    rc, out, _ = run(capsys, "gsimple", spec)
    default = json.loads(out)
    rc_tol, out_tol, _ = run(capsys, "gsimple", spec, "--tol", tol)
    assert rc == rc_tol == 0
    assert json.loads(out_tol)["ideal_dims"] == default["ideal_dims"]
    assert len(default["ideal_dims"]) == (2 if make is pauli_spec_dict else 4)

