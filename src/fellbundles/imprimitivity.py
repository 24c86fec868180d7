"""The pre-imprimitivity bimodule linking the two crossed products.

Given a bundle D over G/N, three spaces of finitely supported fiber-valued
functions share one `Element` type, told apart by `kind`:

- "x", the bimodule X0: (coset k, t in G) -> D_k;
- "b", the algebra B0 of triples (d, s, t): (s, t) in G x G -> D_{sN};
- "c", the algebra C0 of pairs (d, kN, lN): (kN, lN) -> D_k.

The slot table `_slots(q, kind)` lists the keys of each space with the fiber
of D their values lie in, in coordinate order; it drives the one constructor
check, the generator bases, the random draws and the coordinate vectors. The
two products, both actions and both inner products run through one pairing
kernel, the adjoints and translations through one relabelling kernel.

`bimodule_check` is the one imprimitivity check. Every identity is read off
formula tables, built once per check: each formula is evaluated once on
every pair of generators, and the coordinates of the results are stacked
into 3-tensors (the adjoints and translations into coordinate matrices). The
tables are exact as every formula is (sesqui)linear, and faithful when each
coefficient lies in its slot's fiber, which D's grading axioms guarantee; so
D must pass them first. The bimodule axioms and the gamma identities are
then einsum identities, and a residual is the largest 2-norm of a slot's
block of coordinates in a difference: its HS norm, since fiber bases are
HS-orthonormal. Positivity and norms are read on one faithful realization,
`_realize` (`sections.slot_realization`), of C0 over G/N and of B0 over G
with no lambda(s) factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import matmul

import numpy as np

from .bundles import GradedBundle, require_fell_axioms, same_bundle, unit_fiber_unit
from .errors import FiberMismatch, GroupMismatch
from .groups import Quotient
from .matrices import (
    DEFAULT_TOL,
    ResidualReport,
    center_dimension,
    dagger,
    hs_norm,
    numerical_rank,
    op_norm,
)
from .sections import slot_realization as _realize


@dataclass(frozen=True, eq=False)
class Element:
    """Finitely supported map from the slot keys of `kind` to matrices in their fibers."""

    q: Quotient
    d: GradedBundle
    kind: str
    coeffs: dict

    def plus(self, other: "Element") -> "Element":
        _same_setup(self, other)
        if other.kind != self.kind:
            raise FiberMismatch(f"cannot add a {other.kind} element to a {self.kind} element")
        out = {k: np.array(m) for k, m in self.coeffs.items()}
        for key, m in other.coeffs.items():
            out[key] = out.get(key, 0.0) + m
        return Element(self.q, self.d, self.kind, out)

    def scaled(self, z: complex) -> "Element":
        return Element(self.q, self.d, self.kind, {k: z * m for k, m in self.coeffs.items()})


def _same_setup(a, b) -> None:
    if a.q.group.table != b.q.group.table or a.q.subgroup.members != b.q.subgroup.members:
        raise GroupMismatch("elements built over different quotient data")
    if not same_bundle(a.d, b.d):
        raise GroupMismatch("elements built over different base bundles")


def _check_base(q: Quotient, d: GradedBundle) -> None:
    if d.group.table != q.quotient_group.table:
        raise GroupMismatch("base bundle is not graded by the quotient group")


def _slots(q: Quotient, kind: str) -> list[tuple[tuple[int, int], int]]:
    """The keys of `kind` in coordinate order, each with the fiber of D it takes values in."""
    g, qg = q.group.elements(), q.quotient_group.elements()
    if kind == "x":
        return [((k, t), k) for k in qg for t in g]
    if kind == "b":
        return [((s, t), q.coset_of[s]) for s in g for t in g]
    return [((k, l), k) for k in qg for l in qg]


# the kernels behind every formula


def _pair(kinds: str, a: Element, b: Element, product, rule) -> Element:
    """Sum product(ma, mb) into slot rule(*ka, *kb) over all coefficient pairs.

    kinds names the kinds of a, b and the result, e.g. "bxx" for b acting on x.
    rule returns None for pairs whose positions do not match.
    """
    if a.kind != kinds[0] or b.kind != kinds[1]:
        raise FiberMismatch(f"expected {kinds[:2]} elements, got {a.kind}{b.kind}")
    _same_setup(a, b)
    out: dict = {}
    for ka, ma in a.coeffs.items():
        for kb, mb in b.coeffs.items():
            key = rule(*ka, *kb)
            if key is not None:
                out[key] = out.get(key, 0.0) + product(ma, mb)
    return Element(a.q, a.d, kinds[2], out)


def _relabel(kind: str, e: Element, rule, adjoint: bool = False) -> Element:
    """Move each coefficient of a `kind` element to slot rule(*key), taking its adjoint if asked.

    Every rule used here is a bijection of the slots, so nothing collides.
    """
    if e.kind != kind:
        raise FiberMismatch(f"expected a {kind} element, got a {e.kind} element")
    return Element(e.q, e.d, e.kind, {rule(*key): dagger(m) if adjoint else m
                                      for key, m in e.coeffs.items()})


# algebra operations


def b_mul(a: Element, b: Element) -> Element:
    g = a.q.group
    return _pair("bbb", a, b, matmul,
                 lambda s, t, u, v: (g.mul(s, u), v) if t == g.mul(u, v) else None)


def b_star(a: Element) -> Element:
    g = a.q.group
    return _relabel("b", a, lambda s, t: (g.inv(s), g.mul(s, t)), adjoint=True)


def c_mul(a: Element, b: Element) -> Element:
    qg = a.q.quotient_group
    return _pair("ccc", a, b, matmul,
                 lambda k, l, u, v: (qg.mul(k, u), v) if l == qg.mul(u, v) else None)


def c_star(a: Element) -> Element:
    qg = a.q.quotient_group
    return _relabel("c", a, lambda k, l: (qg.inv(k), qg.mul(k, l)), adjoint=True)


# the four generator formulas


def right_action(x: Element, c: Element) -> Element:
    """(d_sN, t) . (d_uN, vN) = (d_sN d_uN, t) when s^-1 t N = uvN."""
    q, qg = x.q, x.q.quotient_group

    def rule(k, t, u, v):
        return (qg.mul(k, u), t) if qg.mul(qg.inv(k), q.coset_of[t]) == qg.mul(u, v) else None

    return _pair("xcx", x, c, matmul, rule)


def left_action(b: Element, x: Element) -> Element:
    """(d_qN, q, r) . (d_sN, t) = (d_qN d_sN, qt) when r = t."""
    q, g, qg = b.q, b.q.group, b.q.quotient_group

    def rule(s, t, k, r):
        return (qg.mul(q.coset_of[s], k), g.mul(s, r)) if t == r else None

    return _pair("bxx", b, x, matmul, rule)


def rinner(x: Element, y: Element) -> Element:
    """<(d_sN, t), (d_uN, v)>_C = (d_sN* d_uN, u^-1 vN) when t = v.

    Conjugate-linear in x, linear in y.
    """
    q, qg = x.q, x.q.quotient_group

    def rule(xk, xt, yk, yt):
        if xt != yt:
            return None
        return qg.mul(qg.inv(xk), yk), qg.mul(qg.inv(yk), q.coset_of[yt])

    return _pair("xxc", x, y, lambda dx, dy: dagger(dx) @ dy, rule)


def linner(x: Element, y: Element) -> Element:
    """<(d_sN, t), (d_uN, v)>_B = (d_sN d_uN*, tv^-1, v) when su^-1 N = tv^-1 N.

    Linear in x, conjugate-linear in y.
    """
    q, g, qg = x.q, x.q.group, x.q.quotient_group

    def rule(xk, xt, yk, yt):
        w = g.mul(xt, g.inv(yt))
        return (w, yt) if qg.mul(xk, qg.inv(yk)) == q.coset_of[w] else None

    return _pair("xxb", x, y, lambda dx, dy: dx @ dagger(dy), rule)


# translations


def gamma(r: int, x: Element) -> Element:
    """gamma_r(d, t) = (d, t r^-1)."""
    g = x.q.group
    return _relabel("x", x, lambda k, t: (k, g.mul(t, g.inv(r))))


def dual_b(r: int, b: Element) -> Element:
    """(d, s, t) -> (d, s, t r^-1): the dual translation on B0."""
    g = b.q.group
    return _relabel("b", b, lambda s, t: (s, g.mul(t, g.inv(r))))


def inflated_dual_c(r: int, c: Element) -> Element:
    """(d, kN, lN) -> (d, kN, l r^-1 N): the inflated dual translation."""
    q, qg = c.q, c.q.quotient_group
    rbar = q.coset_of[r]
    return _relabel("c", c, lambda k, l: (k, qg.mul(l, qg.inv(rbar))))


# units, generators, random draws, coordinates


def _generators(kind: str, q: Quotient, d: GradedBundle) -> list[Element]:
    _check_base(q, d)
    return [Element(q, d, kind, {key: m})
            for key, fiber in _slots(q, kind)
            for m in d.fiber(fiber).basis_list()]


x_generators = partial(_generators, "x")
b_generators = partial(_generators, "b")
c_generators = partial(_generators, "c")


def _random(kind: str, q: Quotient, d: GradedBundle, rng) -> Element:
    coeffs = {}
    for key, fiber in _slots(q, kind):
        fk = d.fiber(fiber)
        c = rng.normal(size=fk.dim) + 1j * rng.normal(size=fk.dim)
        coeffs[key] = fk.from_coords(c)
    return Element(q, d, kind, coeffs)


_random_x = partial(_random, "x")
_random_b = partial(_random, "b")
_random_c = partial(_random, "c")


def _coords(es: list[Element]) -> np.ndarray:
    """Coordinates of same-kind elements in the fiber bases, one row each, slot after
    slot in slot-table order."""
    place, start = {}, 0
    for key, f in _slots(es[0].q, es[0].kind):
        fiber = es[0].d.fiber(f)
        place[key] = (start, fiber)
        start += fiber.dim
    out = np.zeros((len(es), start), dtype=complex)
    for row, e in zip(out, es):
        for key, m in e.coeffs.items():
            i, fiber = place[key]
            row[i:i + fiber.dim] = fiber.coords(m)
    return out


def _table(f, left: list[Element], right: list[Element]) -> np.ndarray:
    """Coordinates of f(a, b) for every pair of generators: shape (|left|, |right|, dim)."""
    return _coords([f(a, b) for a in left for b in right]).reshape(len(left), len(right), -1)


def dimensions(q: Quotient, d: GradedBundle) -> dict:
    section = d.section_dimension()
    g, qn = q.group.order, q.quotient_group.order
    dim_b = g * sum(d.fiber(q.coset_of[s]).dim for s in q.group.elements())
    return {"dimX": g * section, "dimB": dim_b, "dimC": qn * section}


def _distance(a, b) -> float:
    """The largest HS norm, slot by slot, of the difference of two elements."""
    keys = set(a.coeffs) | set(b.coeffs)
    return max((hs_norm(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) for k in keys), default=0.0)


def _slot_residual(q: Quotient, d: GradedBundle, kind: str, lhs, rhs) -> float:
    """`_distance` on coordinate stacks (..., dim) of `kind` elements: the 2-norm of a
    slot's block of coordinates is its HS norm, as fiber bases are HS-orthonormal."""
    dims = [d.fiber(f).dim for _, f in _slots(q, kind)]
    owner = np.repeat(np.arange(len(dims)), dims)[:, None] == np.arange(len(dims))
    return float(np.sqrt((np.abs(lhs - rhs) ** 2 @ owner).max(initial=0.0)))


_einsum = partial(np.einsum, optimize=True)


def _gamma_report(residual, tol: float, g, xs: list[Element], bs: list[Element],
                  cs: list[Element], lin, right) -> dict:
    """The two displayed identities for gamma, and gamma being an action, on all
    generators and all r: einsum identities on the linner and right_action
    tables, with gamma_r, dual_b(r) and inflated_dual_c(r) as the coordinate
    permutation matrices of the moved generators. A violation names its r.
    """
    gam = np.stack([_coords([gamma(r, x) for x in xs]) for r in g.elements()])
    rep = ResidualReport(tol, "linner_equivariance", "right_action_equivariance", "group_action")
    for r, p in enumerate(gam):
        dual = _coords([dual_b(r, b) for b in bs])
        inflated = _coords([inflated_dual_c(r, c) for c in cs])
        rep.residuals("linner_equivariance", residual(
            "b", _einsum("xa,yb,abk->xyk", p, p.conj(), lin), lin @ dual), r=r)
        rep.residuals("right_action_equivariance", residual(
            "x", right @ p, _einsum("xa,cb,abk->xck", p, inflated, right)), r=r)
    rep.residuals("group_action", residual("x", gam[None] @ gam[:, None], gam[np.array(g.table)]))
    return rep.build()


def bimodule_check(q: Quotient, d: GradedBundle, tol: float = DEFAULT_TOL,
                   samples: int = 4) -> tuple[dict, dict, dict]:
    """The imprimitivity check: the items report, the Morita summary (meaningful
    when the items pass) and the gamma report, from one build of the six tables.

    Items: (i) action associativity and commutation, (ii) module maps respect
    the inner products, (iii) adjoint symmetry, (iv) linearity sides,
    (v) x<y,z>_C = <x,y>_B z, (vi) fullness by rank, (vii) positivity,
    (viii) bounded action inequalities.

    The tables are faithful only on a Fell bundle, so D's grading axioms are
    required first (AxiomViolation), and so is a unit of D, which only the
    zero bundle lacks (NonUnitalUnitFiber). (i), (ii), (iii) and (v) are
    einsum identities on the tables, (vi) takes ranks off the inner-product
    tables, and (vii) and (viii) read the spectra of <x,x>, <bx,bx> and
    <xc,xc>, and the norms of the generators, on `_realize`. (iv) checks
    linearity on random elements; random elements also enter (i) and (vii).
    The summary's Wedderburn block counts of B0 and C0, faithfully realized, are
    the centre dimensions of the b_mul and c_mul tables: equal counts are the
    finite-dimensional shadow of the Morita equivalence.
    """
    _check_base(q, d)
    require_fell_axioms(d, tol)
    unit_fiber_unit(d, tol)
    rng = np.random.default_rng(29)
    xs, bs, cs = x_generators(q, d), b_generators(q, d), c_generators(q, d)
    dims = dimensions(q, d)
    left, right = _table(left_action, bs, xs), _table(right_action, xs, cs)
    bb, cc = _table(b_mul, bs, bs), _table(c_mul, cs, cs)
    lin, rin = _table(linner, xs, xs), _table(rinner, xs, xs)
    star_b, star_c = _coords([b_star(b) for b in bs]), _coords([c_star(c) for c in cs])
    residual = partial(_slot_residual, q, d)

    res_i = max(
        residual("x", _einsum("pqb,bxk->pqxk", bb, left), _einsum("qxy,pyk->pqxk", left, left)),
        residual("x", _einsum("pqc,xck->xpqk", cc, right), _einsum("xpy,yqk->xpqk", right, right)),
        residual("x", _einsum("bxy,yck->bxck", left, right), _einsum("xcy,byk->bxck", right, left)))
    for _ in range(samples):
        b1, x, c1 = _random_b(q, d, rng), _random_x(q, d, rng), _random_c(q, d, rng)
        res_i = max(res_i, _distance(right_action(left_action(b1, x), c1),
                                     left_action(b1, right_action(x, c1))))

    res_ii = max(
        residual("b", _einsum("bxz,zyk->bxyk", left, lin), _einsum("xyw,bwk->bxyk", lin, bb)),
        residual("c", _einsum("ycz,xzk->xyck", right, rin), _einsum("xyw,wck->xyck", rin, cc)))

    res_iii = max(residual("b", lin.conj() @ star_b, lin.transpose(1, 0, 2)),
                  residual("c", rin.conj() @ star_c, rin.transpose(1, 0, 2)))

    res_iv = 0.0
    for _ in range(samples):
        x1, x2 = _random_x(q, d, rng), _random_x(q, d, rng)
        y = _random_x(q, d, rng)
        z1, z2 = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        combo = x1.scaled(z1).plus(x2.scaled(z2))
        res_iv = max(res_iv, _distance(
            linner(combo, y), linner(x1, y).scaled(z1).plus(linner(x2, y).scaled(z2))))
        res_iv = max(res_iv, _distance(
            rinner(y, combo), rinner(y, x1).scaled(z1).plus(rinner(y, x2).scaled(z2))))
        res_iv = max(res_iv, _distance(
            rinner(combo, y),
            rinner(x1, y).scaled(np.conj(z1)).plus(rinner(x2, y).scaled(np.conj(z2)))))
        res_iv = max(res_iv, _distance(
            linner(y, combo),
            linner(y, x1).scaled(np.conj(z1)).plus(linner(y, x2).scaled(np.conj(z2)))))

    res_v = residual("x", _einsum("yzc,xck->xyzk", rin, right),
                     _einsum("xyb,bzk->xyzk", lin, left))

    rank_b, rank_c = (numerical_rank(np.linalg.svd(m, compute_uv=False), tol)
                      for m in (lin.reshape(-1, dims["dimB"]), rin.reshape(-1, dims["dimC"])))

    v = _coords(xs + [_random_x(q, d, rng) for _ in range(samples)])
    own_c = _einsum("pi,pj,ijk->pk", v.conj(), v, rin)  # <x, x>_C, generators first
    own_b = _einsum("pi,pj,ijk->pk", v, v.conj(), lin)
    real_b = np.stack([_realize(q.group, b.coeffs, d.ambient_dim) for b in bs])
    real_c = np.stack([_realize(q.quotient_group, c.coeffs, d.ambient_dim) for c in cs])
    sq_b, sq_c = (np.array([op_norm(r) ** 2 for r in real])[:, None, None]
                  for real in (real_b, real_c))
    gap_c = sq_b * own_c[:len(xs)] - _einsum("bxi,bxj,ijk->bxk", left.conj(), left, rin)
    gap_b = sq_c * own_b[:len(xs)] - _einsum("xci,xcj,ijk->cxk", right, right.conj(), lin)
    min_eig, pos_ok, res_viii = 0.0, True, 0.0
    for own, gap, real in ((own_c, gap_c, real_c), (own_b, gap_b, real_b)):
        # one batched spectrum: (vii) on the <x, x>, (viii) on the gaps
        # ||b||^2 <x, x>_C - <bx, bx>_C, and ||c||^2 <x, x>_B - <xc, xc>_B
        mats = (np.concatenate([own, gap.reshape(-1, len(real))])
                @ real.reshape(len(real), -1)).reshape(-1, *real.shape[1:])
        w = np.linalg.eigvalsh((mats + dagger(mats)) / 2)
        low, top = w[:len(own), 0], np.maximum(np.abs(w[:len(own)]).max(axis=1), 1.0)
        min_eig = min(min_eig, float((low / top).min()))
        pos_ok = pos_ok and bool((low >= -tol * top).all())  # is_psd's rule, ||m|| = max |w|
        res_viii = max(res_viii, -float(w[len(own):, 0].min()))

    rep = ResidualReport(tol, "i_bimodule", "ii_action_compatibility", "iii_adjoint_symmetry",
                         "iv_linearity", "v_inner_product_link", "vi_fullness",
                         "vii_positivity", "viii_boundedness", section="items")
    for name, res in [("i_bimodule", res_i), ("ii_action_compatibility", res_ii),
                      ("iii_adjoint_symmetry", res_iii), ("iv_linearity", res_iv),
                      ("v_inner_product_link", res_v)]:
        rep.residuals(name, res)
    rep.entry("vi_fullness", rank_b=int(rank_b), rank_c=int(rank_c),
              dim_b=dims["dimB"], dim_c=dims["dimC"])
    if (rank_b, rank_c) != (dims["dimB"], dims["dimC"]):
        rep.fail("vi_fullness")
    rep.entry("vii_positivity", min_relative_eigenvalue=min_eig)
    if not pos_ok:
        rep.fail("vii_positivity")
    rep.entry("viii_boundedness", max_defect=res_viii)
    if rep.exceeds(res_viii):
        rep.fail("viii_boundedness")
    blocks_b, blocks_c = center_dimension(bb, tol), center_dimension(cc, tol)
    return (rep.build(),
            dict(dims, blocksB=blocks_b, blocksC=blocks_c, equivalent=blocks_b == blocks_c),
            _gamma_report(residual, tol, q.group, xs, bs, cs, lin, right))
