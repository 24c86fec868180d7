"""The pre-imprimitivity bimodule linking the two crossed products.

Given a bundle D over G/N, three spaces are spanned by generators a (x) [slot],
a in a basis of the fiber of D the slot takes values in: the bimodule X0, slots
"x" (k, t) valued in D_k; the algebra B0, slots "b" (s, t) valued in D_{sN};
and C0, slots "c" (k, l) valued in D_k; s, t in G and k, l in G/N.

As in Quigg's block-matrix picture, a formula sends generators to one
generator times structure constants of D, or to zero. So each formula is a
slot map, a function of `Slots` read off the group tables that sends one or
two slots to one slot or to none, and a coefficient block chosen by the
fibers of its arguments from D's `prod` and `invol` (`abstract_from_graded`).
Fiber coordinates are padded with zeros to the largest fiber dimension; the
padding enters no residual. The blocks are faithful on a Fell bundle, so they
come from D's one guarded read: `abstract_from_graded` checks all five grading
axiom families in the sweep that reads the blocks (AxiomViolation otherwise).

`bimodule_check` builds the six binary slot tables once and compares two
composites of formulas on every slot triple or pair where either lands: by
the 2-norm of the difference of their blocks where both land in one slot (the
HS norm, fiber bases being HS-orthonormal), and else each block alone.
Positivity and norms are read on the faithful realization `_realize`
(`sections.slot_realization`) of the generators, with no lambda(s) factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bundles import GradedBundle, abstract_from_graded, unit_fiber_unit
from .errors import GroupMismatch
from .groups import Quotient
from .matrices import DEFAULT_TOL, ResidualReport, dagger, numerical_rank, op_norm
from .sections import slot_realization as _realize


def _check_base(q: Quotient, d: GradedBundle) -> None:
    if d.group.table != q.quotient_group.table:
        raise GroupMismatch("base bundle is not graded by the quotient group")


def _groups(q: Quotient) -> SimpleNamespace:
    """The tables the slot maps read: G's product and inverse, G/N's, and s -> sN."""
    qg = q.quotient_group
    return SimpleNamespace(mul=np.array(q.group.table), inv=np.array(q.group.inverse),
                           qmul=np.array(qg.table), qinv=np.array(qg.inverse),
                           coset=np.array(q.coset_of))


@dataclass(frozen=True)
class Slots:
    """Slots of one kind as integer arrays (first, second) of one shape; first
    is -1 where a formula lands in no slot."""

    g: SimpleNamespace
    kind: str
    first: np.ndarray
    second: np.ndarray

    @property
    def index(self) -> np.ndarray:
        width = len(self.g.qmul if self.kind == "c" else self.g.mul)
        return np.where(self.first >= 0, self.first * width + self.second, -1)

    @property
    def fiber(self) -> np.ndarray:
        """The fiber of D each slot takes values in."""
        return self.g.coset[self.first] if self.kind == "b" else self.first


def _all_slots(g: SimpleNamespace, kind: str) -> Slots:
    """Every slot of `kind`, in slot order."""
    n, m = len(g.mul), len(g.qmul)
    first, second = np.divmod(np.arange({"x": m * n, "b": n * n, "c": m * m}[kind]),
                              m if kind == "c" else n)
    return Slots(g, kind, first, second)


def _lands(kind: str, hit, first, second, *args: Slots) -> Slots:
    """Slots (first, second) of `kind` where hit holds and every argument is a slot."""
    for a in args:
        hit = hit & (a.first >= 0)
    return Slots(args[0].g, kind, np.where(hit, first, -1), np.where(hit, second, -1))


# the slot maps


def _crossed(kind: str, mul, a: Slots, b: Slots) -> Slots:
    """(s, t)(u, v) = (su, v) when t = uv: the delta_{t,uv} rule of
    `sections.crossed_structure`, over G for B0 and over G/N for C0."""
    return _lands(kind, a.second == mul[b.first, b.second], mul[a.first, b.first], b.second, a, b)


def b_mul(a: Slots, b: Slots) -> Slots:
    return _crossed("b", a.g.mul, a, b)


def c_mul(a: Slots, b: Slots) -> Slots:
    return _crossed("c", a.g.qmul, a, b)


def b_star(a: Slots) -> Slots:
    """(d, s, t)* = (d*, s^-1, st)."""
    return _lands("b", True, a.g.inv[a.first], a.g.mul[a.first, a.second], a)


def c_star(a: Slots) -> Slots:
    """(d, kN, lN)* = (d*, k^-1 N, klN)."""
    return _lands("c", True, a.g.qinv[a.first], a.g.qmul[a.first, a.second], a)


def right_action(x: Slots, c: Slots) -> Slots:
    """(d_sN, t) . (d_uN, vN) = (d_sN d_uN, t) when s^-1 t N = uvN."""
    g, (k, t), (u, v) = x.g, (x.first, x.second), (c.first, c.second)
    return _lands("x", g.qmul[g.qinv[k], g.coset[t]] == g.qmul[u, v], g.qmul[k, u], t, x, c)


def left_action(b: Slots, x: Slots) -> Slots:
    """(d_qN, q, r) . (d_sN, t) = (d_qN d_sN, qt) when r = t."""
    g, (s, r), (k, t) = b.g, (b.first, b.second), (x.first, x.second)
    return _lands("x", r == t, g.qmul[g.coset[s], k], g.mul[s, t], b, x)


def rinner(x: Slots, y: Slots) -> Slots:
    """<(d_sN, t), (d_uN, v)>_C = (d_sN* d_uN, u^-1 vN) when t = v; conjugate-linear in x."""
    g, (xk, xt), (yk, yt) = x.g, (x.first, x.second), (y.first, y.second)
    return _lands("c", xt == yt, g.qmul[g.qinv[xk], yk], g.qmul[g.qinv[yk], g.coset[yt]], x, y)


def linner(x: Slots, y: Slots) -> Slots:
    """<(d_sN, t), (d_uN, v)>_B = (d_sN d_uN*, tv^-1, v) when su^-1 N = tv^-1 N;
    conjugate-linear in y."""
    g, (xk, xt), (yk, yt) = x.g, (x.first, x.second), (y.first, y.second)
    w = g.mul[xt, g.inv[yt]]
    return _lands("b", g.qmul[xk, g.qinv[yk]] == g.coset[w], w, yt, x, y)


def gamma(r: int, x: Slots) -> Slots:
    """gamma_r(d, t) = (d, t r^-1)."""
    return _lands("x", True, x.first, x.g.mul[x.second, x.g.inv[r]], x)


def dual_b(r: int, b: Slots) -> Slots:
    """(d, s, t) -> (d, s, t r^-1): the dual translation on B0."""
    return _lands("b", True, b.first, b.g.mul[b.second, b.g.inv[r]], b)


def inflated_dual_c(r: int, c: Slots) -> Slots:
    """(d, kN, lN) -> (d, kN, l r^-1 N): the inflated dual translation."""
    return _lands("c", True, c.first, c.g.qmul[c.second, c.g.qinv[c.g.coset[r]]], c)


# slot tables and what is read off them


class _Table:
    """A binary formula on every pair of slots: target[a, b] is the slot it sends
    (a, b) to (-1: none), and coef[i, j] its (K, K, K) block on the generators
    of fibers i and j. The pairs that land, (a, b) -> out, keep their blocks."""

    def __init__(self, target, fa, fb, coef, size: int):
        self.target, self.fa, self.fb, self.coef, self.size = target, fa, fb, coef, size
        self.a, self.b = np.nonzero(target >= 0)
        self.out = target[self.a, self.b]
        self.blocks = self.block(self.a, self.b)

    def block(self, a, b) -> np.ndarray:
        return self.coef[self.fa[a], self.fb[b]]


def _slot_table(f, a: Slots, b: Slots, coef: np.ndarray) -> _Table:
    """f on every pair of slots of a and b, with the blocks coef[fiber, fiber]."""
    out = f(Slots(a.g, a.kind, a.first[:, None], a.second[:, None]), b)
    return _Table(out.index, a.fiber, b.fiber, coef, _all_slots(a.g, out.kind).first.size)


def _then(g: _Table, f: _Table):
    """f(g(a, b), c) on every slot triple where it lands: (key, target, blocks)."""
    p, c = np.nonzero(f.target[g.out] >= 0)
    a, b, mid, k = g.a[p], g.b[p], g.out[p], g.blocks.shape[-1]
    blocks = g.blocks[p].reshape(-1, k * k, k) @ f.block(mid, c).reshape(-1, k, k * k)
    key = np.ravel_multi_index((a, b, c), (len(g.fa), len(g.fb), len(f.fb)))
    return key, f.target[mid, c], blocks.reshape(-1, k, k, k, k)


def _into(f: _Table, g: _Table):
    """f(a, g(b, c)) on every slot triple where it lands: (key, target, blocks)."""
    a, p = np.nonzero(f.target[:, g.out] >= 0)
    b, c, mid, k = g.a[p], g.b[p], g.out[p], g.blocks.shape[-1]
    blocks = g.blocks[p].reshape(-1, 1, k * k, k) @ f.block(a, mid)  # (., i, jk, l)
    key = np.ravel_multi_index((a, b, c), (len(f.fa), len(g.fa), len(g.fb)))
    return key, f.target[a, mid], blocks.reshape(-1, k, k, k, k)


def _side(t: _Table, pa: np.ndarray, pb: np.ndarray, after: np.ndarray):
    """after(t(pa[a], pb[b])), slot maps around t, on every slot pair (a, b) where
    it lands: (key, target, blocks)."""
    target = t.target[pa[:, None], pb[None, :]]
    target = np.where(target >= 0, after[target], -1)
    a, b = np.nonzero(target >= 0)
    return a * len(pb) + b, target[a, b], t.block(pa[a], pb[b])


def _residual(lhs, rhs) -> float:
    """The largest HS norm, slot by slot, of lhs - rhs, two sides (key, target,
    blocks) with unique keys: where both land in one slot their blocks are
    subtracted, elsewhere each block counts alone."""
    (lk, lt, lb), (rk, rt, rb) = lhs, rhs
    _, i, j = np.intersect1d(lk, rk, assume_unique=True, return_indices=True)
    i, j = i[lt[i] == rt[j]], j[lt[i] == rt[j]]
    parts = (lb[i] - rb[j], np.delete(lb, i, axis=0), np.delete(rb, j, axis=0))
    return float(np.sqrt(max((np.abs(p) ** 2).sum(-1).max(initial=0.0) for p in parts)))


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """The largest HS norm, slot by slot, of the difference of two coordinate arrays."""
    return float(np.sqrt((np.abs(a - b) ** 2).sum(-1).max(initial=0.0)))


def _apply(t: _Table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t's formula on coordinates a (..., slots, K) and b, each conjugated beforehand
    where the formula is conjugate-linear in it: (..., t.size, K)."""
    vals = np.einsum("...pi,...pj,pijk->...pk", a[..., t.a, :], b[..., t.b, :], t.blocks)
    scatter = np.zeros((t.size, len(t.out)))
    scatter[t.out, np.arange(len(t.out))] = 1.0
    return scatter @ vals


def _random(rng, dims: np.ndarray, width: int) -> np.ndarray:
    """A random element as padded coordinates (slots, width): slot by slot, the
    real parts of its coordinates, then the imaginary parts, as the dense model
    draws them."""
    raw = rng.normal(size=2 * int(dims.sum()))
    live = np.arange(width) < dims[:, None]
    at = np.where(live, 2 * (np.cumsum(dims) - dims)[:, None] + np.arange(width), 0)
    return np.where(live, raw[at] + 1j * raw[np.where(live, at + dims[:, None], 0)], 0.0)


def _rank(t: _Table, dims: np.ndarray, tol: float) -> int:
    """Rank of the rows f(generator, generator) of t: each lies in one slot, so the
    singular values are those of each slot's rows, cut at one tolerance. dims
    are the fiber dimensions of the target slots."""
    k, order = t.blocks.shape[-1], np.argsort(t.out, kind="stable")
    out, counts = t.out[order], np.bincount(t.out, minlength=t.size)
    rows = np.zeros((t.size, counts.max(initial=0), k * k, k), dtype=complex)
    rows[out, np.arange(len(out)) - np.repeat(np.cumsum(counts) - counts, counts)] = (
        t.blocks[order].reshape(-1, k * k, k))
    sv = np.linalg.svd(rows.reshape(t.size, -1, k), compute_uv=False)
    return numerical_rank(np.sort(sv[np.arange(k) < dims[:, None]])[::-1], tol)


def _centre_dimension(t: _Table, width: int, live: np.ndarray, tol: float) -> int:
    """dim of the centre of B0 (or C0), off its product table t. The unit is the
    sum of the projections u (x) [e, l] over the diagonal slots, the first
    `width`, u the unit of D_e; so a central z is a sum of z_l (x) [e, l], and
    it is central iff z_{sl} a = a z_l for every generator a at slot (s, l),
    both sides landing in a's slot. live masks the padded coordinates."""
    k, slots, diag = t.blocks.shape[-1], np.arange(len(t.fb)), np.arange(width)
    # rows (slot j, generator of j, coordinate in j); columns (l, coordinate of z_l)
    m = np.zeros((len(slots), k, k, width, k), dtype=complex)
    d, j = np.nonzero(t.target[diag] == slots)  # z_l a lands in a's slot
    m[j, :, :, d] += t.block(d, j).transpose(0, 2, 3, 1)
    j, d = np.nonzero(t.target[:, diag] == slots[:, None])  # a z_l does
    m[j, :, :, d] -= t.block(j, d).transpose(0, 1, 3, 2)
    z = live[:width * k]
    sv = np.linalg.svd(m.reshape(-1, width * k)[:, z], compute_uv=False)
    return int(z.sum()) - numerical_rank(sv, tol)


def _padded(d: GradedBundle, g: SimpleNamespace, tol: float):
    """prod (fibers, fibers, K, K, K), invol (fibers, K, K) and the fiber bases
    (fibers, K, n, n) of D, padded to the largest fiber dimension K, and the
    fiber dimensions: D's one read, so AxiomViolation unless D is a grading."""
    ab = abstract_from_graded(d, tol)
    dims, m = np.array(ab.dims), len(ab.dims)
    k, n = int(dims.max(initial=0)), d.ambient_dim
    prod, invol = np.zeros((m, m, k, k, k), dtype=complex), np.zeros((m, k, k), dtype=complex)
    basis = np.zeros((m, k, n, n), dtype=complex)
    for (s, t), c in ab.prod.items():
        prod[s, t, :dims[s], :dims[t], :dims[g.qmul[s, t]]] = c
    for s, c in enumerate(ab.invol):
        invol[s, :dims[s], :dims[g.qinv[s]]] = c
        basis[s, :dims[s]] = d.fiber(s).basis
    return prod, invol, basis, dims


def _action_inner(act: _Table, inner: _Table, conj_first: bool, real: np.ndarray) -> np.ndarray:
    """<ax, ax>_C (or <xa, xa>_B) realized for every pair of generators of act's
    landing slot pairs: (pairs, K, K, n, n). inner is conjugate-linear in its
    first argument iff conj_first."""
    v, mid = act.blocks, act.out
    u, w = (v.conj(), v) if conj_first else (v, v.conj())
    val = np.einsum("pabe,pabf,pefk->pabk", u, w, inner.block(mid, mid))
    target = inner.target[mid, mid]
    return np.einsum("pabk,pkij->pabij", val, real[target] * (target >= 0)[:, None, None, None])


def _gamma_report(g: SimpleNamespace, tol: float, xs: Slots, bs: Slots, cs: Slots, x_dims,
                  lin: _Table, right: _Table) -> dict:
    """The two displayed identities for gamma, and gamma being an action, on all
    slots and all r; translations keep coefficients. A violation names its r."""
    rep = ResidualReport(tol, "linner_equivariance", "right_action_equivariance", "group_action")
    n = len(g.mul)
    gam = np.stack([gamma(r, xs).index for r in range(n)])
    ix, ib, ic = xs.index, bs.index, cs.index
    for r, p in enumerate(gam):
        rep.residuals("linner_equivariance", _residual(
            _side(lin, p, p, ib), _side(lin, ix, ix, dual_b(r, bs).index)), r=r)
        rep.residuals("right_action_equivariance", _residual(
            _side(right, ix, ic, p), _side(right, p, inflated_dual_c(r, cs).index, ix)), r=r)
    # gamma_r gamma_s = gamma_rs: a generator sent to a wrong slot is off by its norm, 1
    wrong = (gam[np.arange(n)[:, None, None], gam[None]] != gam[g.mul]) & (x_dims > 0)
    rep.residuals("group_action", float(wrong.any()))
    return rep.build()


def bimodule_check(q: Quotient, d: GradedBundle, tol: float = DEFAULT_TOL,
                   samples: int = 4) -> tuple[dict, dict, dict]:
    """The imprimitivity check: the items report, the Morita summary (meaningful
    when the items pass) and the gamma report, from one build of the six slot
    tables.

    Items: (i) action associativity and commutation, (ii) module maps respect
    the inner products, (iii) adjoint symmetry, (iv) linearity sides,
    (v) x<y,z>_C = <x,y>_B z, (vi) fullness by rank, (vii) positivity,
    (viii) bounded action inequalities. D must pass its grading axioms
    (AxiomViolation) and have a unit, which only the zero bundle lacks
    (NonUnitalUnitFiber). The Wedderburn block counts of B0 and C0 are their
    centre dimensions: equal counts are the finite-dimensional shadow of the
    Morita equivalence.
    """
    _check_base(q, d)
    g = _groups(q)
    prod, invol, basis, fiber_dims = _padded(d, g, tol)
    unit_fiber_unit(d, tol)
    k = prod.shape[-1]
    xs, bs, cs = (_all_slots(g, kind) for kind in "xbc")
    dims = {s.kind: fiber_dims[s.fiber] for s in (xs, bs, cs)}  # of each slot's fiber
    live = {kind: (np.arange(k) < dm[:, None]).ravel() for kind, dm in dims.items()}
    rng = np.random.default_rng(29)

    def draw(kind: str) -> np.ndarray:
        return _random(rng, dims[kind], k)

    left, right = _slot_table(left_action, bs, xs, prod), _slot_table(right_action, xs, cs, prod)
    bb, cc = _slot_table(b_mul, bs, bs, prod), _slot_table(c_mul, cs, cs, prod)
    # <a, b>_B = a b* and <a, b>_C = a* b on the generators of fibers k and l
    lin = _slot_table(linner, xs, xs, np.einsum("ljp,klipc->klijc", invol, prod[:, g.qinv]))
    rin = _slot_table(rinner, xs, xs, np.einsum("kip,klpjc->klijc", invol, prod[g.qinv]))

    def lin_of(u, v):
        return _apply(lin, u, v.conj())

    def rin_of(u, v):
        return _apply(rin, u.conj(), v)

    res_i = max(_residual(_then(bb, left), _into(left, left)),
                _residual(_into(right, cc), _then(right, right)),
                _residual(_then(left, right), _into(left, right)))
    for _ in range(samples):
        b1, x, c1 = draw("b"), draw("x"), draw("c")
        res_i = max(res_i, _distance(_apply(right, _apply(left, b1, x), c1),
                                     _apply(left, b1, _apply(right, x, c1))))

    res_ii = max(_residual(_then(left, lin), _into(bb, lin)),
                 _residual(_into(rin, right), _then(rin, cc)))

    res_iii = max(_residual(  # <x, y>* against <y, x>
        (t.a * len(t.fb) + t.b, star(src).index[t.out],
         t.blocks.conj() @ invol[src.fiber[t.out]][:, None]),
        (t.b * len(t.fa) + t.a, t.out, t.blocks.transpose(0, 2, 1, 3)))
        for t, src, star in ((lin, bs, b_star), (rin, cs, c_star)))

    res_iv = 0.0
    for _ in range(samples):
        x1, x2, y = draw("x"), draw("x"), draw("x")
        z1, z2 = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        combo, w1, w2 = z1 * x1 + z2 * x2, np.conj(z1), np.conj(z2)
        res_iv = max(res_iv,
                     _distance(lin_of(combo, y), z1 * lin_of(x1, y) + z2 * lin_of(x2, y)),
                     _distance(rin_of(y, combo), z1 * rin_of(y, x1) + z2 * rin_of(y, x2)),
                     _distance(rin_of(combo, y), w1 * rin_of(x1, y) + w2 * rin_of(x2, y)),
                     _distance(lin_of(y, combo), w1 * lin_of(y, x1) + w2 * lin_of(y, x2)))

    res_v = _residual(_into(right, rin), _then(lin, left))

    rank_b, rank_c = _rank(lin, dims["b"], tol), _rank(rin, dims["c"], tol)

    # the generators, padded ones included, then the random x of (vii)
    n_x = len(live["x"])
    vs = np.concatenate([np.eye(n_x), np.array([draw("x").ravel() for _ in range(samples)])
                         .reshape(samples, n_x)]).reshape(-1, len(xs.first), k)
    real_b, real_c = (np.array([[_realize(group, {(s, t): m}, d.ambient_dim) for m in basis[f]]
                                for s, t, f in zip(sl.first, sl.second, sl.fiber)])
                      for group, sl in ((q.group, bs), (q.quotient_group, cs)))
    own_c, own_b = np.tensordot(rin_of(vs, vs), real_c, 2), np.tensordot(lin_of(vs, vs), real_b, 2)
    pad_c, pad_b = (own[:n_x].reshape(len(xs.first), k, *own.shape[1:]) for own in (own_c, own_b))
    sq = op_norm(basis) ** 2
    # ||b||^2 <x, x>_C - <bx, bx>_C and ||c||^2 <x, x>_B - <xc, xc>_B, every pair of generators
    gap_c = sq[bs.fiber][:, :, None, None, None, None] * pad_c[None, None]
    gap_c[left.a, :, left.b] -= _action_inner(left, rin, True, real_c)
    gap_b = pad_b[:, :, None, None] * sq[cs.fiber][None, None, :, :, None, None]
    gap_b[right.a, :, right.b] -= _action_inner(right, lin, False, real_b)
    own_rows = np.concatenate([live["x"], np.ones(samples, dtype=bool)])
    min_eig, pos_ok, res_viii = 0.0, True, 0.0
    for own, gap, rows, cols in ((own_c[own_rows], gap_c, live["b"], live["x"]),
                                 (own_b[own_rows], gap_b, live["x"], live["c"])):
        # one batched spectrum: (vii) on the <x, x>, (viii) on the gaps
        gap = gap.reshape(len(rows), len(cols), *own.shape[1:])[rows][:, cols]
        mats = np.concatenate([own, gap.reshape(-1, *own.shape[1:])])
        w = np.linalg.eigvalsh((mats + dagger(mats)) / 2)
        low, top = w[:len(own), 0], np.maximum(np.abs(w[:len(own)]).max(axis=1), 1.0)
        min_eig = min(min_eig, float((low / top).min()))
        pos_ok = pos_ok and bool((low >= -tol * top).all())  # is_psd's rule, ||m|| = max |w|
        res_viii = max(res_viii, -float(w[len(own):, 0].min()))

    identities = ("i_bimodule", "ii_action_compatibility", "iii_adjoint_symmetry",
                  "iv_linearity", "v_inner_product_link")
    rep = ResidualReport(tol, *identities, "vi_fullness", "vii_positivity", "viii_boundedness",
                         section="items")
    for name, res in zip(identities, (res_i, res_ii, res_iii, res_iv, res_v)):
        rep.residuals(name, res)
    dim = {f"dim{kind.upper()}": int(live[kind].sum()) for kind in "xbc"}
    rep.entry("vi_fullness", rank_b=int(rank_b), rank_c=int(rank_c),
              dim_b=dim["dimB"], dim_c=dim["dimC"])
    if (rank_b, rank_c) != (dim["dimB"], dim["dimC"]):
        rep.fail("vi_fullness")
    rep.entry("vii_positivity", min_relative_eigenvalue=min_eig)
    if not pos_ok:
        rep.fail("vii_positivity")
    rep.entry("viii_boundedness", max_defect=res_viii)
    if rep.exceeds(res_viii):
        rep.fail("viii_boundedness")
    blocks_b, blocks_c = (_centre_dimension(t, len(width), live[kind], tol)
                          for t, kind, width in ((bb, "b", g.mul), (cc, "c", g.qmul)))
    return (rep.build(),
            dict(dim, blocksB=blocks_b, blocksC=blocks_c, equivalent=blocks_b == blocks_c),
            _gamma_report(g, tol, xs, bs, cs, dims["x"], lin, right))
