"""Finite groups as validated Cayley tables.

Elements are dense integer indices 0..order-1 with the identity at index 0.
Everything downstream (fibers, cosets, permutation representations) indexes
off these integers, so the table is validated once at construction time.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MissingIdentity,
    NonAssociativeTable,
    NotAPermutationRow,
    NotASubgroup,
    NotNormal,
)


def _validate_table(table: tuple[tuple[int, ...], ...]) -> None:
    n = len(table)
    elems = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n or set(row) != elems:
            raise NotAPermutationRow(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        col = {table[i][j] for i in range(n)}
        if col != elems:
            raise NotAPermutationRow(f"column {j} is not a permutation of 0..{n - 1}")
    identity = None
    for e in range(n):
        if all(table[e][t] == t and table[t][e] == t for t in range(n)):
            identity = e
            break
    if identity is None:
        raise MissingIdentity("no two-sided identity element")
    if identity != 0:
        raise MissingIdentity(
            f"identity sits at index {identity}; relabel so it is element 0"
        )
    for a in range(n):
        for b in range(n):
            tab = table[a][b]
            for c in range(n):
                if table[tab][c] != table[a][table[b][c]]:
                    raise NonAssociativeTable(f"(a,b,c)=({a},{b},{c})")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on elements 0..order-1, identity at 0."""

    table: tuple[tuple[int, ...], ...]
    name: str = "G"
    inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate_table(self.table)
        object.__setattr__(self, "inverse", tuple(row.index(0) for row in self.table))

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, s: int, t: int) -> int:
        return self.table[s][t]

    def inv(self, s: int) -> int:
        return self.inverse[s]

    def conjugate(self, s: int, x: int) -> int:
        """s x s^-1."""
        return self.mul(self.mul(s, x), self.inv(s))

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.name}, order={self.order})"


def cyclic(n: int) -> FiniteGroup:
    """Z/nZ under addition."""
    if n < 1:
        raise MissingIdentity("order must be at least 1")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(table, name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Element f*n + a encodes flip^f rot^a; rot*flip = flip*rot^-1.
    """
    if n < 1:
        raise MissingIdentity("order must be at least 1")

    def mul(x: int, y: int) -> int:
        f1, a1 = divmod(x, n)
        f2, a2 = divmod(y, n)
        a = (a2 - a1 if f2 else a1 + a2) % n
        return ((f1 + f2) % 2) * n + a

    table = tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n))
    return FiniteGroup(table, name=f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    """S_n with elements enumerated lexicographically (identity first)."""
    if n < 0:
        raise MissingIdentity("n must be at least 0")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[k]] for k in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup(table, name=f"S{n}")


def from_table(table) -> FiniteGroup:
    """Build a group from an explicit Cayley table (validated)."""
    tab = tuple(tuple(int(v) for v in row) for row in table)
    return FiniteGroup(tab, name=f"table({len(tab)})")


def subgroup_members(g: FiniteGroup, members) -> tuple[int, ...]:
    """The sorted members of a subgroup of g, as ints; NotASubgroup names the
    first fault otherwise. Each member is checked to be a number before it is
    hashed or sorted, and range before any table lookup, so a string, a list,
    an index past the table, a negative one and a non-integer are all named."""
    members = tuple(members)
    for m in members:
        if not isinstance(m, numbers.Real):
            raise NotASubgroup(f"member {m!r} is not an integer")
    mem = set(members)
    outside = sorted(mem - set(g.elements()))
    if outside:
        raise NotASubgroup(f"member {outside[0]} is outside a group of order {g.order}")
    if 0 not in mem:
        raise NotASubgroup("a subgroup must contain the identity")
    ordered = tuple(sorted(int(m) for m in mem))
    for a in ordered:
        if g.inv(a) not in mem:
            raise NotASubgroup(f"not inverse-closed at {a}")
        for b in ordered:
            if g.mul(a, b) not in mem:
                raise NotASubgroup(f"not closed at ({a},{b})")
    return ordered


@dataclass(frozen=True)
class NormalSubgroup:
    """A normal subgroup given by its sorted member indices."""

    group: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        g = self.group
        mem = subgroup_members(g, self.members)
        inside = set(mem)
        for s in g.elements():
            for x in mem:
                if g.conjugate(s, x) not in inside:
                    raise NotNormal(f"conjugate of {x} by {s} escapes")
        object.__setattr__(self, "members", mem)

    @property
    def order(self) -> int:
        return len(self.members)

    def is_trivial(self) -> bool:
        return self.order == 1


@dataclass(frozen=True)
class Quotient:
    """Left-coset structure of G by a normal subgroup: coset_of and section are
    those of left_cosets, so section(eN) = e."""

    group: FiniteGroup
    subgroup: NormalSubgroup
    coset_of: tuple[int, ...]
    section: tuple[int, ...]
    quotient_group: FiniteGroup

    def n_part(self, s: int) -> int:
        """The n in s = section(sN) * n; lies in the subgroup."""
        g = self.group
        return g.mul(g.inv(self.section[self.coset_of[s]]), s)


def left_cosets(g: FiniteGroup, members) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(coset_of, section) for the left cosets sH of a subgroup H, normal or not.

    Cosets are numbered by their least element, and that element is the
    section: coset_of[s] is the number of sH and section[k] the least member
    of coset k, so section[0] = e. Raises NotASubgroup unless H is one.
    """
    mem = subgroup_members(g, members)
    coset_of = [-1] * g.order
    section = []
    for s in g.elements():  # the first unnumbered element is its coset's least
        if coset_of[s] < 0:
            for h in mem:
                coset_of[g.mul(s, h)] = len(section)
            section.append(s)
    return tuple(coset_of), tuple(section)


def quotient(g: FiniteGroup, subgroup) -> Quotient:
    """Quotient data for G / N; raises NotNormal if N is not normal."""
    n = subgroup if isinstance(subgroup, NormalSubgroup) else NormalSubgroup(g, tuple(subgroup))
    if n.group is not g and n.group.table != g.table:
        raise NotASubgroup("subgroup belongs to a different group")
    coset_of, section = left_cosets(g, n.members)
    qtable = tuple(tuple(coset_of[g.mul(a, b)] for b in section) for a in section)
    qg = FiniteGroup(qtable, name=f"{g.name}/{n.members}")
    return Quotient(g, n, coset_of, section, qg)


def left_regular(g: FiniteGroup) -> np.ndarray:
    """Permutation matrices lam[s] with lam[s] e_h = e_{s h}."""
    n = g.order
    lam = np.zeros((n, n, n), dtype=complex)
    for s in g.elements():
        for h in g.elements():
            lam[s, g.mul(s, h), h] = 1.0
    return lam
