"""Solver-free reference values for the output checks.

Everything here uses plain lists of ``Fraction`` and the formulas of the
problem statement, never ``aldual``'s solvers or containers, so a wrong
value from the program cannot be reproduced by the check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

_ZERO = Fraction(0)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _ZERO)


class Plain:
    """An instance's data as plain nested lists."""

    def __init__(self, inst):
        self.n1, self.n = inst.n1, inst.n
        self.Q = inst.Q.row_list()
        self.c = list(inst.c)
        self.A = inst.A.row_list()
        self.b = list(inst.b)
        self.E = inst.E.row_list()
        self.f = list(inst.f)
        self._points = None

    def residual(self, x) -> list[Fraction]:
        return [bi - dot(row, x) for row, bi in zip(self.A, self.b)]

    def objective(self, x) -> Fraction:
        return dot(self.c, x) + dot(x, [dot(row, x) for row in self.Q]) / 2

    def in_domain(self, x) -> bool:
        """E x <= f and the integer block integral."""
        return (all(dot(row, x) <= fi for row, fi in zip(self.E, self.f))
                and all(Fraction(v).denominator == 1 for v in x[self.n1:]))

    def lagrangian(self, x, lam, rho, kind: str) -> Fraction:
        u = self.residual(x)
        return self.objective(x) + dot(lam, u) + rho * psi(kind, u)

    def lattice(self):
        """Integer points of {E x <= f} for a pure-integer instance whose
        variables are all bounded by single-variable rows of E; None when
        the instance is not of that kind."""
        if self._points is None and self.n1 == 0:
            lo = [None] * self.n
            hi = [None] * self.n
            for row, fi in zip(self.E, self.f):
                nz = [j for j, a in enumerate(row) if a != 0]
                if len(nz) != 1:
                    continue
                j = nz[0]
                bound = fi / row[j]
                if row[j] > 0:
                    v = bound.numerator // bound.denominator
                    hi[j] = v if hi[j] is None else min(hi[j], v)
                else:
                    v = -((-bound.numerator) // bound.denominator)
                    lo[j] = v if lo[j] is None else max(lo[j], v)
            if None in lo or None in hi:
                return None
            self._points = [
                [Fraction(v) for v in p]
                for p in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
                if self.in_domain([Fraction(v) for v in p])]
        return self._points

    def lattice_min(self, lam, rho, kind: str) -> Fraction | None:
        """min of the penalized Lagrangian over the lattice points."""
        pts = self.lattice()
        if pts is None:
            return None
        return min(self.lagrangian(x, lam, rho, kind) for x in pts)

    def lattice_z_ip(self) -> Fraction | None:
        pts = self.lattice()
        if pts is None:
            return None
        return min((self.objective(x) for x in pts
                    if all(r == 0 for r in self.residual(x))), default=None)


def psi(kind: str, u) -> Fraction:
    if kind == "linf":
        return max((abs(v) for v in u), default=_ZERO)
    if kind == "l1":
        return sum((abs(v) for v in u), _ZERO)
    if kind == "sql2":
        return sum((v * v for v in u), _ZERO)
    raise ValueError(f"no reference penalty for {kind!r}")
