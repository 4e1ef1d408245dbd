"""Penalty functions, their polyhedral epigraphs and norm constants.

Four built-in kinds:

* ``linf``   -- max-norm of the residual (a norm),
* ``l1``     -- sum of absolute values (a norm),
* ``slinf:a``-- a positive rational multiple of the max-norm (a norm),
* ``sql2``   -- squared Euclidean norm (level-bounded but *not* a norm;
  eligible for asymptotic results only, absorbed into quadratic objectives
  rather than encoded by rows).

``linf`` and ``slinf:a`` are one family, ``a * ||u||_inf``, and ``slinf:1``
is ``linf``.  Each formula below is written once for the family and reads
its factor from ``Penalty.factor`` (``a`` for ``slinf:a``, 1 for every
other kind), so no function past ``parse_penalty`` branches on ``slinf``
or on ``linf``.

Sublevel-set diameters are measured in the max-norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimMismatchError,
    NegativeDeltaError,
    UnsupportedKindError,
)
from .numkit import (
    RatMat,
    RatVec,
    ceil_rat,
    ceil_sqrt,
    parse_rat,
    rat,
    sqrt_upper,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

LINF = "linf"
L1 = "l1"
SQL2 = "sql2"
SCALED_LINF = "slinf"

_KINDS = (LINF, L1, SQL2, SCALED_LINF)


@dataclass(frozen=True)
class Penalty:
    """A penalty on residual vectors of dimension ``dim``."""

    kind: str
    dim: int
    alpha: Fraction | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedKindError(f"unknown penalty kind {self.kind!r}")
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        if self.kind == SCALED_LINF:
            if self.alpha is None or rat(self.alpha) <= 0:
                raise ValueError("slinf needs a positive rational scale")
            object.__setattr__(self, "alpha", rat(self.alpha))
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no scale parameter")

    @property
    def is_norm(self) -> bool:
        return self.kind != SQL2

    @property
    def factor(self) -> Fraction:
        """The max-norm family's factor: ``alpha`` for ``slinf``, else 1."""
        return self.alpha if self.kind == SCALED_LINF else _ONE


def parse_penalty(spec: str, dim: int) -> Penalty:
    """Parse the CLI spec string: linf | l1 | sql2 | slinf:<p/q>."""
    if spec in (LINF, L1, SQL2):
        return Penalty(spec, dim)
    if spec.startswith("slinf:"):
        try:
            return Penalty(SCALED_LINF, dim, alpha=parse_rat(spec[len("slinf:"):]))
        except ValueError as exc:
            raise UnsupportedKindError(f"bad slinf scale in {spec!r}") from exc
    raise UnsupportedKindError(f"unknown penalty spec {spec!r}")


def evaluate(p: Penalty, u: RatVec) -> Fraction:
    if len(u) != p.dim:
        raise DimMismatchError(f"penalty dim {p.dim} vs residual dim {len(u)}")
    if p.kind == L1:
        return sum((abs(v) for v in u), _ZERO)
    if p.kind == SQL2:
        return sum((v * v for v in u), _ZERO)
    return p.factor * max((abs(v) for v in u), default=_ZERO)


def level_diam(p: Penalty, delta) -> Fraction:
    """Max-norm diameter of {u : psi(u) <= delta}.

    Exact for the polyhedral kinds; for ``sql2`` the true value is
    2*sqrt(delta) and a monotone rational upper bound on it is returned.
    """
    delta = rat(delta)
    if delta < 0:
        raise NegativeDeltaError("negative sublevel height")
    if delta == 0:
        return _ZERO
    if p.kind == SQL2:
        return 2 * sqrt_upper(delta)
    return 2 * delta / p.factor


@dataclass(frozen=True)
class EpigraphEncoding:
    """Rows over (x, aux) encoding psi(b - Ax) <= w.

    ``n_aux`` auxiliary columns are appended after x; the last one is w.
    Minimizing any positive multiple of w subject to these rows recovers
    the exact penalty value.
    """

    n_aux: int
    ineq_lhs: RatMat
    ineq_rhs: RatVec
    eq_lhs: RatMat
    eq_rhs: RatVec


def epigraph_rows(p: Penalty, A: RatMat, b: RatVec) -> EpigraphEncoding:
    """Linear encoding of the penalty epigraph for the norm kinds: two
    inequality rows per residual coordinate, as ``epigraph_rhs`` orders
    them."""
    rhs = epigraph_rhs(p, b)
    if A.rows != p.dim or len(b) != p.dim:
        raise DimMismatchError("epigraph_rows: residual dimension mismatch")
    n = A.cols
    m = A.rows

    if p.kind != L1:
        scale = p.factor
        rows = []
        for i in range(m):
            arow = A.row(i)
            rows.append([scale * v for v in arow] + [-_ONE])
            rows.append([-scale * v for v in arow] + [-_ONE])
        return EpigraphEncoding(1, RatMat(rows, cols=n + 1), rhs,
                                RatMat([], cols=n + 1), RatVec([]))

    # l1: one auxiliary t_i per residual coordinate, then w = sum t_i
    width = n + m + 1
    rows = []
    for i in range(m):
        arow = list(A.row(i))
        t_cols = [_ZERO] * (m + 1)
        t_cols[i] = -_ONE
        rows.append(arow + t_cols)
        rows.append([-v for v in arow] + t_cols)
    eq_row = [_ZERO] * n + [_ONE] * m + [-_ONE]
    return EpigraphEncoding(m + 1, RatMat(rows, cols=width), rhs,
                            RatMat([eq_row], cols=width), RatVec([_ZERO]))


def epigraph_rhs(p: Penalty, r: RatVec) -> RatVec:
    """Right-hand side of ``epigraph_rows``' inequalities for the residual
    r = b - Ax: (s r_i, -s r_i) per coordinate i, s = ``p.factor``."""
    if p.kind == SQL2:
        raise UnsupportedKindError("sql2 has no polyhedral epigraph")
    scale = p.factor
    return RatVec(v for u in r for v in (scale * u, -scale * u))


def epigraph_start(p: Penalty, r: RatVec) -> RatVec:
    """Auxiliary values that complete a point x with residual r = b - Ax to
    a feasible point (x, aux) of ``epigraph_rows``: t_i = |r_i| for l1,
    then w = psi(r), its least feasible value."""
    if p.kind == SQL2:
        raise UnsupportedKindError("sql2 has no polyhedral epigraph")
    w = evaluate(p, r)
    if p.kind == L1:
        return RatVec([abs(v) for v in r] + [w])
    return RatVec([w])


@dataclass(frozen=True)
class NormEquivConstants:
    """Integer constants tying a norm penalty to the max and Euclidean norms.

    gamma * ||u||_inf >= psi(u) >= ||u||_inf / gamma and
    eta * ||u||_2 >= psi(u) >= ||u||_2 / eta, both with integer gamma,
    eta >= 1.
    """

    gamma: int
    eta: int


def norm_constants(p: Penalty) -> NormEquivConstants:
    if not p.is_norm:
        raise UnsupportedKindError("norm constants are defined for norm kinds only")
    m = p.dim
    if p.kind == L1:
        return NormEquivConstants(max(1, m), max(1, ceil_sqrt(m)))
    alpha = p.factor
    gamma = max(1, ceil_rat(alpha if alpha >= 1 else 1 / alpha))
    # eta >= alpha covers eta*||u||_2 >= alpha*||u||_inf; the lower side
    # alpha*||u||_inf >= ||u||_2/eta needs eta*alpha >= sqrt(m)
    eta = max(1, ceil_rat(alpha))
    while Fraction(eta) * eta * alpha * alpha < m:
        eta += 1
    return NormEquivConstants(gamma, eta)
