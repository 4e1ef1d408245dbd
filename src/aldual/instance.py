"""MIQP problem data: model, validation, JSON format, random generator.

An instance is

    min  c^T x + 1/2 x^T Q x   s.t.  A x = b,  E x <= f,
    x = (x1, x2) with x1 continuous (n1 coords, first) and x2 integer (n2).

Bounds on integer variables are never stored separately; they must be
implied by the rows of (E, f).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random

from .errors import ParseError, SchemaViolationError
from .numkit import RatMat, RatVec, ldl_psd_check, parse_rat, quad_form, to_wire

_ZERO = Fraction(0)


@dataclass(frozen=True)
class MiqpInstance:
    Q: RatMat
    c: RatVec
    A: RatMat
    b: RatVec
    E: RatMat
    f: RatVec
    n1: int
    n2: int

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def m2(self) -> int:
        return self.E.rows

    def objective_value(self, x: RatVec) -> Fraction:
        return self.c.dot(x) + quad_form(self.Q, x) / 2

    def split_cols(self, M: RatMat) -> tuple[RatMat, RatMat]:
        """Continuous-block and integer-block columns of a constraint matrix."""
        return M.col_block(0, self.n1), M.col_block(self.n1, self.n)

    def q_blocks(self) -> tuple[RatMat, RatMat, RatMat]:
        """(Q11, Q12, Q22) with Q11 the continuous-continuous block."""
        n1, n = self.n1, self.n
        idx1, idx2 = list(range(n1)), list(range(n1, n))
        return (
            self.Q.submatrix(idx1, idx1),
            self.Q.submatrix(idx1, idx2),
            self.Q.submatrix(idx2, idx2),
        )

    def c_split(self) -> tuple[RatVec, RatVec]:
        return self.c[: self.n1], self.c[self.n1 :]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    witness: RatVec | None = None


def validate(inst: MiqpInstance) -> list[Violation]:
    """Static shape and PSD invariants; violations are data, not errors."""
    out: list[Violation] = []
    n = inst.n1 + inst.n2
    if inst.n1 < 0 or inst.n2 < 0:
        out.append(Violation("DIM", "negative variable counts"))
        return out
    if inst.Q.rows != inst.Q.cols:
        out.append(Violation("DIM", f"Q is {inst.Q.rows}x{inst.Q.cols}, not square"))
        return out
    if inst.Q.cols != n:
        out.append(Violation("DIM", f"n1+n2={n} but Q has {inst.Q.cols} columns"))
    if len(inst.c) != n:
        out.append(Violation("DIM", f"c has dim {len(inst.c)}, expected {n}"))
    if inst.A.cols != n:
        out.append(Violation("DIM", f"A has {inst.A.cols} columns, expected {n}"))
    if len(inst.b) != inst.A.rows:
        out.append(Violation("DIM", f"b has dim {len(inst.b)}, A has {inst.A.rows} rows"))
    if inst.E.cols != n:
        out.append(Violation("DIM", f"E has {inst.E.cols} columns, expected {n}"))
    if len(inst.f) != inst.E.rows:
        out.append(Violation("DIM", f"f has dim {len(inst.f)}, E has {inst.E.rows} rows"))
    if out:
        return out
    if not inst.Q.is_symmetric():
        out.append(Violation("NOT_SYMMETRIC", "Q is not symmetric"))
        return out
    psd = ldl_psd_check(inst.Q)
    if not psd.is_psd:
        out.append(Violation("NOT_PSD", "Q has negative curvature", psd.witness))
    return out


@dataclass(frozen=True)
class GenConfig:
    """Deterministic random-instance recipe.

    ``m2`` counts *extra* random inequality rows; two box rows per integer
    variable (-B <= xi <= B with B = magnitude) are always emitted first, so
    the generated E has 2*n2 + m2 rows.  ``magnitude`` bounds |entry| for
    every generated rational.
    """

    n1: int
    n2: int
    m: int
    m2: int
    magnitude: int = 3
    seed: int = 0
    require_feasible: bool = True

    def __post_init__(self):
        if min(self.n1, self.n2, self.m, self.m2) < 0:
            raise ValueError("counts must be nonnegative")
        if self.magnitude < 1:
            raise ValueError("magnitude must be >= 1")
        if self.n1 + self.n2 == 0:
            raise ValueError("at least one variable required")


def _rand_rat(rng: Random, magnitude: int) -> Fraction:
    den = rng.choice((1, 1, 2, 4))
    return Fraction(rng.randint(-magnitude * den, magnitude * den), den)


def _bound_rows(n: int, cols: range, bound) -> tuple[list, list]:
    """Rows x_j <= bound and -x_j <= bound, in that order, for each column j
    in ``cols`` of an n-column matrix, with their right-hand sides."""
    rows, rhs = [], []
    for j in cols:
        for sign in (1, -1):
            row = [_ZERO] * n
            row[j] = Fraction(sign)
            rows.append(row)
            rhs.append(Fraction(bound))
    return rows, rhs


def generate(cfg: GenConfig) -> MiqpInstance:
    """Instance construction, deterministic in the seed.

    Q is L^T L for a random rational L (hence PSD).  With
    ``require_feasible`` a mixed point x0 inside the integer box is drawn
    first, b is set to A x0 and every extra inequality is relaxed to hold
    at x0, so Assumption-style feasibility holds by construction.
    """
    rng = Random(cfg.seed)
    n = cfg.n1 + cfg.n2
    B = cfg.magnitude

    L = RatMat([[_rand_rat(rng, 1) for _ in range(n)] for _ in range(n)], cols=n)
    Q = L.transpose().matmul(L)
    c = RatVec(_rand_rat(rng, B) for _ in range(n))
    A = RatMat([[_rand_rat(rng, 1) for _ in range(n)] for _ in range(cfg.m)], cols=n)

    e_rows, f_vals = _bound_rows(n, range(cfg.n1, n), B)
    extra_rows = [[_rand_rat(rng, 1) for _ in range(n)] for _ in range(cfg.m2)]
    extra_rhs = [_rand_rat(rng, B) for _ in range(cfg.m2)]

    if cfg.require_feasible:
        x0 = [_rand_rat(rng, B) for _ in range(cfg.n1)]
        x0 += [Fraction(rng.randint(-B, B)) for _ in range(cfg.n2)]
        x0v = RatVec(x0)
        b = A.matvec(x0v)
        for row, rhs in zip(extra_rows, extra_rhs):
            at_x0 = RatVec(row).dot(x0v)
            f_vals.append(rhs if rhs >= at_x0 else at_x0)
            e_rows.append(row)
    else:
        b = RatVec(_rand_rat(rng, B) for _ in range(cfg.m))
        e_rows.extend(extra_rows)
        f_vals.extend(extra_rhs)

    E = RatMat(e_rows, cols=n)
    f = RatVec(f_vals)
    return MiqpInstance(Q=Q, c=c, A=A, b=b, E=E, f=f, n1=cfg.n1, n2=cfg.n2)


_SCHEMA_FIELDS = ("n1", "n2", "Q", "c", "A", "b", "E", "f")


def to_json_dict(inst: MiqpInstance) -> dict:
    return to_wire(inst)


def _parse_vec(field: str, data) -> RatVec:
    if not isinstance(data, list) or any(not isinstance(s, str) for s in data):
        raise SchemaViolationError(field)
    try:
        return RatVec(parse_rat(s) for s in data)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}", field=field) from exc


def _parse_mat(field: str, data, cols: int) -> RatMat:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise SchemaViolationError(field)
    rows = []
    for i, row in enumerate(data):
        if any(not isinstance(s, str) for s in row):
            raise SchemaViolationError(field)
        try:
            rows.append([parse_rat(s) for s in row])
        except ValueError as exc:
            raise ParseError(f"{field} row {i}: {exc}", field=field) from exc
    try:
        return RatMat(rows, cols=cols)
    except ValueError as exc:
        raise SchemaViolationError(f"{field}: {exc}") from exc


def from_json_dict(doc: dict) -> MiqpInstance:
    if not isinstance(doc, dict):
        raise SchemaViolationError("top-level object")
    for field in _SCHEMA_FIELDS:
        if field not in doc:
            raise SchemaViolationError(field)
    unknown = set(doc) - set(_SCHEMA_FIELDS)
    if unknown:
        raise SchemaViolationError(f"unknown field {sorted(unknown)[0]}")
    n1, n2 = doc["n1"], doc["n2"]
    if not isinstance(n1, int) or not isinstance(n2, int) or isinstance(n1, bool) \
            or isinstance(n2, bool) or n1 < 0 or n2 < 0:
        raise SchemaViolationError("n1/n2")
    n = n1 + n2
    return MiqpInstance(
        Q=_parse_mat("Q", doc["Q"], cols=n),
        c=_parse_vec("c", doc["c"]),
        A=_parse_mat("A", doc["A"], cols=n),
        b=_parse_vec("b", doc["b"]),
        E=_parse_mat("E", doc["E"], cols=n),
        f=_parse_vec("f", doc["f"]),
        n1=n1,
        n2=n2,
    )


def read_instance(path) -> MiqpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            # not UTF-8, an int literal longer than int() converts, too deep
            raise ParseError(str(exc)) from exc
    return from_json_dict(doc)


def write_instance(inst: MiqpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def clamp_box(inst: MiqpInstance, radius: int) -> MiqpInstance:
    """A copy with extra rows -radius <= x_i <= radius for every variable.

    Used to probe unbounded instances on growing boxes.
    """
    rows, rhs = _bound_rows(inst.n, range(inst.n), radius)
    return replace(inst, E=RatMat(inst.E.row_list() + rows, cols=inst.n),
                   f=RatVec(list(inst.f) + rhs))
