"""Exact pins of ``solve_qp`` and ``solve_lp`` reports: status, value, x,
both duals and ray.

Four groups of programs are solved and their whole ``SolveReport`` compared
with the one recorded in ``tests/qp_pins.json``:

* seeded random QPs, some with a singular objective, a duplicated equality
  row or an unbounded objective;
* the continuous relaxation of every grid-corpus instance;
* the slice programs of two mixed grid instances, where the multipliers
  of degenerate slices are otherwise unpinned (the goldens see only
  pure-integer slices): the QPs ``eval_lr_plus`` solves at ``lambda_bar``
  with rho = 1 for linf, l1 and sql2, and with slinf:3/2 at rho 0 and
  1/2; and ``solve_ip``'s, LPs included.  A QP started warm is pinned by
  its cold report, and the warm one must have its status, value and x;
* LPs (group ``lp``): seeded random LPs, some with a duplicated equality
  row, negative or zero right-hand sides, some infeasible and some
  unbounded; the ``integer_box``, slice-table and ``check_boundedness``
  LPs of every grid-corpus instance; the max-norm subproblem of each
  ``rho_dual_linf`` point-slice probe on d1 and on the pure-integer
  corpus, whose degenerate duals the goldens record: ``_dual_probe``
  writes its record down with no solve, so the pin solves the probe's
  program itself; and the phase-1 LPs of cold ``solve_qp`` calls.

Each pin also holds a digest of the program (under the key ``qp``, for
LPs too), so a change in how a program is built shows as a changed digest
rather than as a changed report.  A slice program, and a slice-table LP,
holds only the rows of E with a nonzero continuous part; it is pinned as
the program with every row, each x2-only row put back at its place with
its slack as right-hand side and a zero multiplier in the report
(``full_rows``), which is the program and report of the full-row slice.

To record the pins again, only when a change alters the reports on
purpose and says so (naming groups records only those; the others keep
their bytes)::

    PYTHONPATH=src python tests/test_qp_pins.py [lp] [random] [relaxation] [slice]
"""

import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from aldual import ald, convexsolve, exactrho
from aldual.convexsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    QuadraticProgram,
    check_boundedness,
    solve_lp,
    solve_qp,
)
from aldual.instance import GenConfig, generate
from aldual.numkit import RatMat, RatVec, solve_linear, to_wire
from aldual.penalty import parse_penalty

from conftest import d1_instance
from full_rows import full_program, full_report
from corpus import GRID_SHAPES, PURE_INTEGER_SHAPES, grid_corpus, pure_integer_corpus

PINS = Path(__file__).resolve().parent / "qp_pins.json"

RANDOM_COUNT = 300
RANDOM_LP_COUNT = 400
# random QPs whose cold solves' phase-1 LPs are pinned
PHASE1_COUNT = 100
# grid shapes whose slice QPs are pinned: m = 2 with an E2 row
SLICE_SHAPES = [(2, 2, 2, 1, 2, 1100), (3, 1, 2, 1, 2, 1900)]
SLICE_KINDS = ("linf", "l1", "sql2")


def _rand_rat(rng, mag):
    den = rng.choice((1, 2, 4))
    return Fraction(rng.randint(-mag * den, mag * den), den)


def random_qp(seed: int) -> tuple[QuadraticProgram, RatVec]:
    """A feasible QP and the feasible point it was built around; Q = L^T L
    has rank k <= n, so it is often singular.

    About one in six QPs repeats its first equality row, and about one in
    five has at most two inequality rows and a rank-deficient Q, so that
    some are unbounded.
    """
    rng = Random(seed)
    n = rng.randint(1, 4)
    m_eq = rng.randint(0, 2)
    loose = rng.random() < 0.2
    m_in = rng.randint(0, 2) if loose else rng.randint(1, 5)
    k = rng.randint(0, n - 1) if loose else rng.randint(0, n)
    L = RatMat([[_rand_rat(rng, 2) for _ in range(n)] for _ in range(k)], cols=n)
    Q = L.transpose().matmul(L)
    x0 = RatVec([_rand_rat(rng, 3) for _ in range(n)])
    eq = [[_rand_rat(rng, 2) for _ in range(n)] for _ in range(m_eq)]
    if eq and rng.random() < 0.25:
        eq.append(list(eq[0]))
    A = RatMat(eq, cols=n)
    G = RatMat([[_rand_rat(rng, 2) for _ in range(n)] for _ in range(m_in)],
               cols=n)
    slack = [abs(_rand_rat(rng, 2)) if rng.random() < 0.7 else Fraction(0)
             for _ in range(m_in)]
    c = RatVec([_rand_rat(rng, 3) for _ in range(n)])
    return QuadraticProgram(Q, c, A, A.matvec(x0), G, RatVec(
        g + s for g, s in zip(G.matvec(x0), slack))), x0


def random_lp(seed: int) -> LinearProgram:
    """An LP with 1-4 free variables, 0-2 equality rows (about one in four
    LPs repeats its first row) and 0-4 inequality rows, about 30% of the
    entries zero; half of the LPs also get the rows x_k <= . and -x_k <= .
    for every k.  About two in three are built around a point, with zero
    slack on about a third of the rows, so they are feasible and often
    degenerate; the others take random right-hand sides in [-2, 2], zero
    included, and are often infeasible.  About one in eight has a zero
    objective."""
    rng = Random(seed)
    n = rng.randint(1, 4)

    def rows(k):
        return [[_rand_rat(rng, 2) if rng.random() < 0.7 else Fraction(0)
                 for _ in range(n)] for _ in range(k)]

    eq, G = rows(rng.randint(0, 2)), rows(rng.randint(0, 4))
    if eq and rng.random() < 0.25:
        eq.append(list(eq[0]))
    if rng.random() < 0.5:
        for k in range(n):
            for sign in (1, -1):
                G.append([Fraction(sign if j == k else 0) for j in range(n)])
    A, Gm = RatMat(eq, cols=n), RatMat(G, cols=n)
    if rng.random() < 0.65:
        x0 = RatVec([_rand_rat(rng, 2) for _ in range(n)])
        eq_rhs = A.matvec(x0)
        ineq_rhs = RatVec(g + (abs(_rand_rat(rng, 2)) if rng.random() < 0.7 else 0)
                          for g in Gm.matvec(x0))
    else:
        eq_rhs = RatVec([_rand_rat(rng, 2) for _ in eq])
        ineq_rhs = RatVec([_rand_rat(rng, 2) for _ in G])
    c = RatVec.zeros(n) if rng.random() < 0.125 else \
        RatVec([_rand_rat(rng, 3) for _ in range(n)])
    return LinearProgram(c, A, eq_rhs, Gm, ineq_rhs)


def _pin(qp: QuadraticProgram | LinearProgram, report=None) -> dict:
    text = json.dumps(to_wire(qp), sort_keys=True)
    return {"qp": hashlib.sha256(text.encode()).hexdigest()[:16],
            "report": to_wire(report or solve_qp(qp))}


def random_pins() -> dict:
    return {f"random {seed}": _pin(random_qp(seed)[0])
            for seed in range(RANDOM_COUNT)}


def relaxation_pins() -> dict:
    return {f"relaxation {shape}": _pin(ald.relaxation_program(inst))
            for shape, inst in zip(GRID_SHAPES, grid_corpus())}


def _record(pins: dict, label: str, run, solvers=("solve_qp",),
            numbers=None, module=ald, slices_of=None) -> None:
    """Run ``run()`` with ``module``'s ``solvers`` replaced by recorders:
    each program solved is pinned, in solve order, as ``label #i``, i taken
    from ``numbers`` (0, 1, ... by default).  A program given a start is
    pinned by its cold report and solved again from the start, with the
    caller's factor mapping, which must reach the same point.  With
    ``slices_of`` every program solved is a slice program or a
    slice-table LP of that instance, pinned with every row of E (see the
    module docstring), at the box point the slicer or the table walk
    visits last."""
    originals = {name: getattr(module, name) for name in solvers}
    numbers = itertools.count() if numbers is None else numbers
    visiting = []
    box_rows, slice_solve = ald._box_rows, ald.SliceSolver.solve

    def tracked_box_rows(inst, points):
        for row in box_rows(inst, points):
            visiting[:] = [row]
            yield row

    def tracked_solve(slicer, row):
        visiting[:] = [row]
        return slice_solve(slicer, row)

    def recorder(solve):
        def record(program, x0=None, factors=None):
            report = solve(program)
            if slices_of is None:
                pins[f"{label} #{next(numbers)}"] = _pin(program, report)
            else:
                [row] = visiting
                pins[f"{label} #{next(numbers)}"] = _pin(
                    full_program(slices_of, program, row.s2),
                    full_report(slices_of, report))
            if x0 is not None:
                warm = solve(program, x0, factors)
                assert (warm.status, warm.value, warm.x) == \
                    (report.status, report.value, report.x)
            return report
        return record

    try:
        for name, solve in originals.items():
            setattr(module, name, recorder(solve))
        ald._box_rows, ald.SliceSolver.solve = tracked_box_rows, tracked_solve
        run()
    finally:
        for name, solve in originals.items():
            setattr(module, name, solve)
        ald._box_rows, ald.SliceSolver.solve = box_rows, slice_solve


def slice_pins() -> dict:
    """Slice programs of each SLICE_SHAPES instance, in solve order: the
    relaxation's at lambda_bar (rho = 1 per kind, its table built on the
    way, then slinf:3/2 at rho 0 and 1/2) and solve_ip's.
    The pins at rho = 1 are numbered across the kinds of one shape."""
    pins = {}
    for shape in SLICE_SHAPES:
        n1, n2, m, m2, mag, seed = shape
        inst = generate(GenConfig(n1, n2, m, m2, magnitude=mag, seed=seed))
        lam = ald.lambda_bar(inst).lambda_bar
        label, both = f"slice {shape}", ("solve_qp", "solve_lp")

        def relax(rho, spec):
            return lambda: ald.eval_lr_plus(inst, lam, rho,
                                            parse_penalty(spec, inst.m))

        numbers = itertools.count()
        for kind in SLICE_KINDS:
            _record(pins, f"{label} {kind}", relax(1, kind), numbers=numbers,
                    slices_of=inst)
        for rho in (0, Fraction(1, 2)):
            _record(pins, f"{label} slinf:3/2 rho {rho}", relax(rho, "slinf:3/2"),
                    both, slices_of=inst)
        _record(pins, f"{label} solve_ip", lambda: ald.solve_ip(inst), both,
                slices_of=inst)
    return pins


def _dual_linf_probes(inst) -> list:
    """The ``(slicer, row)`` of each ``exactrho._dual_probe`` call that
    rho_dual_linf makes on inst, in call order; the slicer is the
    relaxation's at the probe's weight."""
    probes, probe = [], exactrho._dual_probe

    def recording(inst, blocks, slicer, row, rho):
        probes.append((slicer, row))
        return probe(inst, blocks, slicer, row, rho)

    exactrho._dual_probe = recording
    try:
        exactrho.rho_dual_linf(inst)
    finally:
        exactrho._dual_probe = probe
    return probes


def lp_pins() -> dict:
    """The random LPs; per grid instance its integer box's, slice table's
    and check_boundedness' LPs; the max-norm subproblem LP of each
    rho_dual_linf probe on d1 and the pure-integer corpus, which
    ``_dual_probe`` writes down in closed form and this solves cold (the
    goldens record their degenerate duals); and the phase-1 LPs of the
    first PHASE1_COUNT random QPs and of every grid relaxation, solved
    cold."""
    pins = {}
    for seed in range(RANDOM_LP_COUNT):
        lp = random_lp(seed)
        pins[f"lp random {seed}"] = _pin(lp, solve_lp(lp))
    by_lp = ("solve_lp",)
    for shape, inst in zip(GRID_SHAPES, grid_corpus()):
        label = f"lp grid {shape}"
        _record(pins, f"{label} box", lambda: ald.integer_box(inst), by_lp)
        _record(pins, f"{label} slices", lambda: ald._slices(inst), by_lp,
                slices_of=inst)
        _record(pins, f"{label} boundedness", lambda: check_boundedness(inst), by_lp,
                module=convexsolve)
        _record(pins, f"lp phase1 {shape}",
                lambda: solve_qp(ald.relaxation_program(inst)), by_lp,
                module=convexsolve)
    named = [("d1", d1_instance())] + [
        (str(shape), inst)
        for shape, (inst, _) in zip(PURE_INTEGER_SHAPES, pure_integer_corpus())]
    for name, inst in named:
        for i, (slicer, row) in enumerate(_dual_linf_probes(inst)):
            program = slicer.program(row)
            pins[f"lp dual-linf {name} #{i}"] = _pin(
                full_program(inst, program, row.s2), full_report(inst, solve_lp(program)))
    for seed in range(PHASE1_COUNT):
        _record(pins, f"lp phase1 random {seed}",
                lambda: solve_qp(random_qp(seed)[0]), by_lp, module=convexsolve)
    return pins


GROUPS = {"lp": lp_pins, "random": random_pins, "relaxation": relaxation_pins,
          "slice": slice_pins}


def _pins(group: str) -> dict:
    doc = json.loads(PINS.read_text(encoding="utf-8"))
    return {k: v for k, v in doc.items() if k.startswith(group + " ")}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_reports_match_pins(group):
    got, want = GROUPS[group](), _pins(group)
    assert sorted(got) == sorted(want)
    wrong = [name for name in want if got[name] != want[name]]
    assert not wrong, f"{len(wrong)} reports differ, first {wrong[:3]}"


def test_random_warm_starts_match_cold():
    """Started at the generator's feasible point, each random QP ends with
    the cold report's status and value; an unbounded one with a ray."""
    wrong, unbounded = [], 0
    for seed in range(RANDOM_COUNT):
        qp, x0 = random_qp(seed)
        cold, warm = solve_qp(qp), solve_qp(qp, x0)
        if (warm.status, warm.value) != (cold.status, cold.value):
            wrong.append(seed)
        elif warm.status == UNBOUNDED:
            ray = warm.ray
            assert qp.eq_lhs.rows == 0 or qp.eq_lhs.matvec(ray).is_zero()
            assert all(a <= 0 for a in qp.ineq_lhs.matvec(ray))
            assert qp.Qobj.matvec(ray).is_zero() and qp.cobj.dot(ray) < 0
            unbounded += 1
    assert not wrong, f"warm reports differ at seeds {wrong[:5]}"
    assert unbounded >= 10


def test_random_pins_cover_the_hard_cases():
    pins = _pins("random")
    statuses = [p["report"]["status"] for p in pins.values()]
    assert statuses.count("unbounded") >= 10
    assert statuses.count("optimal") >= 200
    qps = [random_qp(seed)[0] for seed in range(RANDOM_COUNT)]
    singular = [qp for qp in qps
                if solve_linear(qp.Qobj, RatVec.zeros(qp.Qobj.rows)).nullspace]
    assert len(singular) >= 100
    repeated = [qp for qp in qps if qp.eq_lhs.rows >= 2
                and qp.eq_lhs.row(0) == qp.eq_lhs.row(qp.eq_lhs.rows - 1)]
    assert len(repeated) >= 20


def test_lp_pins_cover_the_hard_cases():
    pins = _pins("lp")
    statuses = [pins[f"lp random {seed}"]["report"]["status"]
                for seed in range(RANDOM_LP_COUNT)]
    for status in (OPTIMAL, INFEASIBLE, UNBOUNDED):
        assert statuses.count(status) >= 50, status
    lps = [random_lp(seed) for seed in range(RANDOM_LP_COUNT)]
    assert sum(lp.eq_lhs.rows >= 2 and lp.eq_lhs.row(0) ==
               lp.eq_lhs.row(lp.eq_lhs.rows - 1) for lp in lps) >= 20
    rhs = [v for lp in lps for v in (*lp.eq_rhs, *lp.ineq_rhs)]
    assert sum(v < 0 for v in rhs) >= 200 and sum(v == 0 for v in rhs) >= 200
    kinds = {name.split(" #")[0].rsplit(" ", 1)[-1] for name in pins
             if name.startswith("lp grid ")}
    assert kinds == {"box", "slices", "boundedness"}
    assert sum(name.startswith("lp dual-linf d1 #") for name in pins) >= 49
    assert sum(name.startswith("lp phase1 ") for name in pins) >= 100


if __name__ == "__main__":
    groups = sys.argv[1:] or sorted(GROUPS)
    unknown = set(groups) - set(GROUPS)
    if unknown:
        sys.exit(f"unknown groups {sorted(unknown)}; choose from {sorted(GROUPS)}")
    doc = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    kept = {k: v for k, v in doc.items() if k.split(" ", 1)[0] not in groups}
    for group in groups:
        kept.update(GROUPS[group]())
    PINS.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"recorded {len(kept)} pins ({', '.join(groups)}) in {PINS}",
          file=sys.stderr)
