"""Seeded instance generation and screening for the benchmark workloads.

A workload lists strata.  Each stratum fixes the shape ``(n1, n2, m,
magnitude)`` and the classical gap class; the seed draws the extra-row count
``m2`` within its range and the generator seed.  Instances are drawn round
robin over the strata, so every run, and every prefix of a run's
operations, holds the same mix of slice counts and subproblem kinds.  (A
draw over whole shape ranges made ``ops_per_s`` differ by 60% between
seeds, because one operation's cost grows with the slice count and with
whether the bisection has a gap to close.)

Each candidate is built by the public ``instance.generate`` and screened the
way ``tests/corpus.py`` screens its frozen corpus: ``validate`` must report
nothing, ``check_boundedness`` must find the relaxation bounded and
``solve_ip`` must be OPTIMAL.  Every call into the program goes through a
module attribute (``ald.solve_ip``, not a name imported from ``ald``), so
the traced run sees the screening calls too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from aldual import ald, convexsolve, instance, penalty
from aldual.convexsolve import OPTIMAL

# A seed draws this many candidates per accepted instance before giving up.
MAX_TRIES_PER_CASE = 200


@dataclass(frozen=True)
class Stratum:
    """One instance shape; ``m2`` is drawn from the inclusive range.

    ``gap`` screens on the classical gap z_ip - z_lr(lambda_bar, 0): True
    keeps instances where it is positive (the certifying weight is
    positive), False those where it is zero, None either.
    """

    n1: int
    n2: int
    m: int
    m2: tuple[int, int]
    magnitude: int
    gap: bool | None = None
    q11_nonzero: bool = False

    def describe(self) -> str:
        text = (f"n1={self.n1} n2={self.n2} m={self.m} "
                f"m2={self.m2[0]}..{self.m2[1]} magnitude={self.magnitude}")
        if self.gap is not None:
            text += " gap>0" if self.gap else " gap=0"
        if self.q11_nonzero:
            text += " Q11!=0"
        return text


@dataclass(frozen=True)
class Case:
    """One screened instance with the facts the checks compare against."""

    label: str
    cfg: instance.GenConfig | None
    inst: instance.MiqpInstance
    path: str
    slices: int
    z_ip: Fraction
    nlp: ald.NlpDuals

    def describe(self) -> str:
        i = self.inst
        if self.cfg is None:
            return (f"{self.label}: {os.path.basename(self.path)} n1={i.n1} "
                    f"n2={i.n2} m={i.m} slices={self.slices}")
        c = self.cfg
        return (f"{self.label}: n1={c.n1} n2={c.n2} m={c.m} m2={c.m2} "
                f"magnitude={c.magnitude} gen_seed={c.seed} slices={self.slices}")


def screen(label: str, cfg, inst, path: str, stratum: Stratum | None = None) -> Case | None:
    """Screen one instance; ``None`` when it breaks a standing assumption
    or falls outside the stratum."""
    if instance.validate(inst):
        return None
    if not convexsolve.check_boundedness(inst).nlp_bounded:
        return None
    if stratum is not None and stratum.q11_nonzero and inst.q_blocks()[0].is_zero():
        return None
    ip = ald.solve_ip(inst)
    if ip.status != OPTIMAL:
        return None
    nlp = ald.lambda_bar(inst)
    if stratum is not None and stratum.gap is not None:
        lr0 = ald.eval_lr_plus(inst, nlp.lambda_bar, 0,
                               penalty.Penalty(penalty.LINF, inst.m))
        if (lr0.value < ip.value) != stratum.gap:
            return None
    slices = ald.integer_box(inst).size()
    return Case(label, cfg, inst, path, slices, ip.value, nlp)


def draw_cases(workload: str, seed: int, strata: tuple[Stratum, ...],
               per_stratum: int, work_dir: str) -> list[Case]:
    """``per_stratum`` screened instances of each stratum, round robin,
    written to ``work_dir``; the same for the same seed."""
    rng = Random(f"{workload}:{seed}")
    cases: list[Case] = []
    for _ in range(per_stratum):
        for stratum in strata:
            label = f"gen{len(cases)}"
            path = os.path.join(work_dir, f"{label}.json")
            for _ in range(MAX_TRIES_PER_CASE):
                cfg = instance.GenConfig(
                    n1=stratum.n1, n2=stratum.n2, m=stratum.m,
                    m2=rng.randint(*stratum.m2), magnitude=stratum.magnitude,
                    seed=rng.randrange(1 << 30))
                case = screen(label, cfg, instance.generate(cfg), path, stratum)
                if case is not None:
                    break
            else:
                raise RuntimeError(f"seed {seed}: no instance of stratum "
                                   f"{stratum.describe()} passed screening")
            instance.write_instance(case.inst, case.path)
            cases.append(case)
    return cases
