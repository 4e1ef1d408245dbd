"""The paper's statements about z_lr(lambda_bar, rho), as properties.

Small instances are drawn with ``instance.generate`` (n1 <= 1,
1 <= n2 <= 2, m = 1) and screened as ``tests/corpus.py``'s corpus was:
valid, with a bounded continuous relaxation and an optimal integer
program.  Only instances with a duality gap z_ip > z_nlp are kept (with
none, the chain below pins z_lr to one value), and most weights are drawn
below 1, where the relaxation still leaves a violation.  With
lambda_bar the relaxation's optimal multipliers, z_nlp and z_ip its and
the integer program's values, psi the penalty and x_rho the reported
argmin at weight rho, every kind must satisfy, at drawn weights
0 <= rho1 < rho2 < rho3 <= 8:

* weak duality: z_nlp <= z_lr(rho) <= z_ip;
* monotonicity: z_lr(rho1) <= z_lr(rho2) <= z_lr(rho3), since psi >= 0;
* concavity, as the chord inequality at rho2: z_lr is a minimum of
  functions affine in rho;
* the supergradient inequality z_lr(rho') <= z_lr(rho) + (rho' - rho)
  psi(b - A x_rho) for every pair: x_rho is a candidate at rho';
* the violation bound psi(b - A x_rho) <= (z_ip - z_nlp) / rho for
  rho > 0: rho psi(b - A x_rho) <= z_lr(rho) - z_nlp.

Every comparison is exact.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from aldual.ald import eval_lr_plus, lambda_bar, solve_ip
from aldual.convexsolve import OPTIMAL, check_boundedness
from aldual.instance import GenConfig, generate, validate
from aldual.penalty import evaluate, parse_penalty

_KINDS = ("linf", "l1", "sql2", "slinf:3/2")


@st.composite
def _instances(draw):
    n1, n2 = draw(st.integers(0, 1)), draw(st.integers(1, 2))
    cfg = GenConfig(n1, n2, 1, draw(st.integers(0, 2)),
                    magnitude=draw(st.integers(1, 2)),
                    seed=draw(st.integers(0, 10 ** 6)))
    inst = generate(cfg)
    assume(not validate(inst) and check_boundedness(inst).nlp_bounded)
    ip = solve_ip(inst)
    assume(ip.status == OPTIMAL and ip.value > lambda_bar(inst).z_nlp)
    return inst, ip.value


_weights = st.lists(st.one_of(st.fractions(0, 1, max_denominator=16),
                              st.fractions(0, 8, max_denominator=4)),
                    min_size=3, max_size=3, unique=True).map(sorted)


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_instances(), _weights, st.sampled_from(_KINDS))
def test_penalized_relaxation_theorems(case, rhos, kind):
    inst, z_ip = case
    duals = lambda_bar(inst)
    z_nlp, pen = duals.z_nlp, parse_penalty(kind, inst.m)
    z, psi = [], []
    for rho in rhos:
        rep = eval_lr_plus(inst, duals.lambda_bar, rho, pen)
        assert not rep.unbounded
        z.append(rep.value)
        psi.append(evaluate(pen, inst.b - inst.A.matvec(rep.argmin_x)))
        assert rep.violation == psi[-1]
    for rho, value, viol in zip(rhos, z, psi):
        assert z_nlp <= value <= z_ip
        if rho > 0:
            assert viol <= (z_ip - z_nlp) / rho
    assert z[0] <= z[1] <= z[2]
    (r1, r2, r3), (z1, z2, z3) = rhos, z
    assert z2 * (r3 - r1) >= z1 * (r3 - r2) + z3 * (r2 - r1)
    for rho, value, viol in zip(rhos, z, psi):
        for other, z_other in zip(rhos, z):
            assert z_other <= value + (other - rho) * viol
