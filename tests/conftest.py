import pytest

from aldual import ald, convexsolve, numkit
from aldual.instance import MiqpInstance
from aldual.numkit import RatMat, RatVec


def d1_instance() -> MiqpInstance:
    """Reference instance: two integer variables on [-3,3]^2, objective
    x1^2 + x2^2, one dualized row x1 + x2 = 1.  Ground truth (by
    enumeration and hand KKT): integer optimum 1 at (0,1), relaxation
    optimum 1/2 at (1/2,1/2) with multiplier (1)."""
    return MiqpInstance(
        Q=RatMat([[2, 0], [0, 2]]),
        c=RatVec([0, 0]),
        A=RatMat([[1, 1]]),
        b=RatVec([1]),
        E=RatMat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
        f=RatVec([3, 3, 3, 3]),
        n1=0,
        n2=2,
    )


@pytest.fixture
def d1() -> MiqpInstance:
    return d1_instance()


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts the LP and QP solves made through aldual.ald, the phase-1 LP
    inside solve_qp included."""
    calls = {"lp": 0, "qp": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ald, "solve_lp", counting("lp", ald.solve_lp))
    monkeypatch.setattr(convexsolve, "solve_lp",
                        counting("lp", convexsolve.solve_lp))
    monkeypatch.setattr(ald, "solve_qp", counting("qp", ald.solve_qp))
    return calls


@pytest.fixture
def kkt_calls(monkeypatch):
    """Records solve_qp's exact eliminations: under ``factors`` the matrix
    of each ``numkit.factor`` call made through convexsolve, under
    ``solves`` each read of a ``Factor`` (``Factor.solve_ints``, which
    ``Factor.solve`` wraps) as the factor and the report ``Factor.solve``
    gives for it: its status, rank and kernel."""
    calls = {"factors": [], "solves": []}
    factor, solve_ints = convexsolve.factor, numkit.Factor.solve_ints

    def factored(K):
        calls["factors"].append(K)
        return factor(K)

    def read(fac, v):
        x = solve_ints(fac, v)
        if x is None:
            rep = numkit.LinearSolveReport(numkit.INCONSISTENT, None, fac.rank, ())
        else:
            status = numkit.UNIQUE if fac.rank == fac.cols else numkit.UNDERDETERMINED
            rep = numkit.LinearSolveReport(status, numkit.rat_vector(x, fac.det),
                                           fac.rank, fac.kernel)
        calls["solves"].append((fac, rep))
        return x

    monkeypatch.setattr(convexsolve, "factor", factored)
    monkeypatch.setattr(numkit.Factor, "solve_ints", read)
    return calls
