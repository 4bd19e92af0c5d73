"""Self-test of the benchmark's KKT helper, answer checks and tracer.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Prints one line per check and
exits non-zero if any fails.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from types import SimpleNamespace

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from gbc import (  # noqa: E402
    PrivateInstance,
    SolveOptions,
    box_transform,
    fd_gradient,
    gradient_reduced,
    objective_common,
    objective_reduced,
    random_instance,
    reduce,
    solve_private,
    transform,
)
from quality import (  # noqa: E402
    CheckFailed,
    check_common,
    check_private,
    check_rates,
    common_gradients,
    kkt_private,
)
from tracing import OP, Tracer, self_times  # noqa: E402

GRAD_TOL = 1e-6


def paper_case_3() -> PrivateInstance:
    """2x2 reference case 3: shared K, identity Sigma1, lam = 2."""
    return PrivateInstance(K=np.array([[2.0, 2.0], [2.0, 4.0]]), Sigma1=np.eye(2),
                           Sigma2=np.array([[5.0, 2.0], [2.0, 4.0]]), lam=2.0)


def check_private_gradient_matches_fd():
    inst = random_instance(3, 7)
    red = reduce(inst)
    A = 0.4 * np.eye(red.rank) + 0.05
    G = gradient_reduced(A, red, red.lam)
    fd = fd_gradient(lambda X: objective_reduced(X, red, red.lam), A)
    err = float(np.max(np.abs(G - fd)))
    assert err <= GRAD_TOL, f"private gradient off fd by {err:.3e}"


def check_common_gradients_match_fd():
    inst = random_instance(3, 5, "common")
    K_C = inst.K_C
    K_U, K_V = K_C / 3.0, K_C / 4.0
    G_U, G_V = common_gradients(K_U, K_V, inst)
    fd_U = fd_gradient(lambda X: objective_common(X, K_V, inst), K_U)
    fd_V = fd_gradient(lambda X: objective_common(K_U, X, inst), K_V)
    err = max(float(np.max(np.abs(G_U - fd_U))), float(np.max(np.abs(G_V - fd_V))))
    assert err <= GRAD_TOL, f"common gradients off fd by {err:.3e}"
    # pulled back into the K_V block's reduced box of budget K_C - K_U
    bt = box_transform(K_C - K_U)
    L = bt.lift_matrix
    B = transform(bt, K_V)[:bt.rank, :bt.rank]
    assert np.allclose(L @ B @ L.T, K_V, atol=1e-12), "block does not lift back"
    fd_B = fd_gradient(lambda X: objective_common(K_U, L @ X @ L.T, inst), B)
    err = float(np.max(np.abs(L.T @ G_V @ L - fd_B)))
    assert err <= GRAD_TOL, f"pulled-back gradient off fd by {err:.3e}"


def check_case_3_tight_is_certified():
    inst = paper_case_3()
    rep = solve_private(inst, SolveOptions(rel_tol=1e-10, max_iters=300_000))
    k = kkt_private(inst, rep.final_AU)
    assert k <= 1e-8, f"kkt {k:.3e} after {rep.iterations} iterations"
    return f"{rep.iterations} iterations, kkt {k:.3e}"


def check_case_3_default_converged_but_uncertified():
    inst = paper_case_3()
    rep = solve_private(inst)
    k = kkt_private(inst, rep.final_AU)
    assert rep.converged, "default solve no longer reports converged"
    assert k > 1e-4, f"kkt {k:.3e} unexpectedly small"
    return f"converged=True, kkt {k:.3e}"


def check_answer_checks_reject_bad_answers():
    inst = random_instance(3, 1)
    rep = solve_private(inst)
    check_private(inst, rep.final_KU, rep.objective)
    for K_U, obj in ((inst.K + np.eye(3), rep.objective),
                     (-0.1 * np.eye(3), rep.objective),
                     (rep.final_KU, rep.objective + 1e-3)):
        try:
            check_private(inst, K_U, obj)
        except CheckFailed:
            continue
        raise AssertionError("a bad private answer passed")
    cinst = random_instance(2, 1, "common")
    try:
        check_common(cinst, 0.6 * cinst.K_C, 0.6 * cinst.K_C,
                     objective_common(0.6 * cinst.K_C, 0.6 * cinst.K_C, cinst))
    except CheckFailed:
        pass
    else:
        raise AssertionError("K_U + K_V > K_C passed")
    try:
        check_rates([SimpleNamespace(R0=0.0, R1=float("nan"), R2=0.1, lambda_tag=2.0)])
    except CheckFailed:
        pass
    else:
        raise AssertionError("a NaN rate passed")


def check_infeasible_op_counts_as_failure():
    inst = random_instance(3, 2)
    good = solve_private(inst)

    class Stub:
        capture = SimpleNamespace(take=lambda: [])

        def op(self, K_U):
            return K_U

        def answers(self, K_U, result):
            check_private(inst, result, good.objective)
            return [kkt_private(inst, good.final_AU)]

    r = run.Run(SimpleNamespace())
    r.wl = Stub()
    assert r.one_op(good.final_KU, keep_quality=True) is not None
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert r.one_op(inst.K + np.eye(3), keep_quality=True) is None
    assert "CheckFailed" in err.getvalue(), "failure not reported"
    assert (r.attempted, r.failed, len(r.kkts)) == (2, 1, 1), \
        f"attempted {r.attempted}, failed {r.failed}, answers {len(r.kkts)}"


def check_self_times_add_up():
    tr = Tracer()

    def leaf():
        time.sleep(0.002)

    def mid():
        time.sleep(0.001)
        leaf_t()
        leaf_t()

    leaf_t = tr.wrap("leaf", leaf)
    mid_t = tr.wrap("mid", mid)
    for op_id in range(3):
        tr.op(op_id, mid_t)
    selfs = self_times(tr.spans)
    for op_id in range(3):
        spans = [s for s in tr.spans if s[5] == op_id]
        root = next(s for s in spans if s[1] == OP)
        total = sum(selfs[s[0]] for s in spans)
        assert abs(total - (root[3] - root[2])) <= 1e-9, "self times do not add up"
        assert len(spans) == 4


def main() -> int:
    checks = [(name, fn) for name, fn in globals().items()
              if name.startswith("check_") and fn.__module__ == __name__]
    failed = 0
    for name, fn in checks:
        try:
            note = fn()
        except Exception:  # report every check, then fail
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"PASS {name}" + (f" ({note})" if note else ""))
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
