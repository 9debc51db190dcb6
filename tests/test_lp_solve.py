"""The exported MILP, solved by HiGHS, reaches the exact DP's optimum.

The LP text is parsed here, independently of the exporter, and solved by
`scipy.optimize.milp` (HiGHS) with a zero gap.  HiGHS's optimum must equal
`solve_exact`'s, and its assignment must score that optimum under
`evaluate_assignment`.
"""

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from prballoc import allocator_exact as ex  # noqa: E402
from prballoc import channel, lp_export  # noqa: E402
from prballoc.errors import InfeasibleError  # noqa: E402

from helpers import LambdaTooSmallError, verify_linearization  # noqa: E402

REL_TOL = 1e-6

WSRMAX = ex.SolverConfig()
WSRMAX_ON = ex.SolverConfig(prioritization=True)
PF_ON = ex.SolverConfig(
    objective="pf", prioritization=True, pf_log_mode="piecewise", pwl=ex.PwlSpec.default()
)
CONFIGS = {"wsrmax": WSRMAX, "wsrmax-on": WSRMAX_ON, "pf-piecewise-on": PF_ON}
# (BSs, PRBs per BS, users): full loads and loads with more slots than users
SHAPES = [(2, 1, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (3, 1, 3), (3, 2, 3)]


def instance(num_bs, prbs, users, seed):
    """A generated scenario, its last user an outpatient, and its first power map."""
    cfg = channel.ScenarioConfig(
        num_bs=num_bs, prbs_per_bs=prbs, num_users=users, num_normal=users - 1, seed=seed
    )
    return channel.generate_scenario(cfg, op_ps={users: 0.0064})


def _terms(tokens):
    """{variable: coefficient} of tokens such as `+ 2.5 X_1_1_1 - T_1_1_1 PHI_2_1_1_2_1`."""
    coefs, sign, coef = {}, 1.0, 1.0
    for tok in tokens:
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
        elif tok[0].isalpha():
            coefs[tok] = coefs.get(tok, 0.0) + sign * coef
            sign, coef = 1.0, 1.0
        else:
            coef = float(tok)
    return coefs


def parse_lp(text):
    """The objective's {variable: coefficient}, the rows as (coefficients, sense, rhs),
    and the free and binary variables of an LP-format model."""
    section, objective, rows, free, binary = None, {}, [], set(), set()
    for line in text.splitlines():
        if line.startswith("\\"):
            continue
        if not line.startswith(" "):
            section = line
            continue
        tokens = line.split()
        if section == "Maximize":
            objective = _terms(tokens[1:])
        elif section == "Subject To":
            *lhs, sense, rhs = tokens[1:]
            rows.append((_terms(lhs), sense, float(rhs)))
        elif section == "Bounds":
            assert tokens[1:] == ["free"]
            free.add(tokens[0])
        elif section == "Binary":
            binary.add(tokens[0])
    return objective, rows, free, binary


def highs(text):
    """`scipy.optimize.milp`'s result for an LP-format maximization, and the
    variable of each of its columns."""
    objective, rows, free, binary = parse_lp(text)
    names = sorted(set(objective).union(*(row for row, _, _ in rows)))
    col = {name: j for j, name in enumerate(names)}
    a = np.zeros((len(rows), len(names)))
    lo, hi = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
    for i, (row, sense, rhs) in enumerate(rows):
        for name, coef in row.items():
            a[i, col[name]] = coef
        if sense in (">=", "="):
            lo[i] = rhs
        if sense in ("<=", "="):
            hi[i] = rhs
    c = np.zeros(len(names))
    for name, coef in objective.items():
        c[col[name]] = -coef
    res = optimize.milp(
        c,
        constraints=optimize.LinearConstraint(a, lo, hi),
        integrality=np.array([name in binary for name in names], dtype=int),
        bounds=optimize.Bounds(
            [-np.inf if name in free else 0.0 for name in names],
            [1.0 if name in binary else np.inf for name in names],
        ),
        options={"mip_rel_gap": 0},
    )
    return res, names


def solve_lp(text):
    """HiGHS's optimum of an LP-format maximization and its value of each variable."""
    res, names = highs(text)
    assert res.status == 0, res.message
    return -res.fun, dict(zip(names, res.x))


def assignment_of(values):
    """The assignment of the X variables set to 1; each user takes one slot."""
    slots = {}
    for name, value in values.items():
        if name.startswith("X_") and value > 0.5:
            k, n, b = (int(i) for i in name[2:].split("_"))
            assert k not in slots, f"user {k} takes more than one slot"
            slots[k] = (b, n)
    return ex.Assignment(slots=slots)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{b}bs-{n}prb-{k}users" for b, n, k in SHAPES])
def test_highs_reaches_the_dp_optimum(shape, config):
    sc, pm = instance(*shape, seed=sum(shape))
    _, optimum = ex.solve_exact(sc, pm, config)
    value, values = solve_lp(lp_export.export_milp(sc, pm, config))
    assert value == pytest.approx(optimum.objective_value, rel=REL_TOL)
    assignment = assignment_of(values)
    assert sorted(assignment.slots) == list(sc.config.user_ids)
    report = ex.evaluate_assignment(assignment, pm, sc, config)
    assert report.objective_value == pytest.approx(optimum.objective_value, rel=REL_TOL)


def test_binding_big_m_cuts_off_the_optimum(monkeypatch):
    # every user of a full 2 x 2 load is interfered; lambda below the largest SINR
    # forbids the optimum's point, so HiGHS must settle lower
    sc, pm = instance(2, 2, 4, seed=8)
    assignment, optimum = ex.solve_exact(sc, pm, WSRMAX)
    lam = 0.9 * max(optimum.sinr.values())
    with pytest.raises(LambdaTooSmallError):
        verify_linearization(assignment, pm, lam=lam)
    monkeypatch.setattr(lp_export, "big_m", lambda power_map: lam)
    value, _ = solve_lp(lp_export.export_milp(sc, pm, WSRMAX))
    assert value < optimum.objective_value * (1 - REL_TOL)


def zero_power_instance(q):
    """PF log user 1 and outpatient 2 on one PRB of 2 BSs, noise 1 W, powers q (user, prb,
    bs) with zeros, which generated maps never hold."""
    cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=1, num_users=2, num_normal=1)
    sc = channel.Scenario(config=cfg, op_ps={2: 0.0064})
    return sc, channel.PowerMap(q=np.array(q), noise_w=1.0)


def test_log_user_stays_off_its_zero_power_slot():
    # at SINR 0 user 1's L would be capped only by the lowest tangent's intercept
    sc, pm = zero_power_instance([[[0.0, 4.0]], [[0.1, 20.0]]])
    assignment, optimum = ex.solve_exact(sc, pm, PF_ON)
    assert assignment.slots[1] == (2, 1)
    assert optimum.objective_value == pytest.approx(-1.237, abs=1e-3)
    value, values = solve_lp(lp_export.export_milp(sc, pm, PF_ON))
    assert value == pytest.approx(optimum.objective_value, rel=REL_TOL)
    assert assignment_of(values).slots == assignment.slots


def test_log_user_without_power_is_infeasible():
    sc, pm = zero_power_instance([[[0.0, 0.0]], [[0.1, 20.0]]])
    with pytest.raises(InfeasibleError):
        ex.solve_exact(sc, pm, PF_ON)
    res, _ = highs(lp_export.export_milp(sc, pm, PF_ON))
    assert res.status == 2, res.message  # infeasible
