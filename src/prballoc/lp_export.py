"""Emit the PRB-assignment MILP in LP text format for external solvers.

The export carries the big-M linearization of the SINR balance (product of a
continuous SINR and a binary assignment becomes a bounded auxiliary variable)
and, for the PF objective, tangent-line rows standing in for the natural log.
The balance rows are in noise units, and each user takes exactly one slot
(c19 = 1), as in the exact DP, so the model's optimum is the DP's.  For PF,
row zero_k keeps log user k off the slots where its own power is 0: the DP,
which cannot take ln 0, never puts it there.
Variable names: X_k_n_b (binary assignment), T_k_n_b (per-slot SINR),
PHI_m_n_k_w_b (linearization product), S_k (per-user SINR), L_k (log SINR).
"""

import io
import math
from dataclasses import dataclass

from .allocator_exact import (
    Assignment,
    Objective,
    evaluate_assignment,
    solve_exact,
)
from .channel import check_map_shape, dbm_to_mw
from .errors import DataError, UsageError
from .fileio import parse_id

FRACTIONAL_TOL = 1e-6
PARITY_TOL = 1e-9


def _num(x):
    return repr(float(x))


def big_m(power_map):
    """The model's one big-M constant lambda, of rows c13 and c15: 10x the largest
    interference-free SINR, a tight yet safe bound; not finite and > 0, it is a DataError."""
    lam = 10.0 * float(power_map.q.max()) / power_map.noise_w
    if not 0 < lam < math.inf:  # nan fails too
        raise DataError(f"lambda must be a finite number > 0, got {lam!r}"
                        " (10x the power map's largest power over the noise)")
    return lam


def balance_row(power_map, k, n, b):
    """c16 of user k on (bs b, prb n) in noise units, so T's coefficient is 1: the PHI terms
    (m, w, q[m,n,b] / noise) of every other user m at every other BS w, m then w ascending,
    and the X coefficient q[k,n,b] / noise."""
    heard = (power_map.q[:, n - 1, b - 1] / power_map.noise_w).tolist()
    phis = [(m, w, q) for m, q in enumerate(heard, start=1) if m != k
            for w in range(1, power_map.q.shape[2] + 1) if w != b]
    return phis, heard[k - 1]


def milp_rows(scenario, power_map, config):
    """The LP-format model as an iterator of text pieces, byte-identical across runs.

    The checks run before this returns, so a bad lambda or a PF config without the
    piecewise log raises before any output exists.  Each piece is one row, except
    that the c13, c14 and c15 rows of one PHI index form one piece; the user
    weights enter as precomputed constants.
    """
    check_map_shape(scenario, power_map)
    lam = big_m(power_map)
    if config.objective == "pf" and config.pf_log_mode != "piecewise":
        raise UsageError("PF export needs pf_log_mode 'piecewise', the tangents of a PwlSpec")
    return _rows(scenario, power_map, config, lam, Objective(scenario, config))


def _rows(scenario, power_map, config, lam, objective):
    cfg = scenario.config
    prbs, bss = range(1, cfg.prbs_per_bs + 1), range(1, cfg.num_bs + 1)
    slots = [(n, b) for n in prbs for b in bss]  # the model's one (prb, bs) order, PRB-major
    pf = config.objective == "pf"
    log_users = [k for k in cfg.user_ids if objective.log[k - 1]]
    linear = [(k, _num(objective.w[k - 1])) for k in cfg.user_ids if not objective.log[k - 1]]
    lam_s, neg_lam_s = _num(lam), _num(-lam)

    yield "\\ prballoc MILP export\nMaximize\n"
    if not pf:
        terms = [f"+ {w} T_{k}_{n}_{b}" for k, w in linear for n, b in slots]
    else:
        terms = [f"+ L_{k}" for k in log_users] + [f"+ {w} S_{k}" for k, w in linear]
    yield " obj: " + " ".join(terms) + "\n"

    yield "Subject To\n"
    for k, m, n, b, w in ((k, m, n, b, w) for k in cfg.user_ids for m in cfg.user_ids if m != k
                          for n, b in slots for w in bss if w != b):
        idx = f"{m}_{n}_{k}_{w}_{b}"
        yield (
            f" c13_{idx}: PHI_{idx} - {lam_s} X_{m}_{n}_{w} <= 0\n"
            f" c14_{idx}: PHI_{idx} - T_{k}_{n}_{b} <= 0\n"
            f" c15_{idx}: PHI_{idx} - {lam_s} X_{m}_{n}_{w} - T_{k}_{n}_{b}"
            f" >= {neg_lam_s}\n"
        )
    for k in cfg.user_ids:
        for n, b in slots:
            phis, x_coef = balance_row(power_map, k, n, b)
            yield (
                f" c16_{k}_{n}_{b}:"
                + "".join(f" + {_num(q)} PHI_{m}_{n}_{k}_{w}_{b}" for m, w, q in phis)
                + f" + 1.0 T_{k}_{n}_{b} - {_num(x_coef)} X_{k}_{n}_{b} = 0\n"
            )
    p_w = dbm_to_mw(cfg.tx_power_per_prb_dbm) / 1000.0
    pm_w = dbm_to_mw(cfg.max_power_per_connection_dbm) / 1000.0
    for k in cfg.user_ids:
        for b in bss:
            terms = [f"+ {_num(p_w)} X_{k}_{n}_{b}" for n in prbs]
            yield f" c17_{k}_{b}: " + " ".join(terms) + f" <= {_num(pm_w)}\n"
    for n, b in slots:
        terms = [f"+ X_{k}_{n}_{b}" for k in cfg.user_ids]
        yield f" c18_{n}_{b}: " + " ".join(terms) + " <= 1\n"
    for k in cfg.user_ids:
        terms = [f"+ X_{k}_{n}_{b}" for b in bss for n in prbs]  # BS-major: part of the bytes
        yield f" c19_{k}: " + " ".join(terms) + " = 1\n"
    if pf:
        for k in cfg.user_ids:
            terms = [f"- T_{k}_{n}_{b}" for n, b in slots]
            yield f" c21_{k}: S_{k} " + " ".join(terms) + " = 0\n"
        for k in log_users:
            for y, (m_y, h_y) in enumerate(objective.segments.tolist(), start=1):
                yield f" c24_{k}_{y}: L_{k} - {_num(m_y)} S_{k} <= {_num(h_y)}\n"
            # ln 0 is undefined, so, as in the DP, a log user takes no slot of zero own power
            dead = [f"+ X_{k}_{n}_{b}" for n, b in slots if power_map.q[k - 1, n - 1, b - 1] == 0]
            if dead:
                yield f" zero_{k}: " + " ".join(dead) + " = 0\n"

    yield "Bounds\n"
    for k in log_users:
        yield f" L_{k} free\n"
    yield "Binary\n"
    for k in cfg.user_ids:
        for n, b in slots:
            yield f" X_{k}_{n}_{b}\n"
    yield "End\n"


def export_milp(scenario, power_map, config):
    """Complete LP-format model text: the pieces of `milp_rows`, joined."""
    out = io.StringIO()
    out.writelines(milp_rows(scenario, power_map, config))
    return out.getvalue()


def variable_counts(K, N, B):
    """Closed-form variable counts for the exported model."""
    return {
        "X": K * N * B,
        "T": K * N * B,
        "PHI": K * (K - 1) * N * B * (B - 1),
    }


@dataclass
class ParityReport:
    reported_objective: float | None
    recomputed_objective: float
    internal_optimum: float
    objective_match: bool
    is_optimal: bool


def parse_solution_text(text):
    """The reported objective (None if absent) and each variable's value.
    A malformed line, or a variable or the objective given twice, raises DataError."""
    values, lines = {}, {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) != 2 or parts[0] != "objective":
                continue  # a comment
            name = "# objective"  # no variable name starts with '#'
        else:
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"solution line {line_no}: expected 'name value'")
            name = parts[0]
        if name in lines:
            raise DataError(f"solution lines {lines[name]} and {line_no} both give {name}")
        lines[name] = line_no
        try:
            values[name] = float(parts[1])
        except ValueError:
            raise DataError(f"solution line {line_no}: bad value {parts[1]!r}") from None
    return values.pop("# objective", None), values


def validate_external_solution(text, scenario, power_map, config):
    """Check an external solver's solution against the internal optimizer."""
    cfg = scenario.config
    reported, values = parse_solution_text(text)
    slots = {}
    for name, value in values.items():
        if not name.startswith("X_"):
            continue
        try:  # written exactly as its ids, so no two names give one variable
            k, n, b = (parse_id(i) for i in name[2:].split("_"))
        except ValueError:
            raise DataError(f"malformed variable name {name!r}, want X_<user>_<prb>_<bs>") from None
        if not (1 <= k <= cfg.num_users and 1 <= n <= cfg.prbs_per_bs and 1 <= b <= cfg.num_bs):
            raise DataError(f"{name} names a user or slot outside the scenario")
        if not min(abs(value), abs(value - 1.0)) <= FRACTIONAL_TOL:  # NaN fails too
            raise DataError(f"non-integral solution: {name} = {value}")
        if value > 0.5:
            if k in slots:
                raise DataError(f"user {k} assigned more than one slot")
            if (b, n) in slots.values():
                raise DataError(f"slot (bs {b}, prb {n}) assigned to more than one user")
            slots[k] = (b, n)
    missing = [k for k in cfg.user_ids if k not in slots]
    if missing:
        raise DataError(f"users without a slot: {missing}")
    assignment = Assignment(slots=slots)
    report = evaluate_assignment(assignment, power_map, scenario, config)
    _, optimal = solve_exact(scenario, power_map, config)
    scale = max(1.0, abs(report.objective_value))
    objective_match = (
        reported is not None
        and abs(report.objective_value - reported) / scale <= PARITY_TOL
    )
    is_optimal = (
        abs(report.objective_value - optimal.objective_value)
        / max(1.0, abs(optimal.objective_value))
        <= PARITY_TOL
    )
    return ParityReport(
        reported_objective=reported,
        recomputed_objective=report.objective_value,
        internal_optimum=optimal.objective_value,
        objective_match=objective_match,
        is_optimal=is_optimal,
    )
