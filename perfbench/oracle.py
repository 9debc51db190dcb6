"""Independent reference computations used to check the program's outputs.

Nothing here calls into prballoc: SINRs, objectives, naive-Bayes posteriors
and LP row counts are recomputed from the generated inputs with numpy and the
standard library, so a check compares two implementations, not one with
itself.
"""

import math

import numpy as np


def slot_arrays(slots, num_users):
    """0-based (bs, prb) index arrays ordered by user id 1..K."""
    b = np.empty(num_users, dtype=np.intp)
    n = np.empty(num_users, dtype=np.intp)
    for k, (bs, prb) in slots.items():
        b[k - 1] = bs - 1
        n[k - 1] = prb - 1
    return b, n


def slots_valid(slots, num_users, num_bs, prbs):
    """Every user 1..K holds one in-range slot and no slot is shared."""
    if sorted(slots) != list(range(1, num_users + 1)):
        return False
    taken = list(slots.values())
    in_range = all(1 <= bs <= num_bs and 1 <= prb <= prbs for bs, prb in taken)
    return in_range and len(set(taken)) == len(taken)


def sinr(q, noise, slots):
    """SINR per user (array, user id k at index k-1) for a full assignment.

    Interference on user k comes from every other user on the same PRB at a
    different base station, received at k's base station.
    """
    K = q.shape[0]
    b, n = slot_arrays(slots, K)
    users = np.arange(K)
    # cross[k, m] = power of user m received on user k's (prb, bs)
    cross = q[users[None, :], n[:, None], b[:, None]]
    interferes = (n[:, None] == n[None, :]) & (b[:, None] != b[None, :])
    interference = np.where(interferes, cross, 0.0).sum(axis=1)
    return q[users, n, b] / (interference + noise)


def weights(num_users, num_normal, op_ps, prioritization, alpha):
    """UP weight per user: 1 + alpha * PS for outpatients when prioritizing."""
    w = np.ones(num_users)
    if prioritization:
        for k in range(num_normal + 1, num_users + 1):
            w[k - 1] = 1.0 + alpha * op_ps.get(k, 0.0)
    return w


def wsrmax(s, w):
    return float(np.dot(s, w))


def pf(s, w, num_normal, prioritization):
    """Sum of ln SINR; prioritized outpatients add weighted linear SINR."""
    total = 0.0
    for i, value in enumerate(s):
        if prioritization and i >= num_normal:
            total += w[i] * value
        else:
            total += math.log(value)
    return total


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def posterior(days, state):
    """Naive-Bayes stroke posterior from (levels, stroke) day tuples.

    `days` holds (f1, f2, f3, f4, stroke) per day and `state` the four current
    levels; no smoothing, and 0 for a history without stroke days.
    """
    stroke_days = [d for d in days if d[4]]
    if not stroke_days:
        return 0.0
    ps = len(stroke_days) / len(days)
    for i, level in enumerate(state):
        ps *= sum(1 for d in stroke_days if d[i] == level) / len(stroke_days)
    return ps


def lp_row_counts(K, N, B, pf_objective, log_users, segments):
    """Constraint rows the exported model must hold, by row family."""
    phi = K * (K - 1) * N * B * (B - 1)
    counts = {"c13": phi, "c14": phi, "c15": phi, "c16": K * N * B, "c17": K * B,
              "c18": N * B, "c19": K}
    if pf_objective:
        counts["c21"] = K
        counts["c24"] = log_users * segments
    return counts


def lp_rows_by_family(text):
    """Count the rows of each constraint family in an LP-format model."""
    counts = {}
    in_constraints = False
    for line in text.splitlines():
        if line == "Subject To":
            in_constraints = True
            continue
        if line in ("Bounds", "Binary", "End"):
            in_constraints = False
        if in_constraints and line.startswith(" c"):
            family = line[1:].split("_", 1)[0]
            counts[family] = counts.get(family, 0) + 1
    return counts
