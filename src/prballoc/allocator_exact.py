"""Provably optimal PRB assignment for the WSRMax and PF objectives.

A user occupies exactly one (base station, PRB) slot and is interfered only by
co-channel users at other base stations.  Because interference never crosses
PRB indices, the objective decomposes per PRB, and the search is a dynamic
program over subsets of already-served users, processing PRBs in order.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import check_map_shape
from .errors import DataError, InfeasibleError, UsageError, check_field_types
from .fileio import write_csv
from .metrics import left_sum
from .risk import check_alpha, priority

DEFAULT_ALPHA = 500.0
OBJECTIVES = ("wsrmax", "pf")  # SolverConfig's names, the CLI's --objective choices


@dataclass(frozen=True)
class PwlSpec:
    """Tangent lines of ln at the given points: slope 1/s0, intercept ln(s0)-1.

    The minimum over segments is the concave upper envelope of ln, exact at
    each tangent point.
    """

    tangent_points: tuple
    segments: tuple = field(init=False)

    def __post_init__(self):
        pts = tuple(sorted(float(p) for p in self.tangent_points))
        if not pts or any(not p > 0 for p in pts):
            raise UsageError("tangent points must be positive")
        if len(set(pts)) != len(pts):
            raise UsageError("tangent points must be distinct")
        object.__setattr__(self, "tangent_points", pts)
        object.__setattr__(self, "segments", tuple((1.0 / p, math.log(p) - 1.0) for p in pts))

    @classmethod
    def default(cls):
        """Ten geometrically spaced tangents from 0.1 to 20, the observed SINR range."""
        ratio = (20.0 / 0.1) ** (1.0 / 9)
        return cls(tuple(0.1 * ratio**i for i in range(10)))


@dataclass(frozen=True)
class SolverConfig:
    objective: str = "wsrmax"  # one of OBJECTIVES
    prioritization: bool = False
    alpha: float = DEFAULT_ALPHA
    pf_log_mode: str = "exact_log"  # "exact_log" | "piecewise"
    pwl: PwlSpec | None = None  # the tangents of "piecewise"; None there means the default

    def __post_init__(self):
        check_field_types(self)
        if self.objective not in OBJECTIVES:
            raise UsageError(f"unknown objective {self.objective!r}")
        if self.pf_log_mode not in ("exact_log", "piecewise"):
            raise UsageError(f"unknown pf_log_mode {self.pf_log_mode!r}")
        if self.pf_log_mode == "exact_log" and self.pwl is not None:
            raise UsageError("a PwlSpec needs pf_log_mode 'piecewise', not 'exact_log'")
        if self.pf_log_mode == "piecewise" and self.pwl is None:
            object.__setattr__(self, "pwl", PwlSpec.default())
        check_alpha(self.alpha)


@dataclass
class Assignment:
    """One (bs, prb) slot per user; both indices 1-based."""

    slots: dict  # user_id -> (bs, prb)


@dataclass
class SinrReport:
    sinr: dict  # user_id -> linear SINR
    priorities: dict  # user_id -> UP weight
    objective_value: float


def prioritized(scenario, on):
    """The outpatients prioritization singles out, ascending; () when it is off.
    Each weighs 1 + alpha * PS and enters PF by its weighted SINR, not a log."""
    return scenario.config.op_ids if on else ()


def priorities_for(scenario, config):
    """UP weight per user (`risk.priority`) under a solver or heuristic config;
    all 1 when prioritization is off."""
    ops = prioritized(scenario, config.prioritization)
    return {k: priority(scenario.ps_of(k), config, k in ops) for k in scenario.config.user_ids}


def interference_w(heard, senders, noise):
    """The SINR denominator: the powers `heard` (..., x, v) of BS x's occupant at BS v,
    summed in BS order over the x that `senders` marks for v, plus the noise."""
    return (heard * senders).sum(axis=-2) + noise


def column_sinrs(q, noise, occ, prbs):
    """SINRs (C, B) of the occupants `occ` (C, B) of the 0-based PRB columns `prbs`.

    An occupant is a 0-based user index, len(q) for an empty slot (SINR 0),
    interfered by the co-channel occupants at the other BSs.
    """
    bs = np.arange(occ.shape[1])
    present = occ < len(q)
    # heard[c, x, v]: power of the occupant at BS x received at BS v
    heard = q[np.where(present, occ, 0)[:, :, None], prbs[:, None, None], bs] * present[:, :, None]
    return heard[:, bs, bs] / interference_w(heard, bs[:, None] != bs, noise)


def sinr_of(assignment, power_map):
    """Every assigned user's SINR as a float, in `assignment.slots` order."""
    num_users, num_prbs, num_bs = power_map.q.shape
    occ = np.full((num_prbs, num_bs), num_users)
    for k, (b, n) in assignment.slots.items():
        occ[n - 1, b - 1] = k - 1
    sinr = column_sinrs(power_map.q, power_map.noise_w, occ, np.arange(num_prbs)).tolist()
    return {k: sinr[n - 1][b - 1] for k, (b, n) in assignment.slots.items()}


class Objective:
    """A solver or heuristic config's objective, as each user's term over user index k - 1 plus
    index num_users for nobody (an empty slot): `w`, the `weights` of `priorities_for` (0 for
    nobody), and `log`, whether the term is the log SINR, as under PF for all but the prioritized
    outpatients.  The log is `math.log`, or under "piecewise" the minimum over `segments`."""

    def __init__(self, scenario, config):
        ids, ops = scenario.config.user_ids, prioritized(scenario, config.prioritization)
        self.weights = priorities_for(scenario, config)
        self.w = np.array([self.weights[k] for k in ids] + [0.0])
        self.log = np.array([config.objective == "pf" and k not in ops for k in ids] + [False])
        self.segments = None if config.pwl is None else np.array(config.pwl.segments)

    def terms(self, users, sinr):
        """Terms of 0-based `users` at `sinr`, like-shaped arrays; a log user at SINR 0 gets NaN."""
        out = self.w[users] * sinr
        log = self.log[users]
        s = sinr[log]
        if self.segments is None:
            out[log] = [math.log(x) if x > 0 else math.nan for x in s.tolist()]
        else:
            slope, intercept = self.segments.T[:, :, None]
            out[log] = np.where(s > 0, (slope * s + intercept).min(axis=0), math.nan)
        return out

    def value(self, sinrs):
        """The objective of {user id: SINR}, summed in its order; DataError at a NaN term."""
        users = np.array(list(sinrs), dtype=int) - 1
        terms = self.terms(users, np.array(list(sinrs.values()))).tolist()
        if any(math.isnan(t) for t in terms):
            raise DataError("a PF log user has zero SINR, where ln is undefined")
        return left_sum(terms)


def evaluate_assignment(assignment, power_map, scenario, config):
    """Recompute SINRs and the configured objective for a feasible assignment."""
    check_map_shape(scenario, power_map)
    objective = Objective(scenario, config)
    sinrs = sinr_of(assignment, power_map)
    return SinrReport(sinr=sinrs, priorities=dict(objective.weights),
                      objective_value=objective.value(sinrs))


def solve_exact(scenario, power_map, config):
    """Optimal assignment over all injective user -> slot maps.

    Ties between equal-valued optima break to the lexicographically smallest
    assignment (users in id order, slots ordered by (bs, prb)).
    """
    check_map_shape(scenario, power_map)
    assignment = _search_subset_dp(scenario, power_map, config)
    report = evaluate_assignment(assignment, power_map, scenario, config)
    return assignment, report


def _prb_options(n, power_map, objective, num_bs):
    """Every way to serve 0-based PRB `n`, as (user mask, contribution summed in user order,
    occupant row): a column state, one user or nobody (index K) per BS.  A row that leaves a
    PF log user at zero SINR is dropped."""
    K = len(objective.w) - 1
    occ = np.array([row for row in itertools.product(range(K + 1), repeat=num_bs)
                    if len(set(row) - {K}) == num_bs - row.count(K)])
    sinr = column_sinrs(power_map.q, power_map.noise_w, occ, np.full(len(occ), n))
    seat = np.argsort(occ, axis=1, kind="stable")  # users ascending, then nobody's 0.0 terms
    terms = np.take_along_axis(objective.terms(occ, sinr), seat, axis=1)
    totals = np.add.accumulate(terms, axis=1)[:, -1]  # left to right, as a Python sum
    return [(sum(1 << u for u in row if u < K), total, tuple(row))
            for row, total in zip(occ.tolist(), totals.tolist()) if not math.isnan(total)]


def _search_subset_dp(scenario, power_map, config):
    cfg = scenario.config
    K, N, B = cfg.num_users, cfg.prbs_per_bs, cfg.num_bs
    objective = Objective(scenario, config)

    # dp: mask of served users -> (value, K-tuple of slots, None if unserved).
    # On equal values the smaller slot tuple wins; completions are identical
    # per mask, so this composes to the lexicographically smallest optimum.
    dp = {0: (0.0, (None,) * K)}
    for n in range(N):
        served_min = K - B * (N - n - 1)  # due by PRB n: later PRBs serve B users each at most
        options = _prb_options(n, power_map, objective, B)
        new_dp = {}
        for mask, (value, slots) in dp.items():
            least = served_min - mask.bit_count()
            for option_mask, contrib, row in options:
                if option_mask & mask or option_mask.bit_count() < least:
                    continue
                new_mask, new_value = mask | option_mask, value + contrib
                incumbent = new_dp.get(new_mask)
                if incumbent is not None and new_value < incumbent[0]:
                    continue
                new_slots = list(slots)
                for b, u in enumerate(row):
                    if u < K:
                        new_slots[u] = (b + 1, n + 1)
                new_slots = tuple(new_slots)
                if incumbent is None or new_value > incumbent[0] or new_slots < incumbent[1]:
                    new_dp[new_mask] = (new_value, new_slots)
        dp = new_dp
    if (1 << K) - 1 not in dp:
        raise InfeasibleError("no feasible assignment")
    _, slots = dp[(1 << K) - 1]
    placed = sorted(range(K), key=lambda i: (slots[i][1], i))  # PRB-major, users ascending
    return Assignment(slots={i + 1: slots[i] for i in placed})


def write_result_csv(assignment, report, path):
    """Result rows user,bs,prb,sinr,log_sinr,up plus an objective summary line;
    log_sinr is empty where the SINR is 0."""
    rows = []
    for k, (b, n) in sorted(assignment.slots.items()):
        sinr = report.sinr[k]
        rows.append([k, b, n, sinr, math.log(sinr) if sinr > 0 else None, report.priorities[k]])
    rows.append(["objective", report.objective_value])
    write_csv(path, ["user", "bs", "prb", "sinr", "log_sinr", "up"], rows)
