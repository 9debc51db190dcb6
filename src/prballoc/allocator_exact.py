"""Provably optimal PRB assignment for the WSRMax and PF objectives.

A user occupies exactly one (base station, PRB) slot and is interfered only by
co-channel users at other base stations.  Because interference never crosses
PRB indices, the objective decomposes per PRB, and the search is a dynamic
program over subsets of already-served users, processing PRBs in order.
"""

import itertools
import math
from dataclasses import dataclass, field

from .errors import InfeasibleError, UsageError
from .fileio import write_csv
from .risk import priority

DEFAULT_ALPHA = 500.0


class PfUndefinedError(ValueError):
    """PF objective requested a log of a zero SINR."""


class LambdaTooSmallError(ValueError):
    """Big-M constant below an SINR it must dominate."""


@dataclass
class PwlSpec:
    """Tangent lines of ln at the given points: slope 1/s0, intercept ln(s0)-1.

    The minimum over segments is the concave upper envelope of ln, exact at
    each tangent point.
    """

    tangent_points: tuple
    segments: tuple = field(init=False)

    def __post_init__(self):
        pts = tuple(sorted(float(p) for p in self.tangent_points))
        if not pts or any(p <= 0 for p in pts):
            raise ValueError("tangent points must be positive")
        if len(set(pts)) != len(pts):
            raise ValueError("tangent points must be distinct")
        self.tangent_points = pts
        self.segments = tuple((1.0 / p, math.log(p) - 1.0) for p in pts)

    @classmethod
    def default(cls, count=10, lo=0.1, hi=20.0):
        """Geometrically spaced tangents covering the observed SINR range."""
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return cls(tuple(lo * ratio**i for i in range(count)))

    def value(self, s):
        if s < 0:
            raise ValueError("SINR must be non-negative")
        return min(m * s + h for m, h in self.segments)


@dataclass
class SolverConfig:
    objective: str = "wsrmax"  # "wsrmax" | "pf"
    prioritization: bool = False
    alpha: float = DEFAULT_ALPHA
    pf_log_mode: str = "exact_log"  # "exact_log" | "piecewise"
    pwl: PwlSpec | None = None

    def __post_init__(self):
        if self.objective not in ("wsrmax", "pf"):
            raise UsageError(f"unknown objective {self.objective!r}")
        if self.pf_log_mode not in ("exact_log", "piecewise"):
            raise UsageError(f"unknown pf_log_mode {self.pf_log_mode!r}")
        if self.pf_log_mode == "piecewise" and self.pwl is None:
            raise UsageError("piecewise mode requires a PwlSpec")

    def log_value(self, s):
        if s <= 0:
            raise PfUndefinedError("PF undefined at zero SINR")
        if self.pf_log_mode == "piecewise":
            return self.pwl.value(s)
        return math.log(s)


@dataclass
class Assignment:
    """One (bs, prb) slot per user; both indices 1-based."""

    slots: dict  # user_id -> (bs, prb)


@dataclass
class SinrReport:
    sinr: dict  # user_id -> linear SINR
    log_sinr: dict  # user_id -> ln(SINR), None where SINR == 0
    priorities: dict  # user_id -> UP weight
    objective_value: float


def priorities_for(scenario, config):
    """UP weight per user (`risk.priority`) under a solver or heuristic config;
    all 1 when prioritization is off."""
    return {
        k: priority(
            scenario.ps_of(k), config, config.prioritization and scenario.is_outpatient(k)
        )
        for k in scenario.config.user_ids
    }


def sinr_of(assignment, power_map, user_id):
    """Direct SINR: own power over co-channel cross-BS interference plus noise."""
    if user_id not in assignment.slots:
        raise ValueError(f"user {user_id} is unassigned")
    b, n = assignment.slots[user_id]
    interference = 0.0
    for m, (w, n2) in assignment.slots.items():
        if m != user_id and n2 == n and w != b:
            interference += power_map.power(m, n, b)
    return power_map.power(user_id, n, b) / (interference + power_map.noise_w)


def user_terms(scenario, config, weights):
    """Each user's objective term as a function of its SINR; the objective is their sum.

    WSRMax weighs every SINR.  PF takes its log, except that after
    prioritization an outpatient contributes its weighted SINR.  A PF log of
    a zero SINR raises PfUndefinedError.
    """
    terms = {}
    for k, w in weights.items():
        if config.objective == "pf" and not (config.prioritization and scenario.is_outpatient(k)):
            terms[k] = config.log_value
        else:
            terms[k] = lambda s, w=w: w * s
    return terms


def evaluate_assignment(assignment, power_map, scenario, config, priorities=None):
    """Recompute SINRs and the configured objective for a feasible assignment."""
    if priorities is None:
        priorities = priorities_for(scenario, config)
    terms = user_terms(scenario, config, priorities)
    sinrs = {k: sinr_of(assignment, power_map, k) for k in assignment.slots}
    value = sum(terms[k](s) for k, s in sinrs.items())
    log_sinr = {k: (math.log(s) if s > 0 else None) for k, s in sinrs.items()}
    return SinrReport(
        sinr=sinrs, log_sinr=log_sinr, priorities=dict(priorities), objective_value=value
    )


def _prb_contribution(chosen, n, q, noise, terms, user_ids):
    """Objective contribution of one PRB given its (user index, bs index) picks.

    Returns None when the PF log is undefined (zero SINR), pruning the choice.
    """
    total = 0.0
    for ui, bi in chosen:
        interference = 0.0
        for uj, bj in chosen:
            if uj != ui and bj != bi:
                interference += q[uj][n][bi]
        s = q[ui][n][bi] / (interference + noise)
        try:
            total += terms[user_ids[ui]](s)
        except PfUndefinedError:
            return None
    return total


def solve_exact(scenario, power_map, config):
    """Optimal assignment over all injective user -> slot maps.

    Ties between equal-valued optima break to the lexicographically smallest
    assignment (users in id order, slots ordered by (bs, prb)).
    """
    cfg = scenario.config
    K, N, B = cfg.num_users, cfg.prbs_per_bs, cfg.num_bs
    if K > N * B:
        raise InfeasibleError(f"{K} users exceed {N * B} slots")
    if cfg.tx_power_per_prb_dbm > cfg.max_power_per_connection_dbm:
        raise InfeasibleError("per-PRB power exceeds the per-connection cap")
    weights = priorities_for(scenario, config)
    assignment = _search_subset_dp(scenario, power_map, config, weights)
    report = evaluate_assignment(assignment, power_map, scenario, config, weights)
    return assignment, report


def _search_subset_dp(scenario, power_map, config, weights):
    cfg = scenario.config
    K, N, B = cfg.num_users, cfg.prbs_per_bs, cfg.num_bs
    user_ids = list(cfg.user_ids)
    terms = user_terms(scenario, config, weights)
    q = power_map.q.tolist()
    noise = power_map.noise_w
    full = (1 << K) - 1

    # dp: mask of served users -> (value, slots keyed by user index).
    # For equal values the prefix whose user-ordered slot tuple is smaller
    # wins; completions are identical per mask, so this composes to the
    # globally lexicographically smallest optimum.
    dp = {0: (0.0, {})}
    bs_orders = {
        s: list(itertools.permutations(range(B), s)) for s in range(0, B + 1)
    }
    for n in range(N):
        cap_after = B * (N - n - 1)
        new_dp = {}
        for mask, (value, slots) in dp.items():
            remaining = [i for i in range(K) if not mask & (1 << i)]
            s_min = max(0, len(remaining) - cap_after)
            s_max = min(B, len(remaining))
            if s_min > s_max:
                continue
            for s in range(s_min, s_max + 1):
                for users_pick in itertools.combinations(remaining, s):
                    for bs_pick in bs_orders[s]:
                        chosen = tuple(zip(users_pick, bs_pick))
                        contrib = _prb_contribution(chosen, n, q, noise, terms, user_ids)
                        if contrib is None:
                            continue
                        new_mask = mask
                        for ui in users_pick:
                            new_mask |= 1 << ui
                        new_value = value + contrib
                        incumbent = new_dp.get(new_mask)
                        if incumbent is not None and new_value < incumbent[0]:
                            continue
                        new_slots = dict(slots)
                        for ui, bi in chosen:
                            new_slots[ui] = (bi + 1, n + 1)
                        if incumbent is None or new_value > incumbent[0]:
                            new_dp[new_mask] = (new_value, new_slots)
                        else:  # exact value tie: lexicographic slot comparison
                            key_new = tuple(new_slots[i] for i in sorted(new_slots))
                            key_old = tuple(incumbent[1][i] for i in sorted(incumbent[1]))
                            if key_new < key_old:
                                new_dp[new_mask] = (new_value, new_slots)
        dp = new_dp
    if full not in dp:
        raise InfeasibleError("no feasible assignment")
    _, slots = dp[full]
    return Assignment(slots={user_ids[i]: bn for i, bn in slots.items()})


def default_lambda(power_map):
    """10x the largest interference-free SINR; a tight yet safe big-M."""
    return 10.0 * float(power_map.q.max()) / power_map.noise_w


def verify_linearization(assignment, power_map, lam=None):
    """Deviation between big-M-linearized SINRs and the direct ratio.

    With the binary assignment fixed, each product variable phi resolves to
    either the user's SINR (co-channel interferer present) or zero, and the
    linearized balance equation is solved for the SINR.  Raises when the big-M
    constant binds, i.e. lam is below an SINR it must dominate.
    """
    if lam is None:
        lam = default_lambda(power_map)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    max_dev = 0.0
    for k, (b, n) in assignment.slots.items():
        direct = sinr_of(assignment, power_map, k)
        interference = 0.0
        for m, (w, n2) in assignment.slots.items():
            if m != k and n2 == n and w != b:
                # phi[m,n,k,w,b] = T[k,n,b] here; its coefficient in the
                # balance row is the interferer's received power.
                interference += power_map.power(m, n, b)
        linearized = power_map.power(k, n, b) / (interference + power_map.noise_w)
        if linearized > lam:
            raise LambdaTooSmallError(
                f"lambda {lam} below SINR {linearized} of user {k}; big-M binds"
            )
        max_dev = max(max_dev, abs(linearized - direct) / direct)
    return max_dev


def write_result_csv(assignment, report, path):
    """Result rows user,bs,prb,sinr,log_sinr,up plus an objective summary line."""
    rows = [
        [k, b, n, repr(report.sinr[k]), "" if report.log_sinr[k] is None else repr(report.log_sinr[k]),
         repr(report.priorities[k])]
        for k, (b, n) in sorted(assignment.slots.items())
    ]
    rows.append(["objective", repr(report.objective_value)])
    write_csv(path, ["user", "bs", "prb", "sinr", "log_sinr", "up"], rows)
