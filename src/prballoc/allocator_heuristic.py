"""Real-time semi-greedy PRB assignment with OP-first ordering.

An iteration has two phases, as in GRASP (Feo & Resende, J. Glob. Optim.
1995).  Construction: each admitted user draws a free slot uniformly and takes
the best SINR it can get there (interferer chosen with minimum interfering
power); the chosen interferer gets the co-channel slot at once.  Improvement:
best-improvement swaps of two slots' occupants (`SwapSearch`) raise the
weighted SINR sum until no swap gains.  Both phases search the exact solver's
feasible set, one user per slot; prioritization acts only through the serve
order and the weights.  An iteration harness averages over randomized
admission orders and over power-map realizations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .allocator_exact import (
    DEFAULT_ALPHA, Assignment, Objective, column_sinrs, interference_w, prioritized, sinr_of,
)
from .channel import check_map_shape, derive_seed
from .errors import InfeasibleError, UsageError, check_field_types
from .fileio import write_csv
from .metrics import summarize
from .risk import check_alpha

SWAP_RTOL = 1e-12  # a swap must gain more than this share of the objective
MEMO_FLOATS = 1 << 16  # bound on the column gains a SwapSearch keeps (512 KB)
BATCH_FLOATS = 1 << 13  # bound on the temporaries of one batch of columns (64 KB)


@dataclass(frozen=True)
class HeuristicConfig:
    objective, pwl = "wsrmax", None  # constants, not fields: SwapSearch maximizes w · SINR only
    iterations: int = 1000
    prioritization: bool = False
    alpha: float = DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.iterations < 1:
            raise UsageError("iterations must be >= 1")
        check_alpha(self.alpha)


@dataclass
class IterationTrace:
    """One iteration, each dict in placement order (each admitted user, then its interferer):
    the SINRs right after each admission, then the slots and SINRs after the swaps;
    `pool_sizes` holds each admission's number of free slots."""
    serve_order: list
    slots: dict  # user_id -> (bs, prb)
    at_assignment_sinr: dict
    final_sinr: dict
    pool_sizes: list = field(default_factory=list)
    swaps: int = 0  # improving swaps applied after the construction


def best_sinr_pool(occ, candidates, power_map, rng):
    """Draw one entry of the admitted user's pool: ((bs, prb), interferer), 0-based.

    The pool holds one entry per empty slot of the (N, B) occupants `occ`
    (num_users for nobody), in (bs, prb) order; the draw is uniform, so only
    the drawn entry is built.  `candidates` holds the occupant indices, ascending,
    of the users that may interfere.  Where the slot's PRB has another free slot,
    the candidate of minimum interfering power at the slot (ties by index), which
    leaves the admitted user its best SINR, is the interferer, else None.
    """
    free = occ == len(power_map.q)
    bs, prb = np.nonzero(free.T)
    if not len(bs):
        raise InfeasibleError("no free slot available")
    i = rng.integers(len(bs))
    b, n = int(bs[i]), int(prb[i])
    if not len(candidates) or np.count_nonzero(free[n]) < 2:
        return (b, n), None
    return (b, n), int(candidates[power_map.q[candidates, n, b].argmin()])


class SwapSearch:
    """Best-improvement local search over swaps of two slots' occupants.

    A move exchanges the occupants of two slots, either of which may be empty,
    so a user can also move into a free slot.  Each step applies the swap that
    most raises the config's `Objective`, a weighted SINR sum (one with PF's
    log terms is a UsageError; ties go to the pair first in (prb, bs) slot
    order), and the search stops once no swap gains more than SWAP_RTOL of the
    current objective.

    Interference never crosses PRB indices, so a swap changes only the
    columns of its two PRBs, and after each swap only the gains that involve
    a slot in those columns are recomputed.  A column's gains depend only on
    its occupants, so one search serves every iteration on its power map and,
    when the gains of every possible column state fit in MEMO_FLOATS numbers,
    keeps those of the states it has met.  It keeps the scenario, map and
    config it was built for, and the fixed head of their serve order.
    """

    def __init__(self, scenario, power_map, config):
        check_map_shape(scenario, power_map)
        self.scenario, self.power_map, self.config = scenario, power_map, config
        self.objective = Objective(scenario, config)
        if self.objective.log.any():
            raise UsageError("the swap search maximizes a weighted SINR sum, not PF's logs")
        cfg, ops = scenario.config, prioritized(scenario, config.prioritization)
        self.head = sorted(ops, key=lambda k: (-self.objective.weights[k], k))
        self.rest = [k for k in cfg.user_ids if k not in ops]
        self.num_bs, self.num_prbs, self.nobody = cfg.num_bs, cfg.prbs_per_bs, cfg.num_users
        self.q, self.noise = power_map.q, power_map.noise_w
        bs = np.arange(self.num_bs)
        self.other = bs[:, None] != bs
        self.apart = self.other[:, :, None] & self.other  # [b, x, v]: x is neither b nor v
        pair_a, pair_b = np.nonzero(np.triu(self.other))
        pairs = np.arange(len(pair_a))
        self.perms = np.tile(bs, (len(pairs), 1))
        self.perms[pairs, pair_a] = pair_b
        self.perms[pairs, pair_b] = pair_a
        self.memo = {}
        states = self.num_prbs * (self.nobody + 1) ** self.num_bs
        entry_floats = self.num_bs * (self.nobody + 1) + len(pairs) + 1
        self.keep = states * entry_floats <= MEMO_FLOATS
        self.batch = max(1, BATCH_FLOATS // (self.num_bs * self.num_bs * (self.nobody + 1)))
        # flat positions of the swaps within a column in the (slot, slot) gain matrix
        first = np.arange(self.num_prbs)[:, None] * self.num_bs + pair_a
        second = np.arange(self.num_prbs)[:, None] * self.num_bs + pair_b
        size = self.num_prbs * self.num_bs
        self.within_at = np.stack([first * size + second, second * size + first])

    def serve_order(self, rng):
        """Prioritized outpatients by descending priority (ties by id), then the rest shuffled."""
        return self.head + [self.rest[i] for i in rng.permutation(len(self.rest))]

    def _column_gains(self, occ_cols, prbs):
        """Swap gains of the PRB columns `prbs`, whose occupants are `occ_cols` (C, B).

        Returns the columns' weighted SINR sums (C,); gains (C, B, U), the change
        of column c when user u replaces the occupant at BS b while the rest of
        the column stays put (its share of a swap with a slot on another PRB);
        and (C, P), the change when the column's occupants are rearranged by
        each of `perms` (P, B), one per pair of BSs swapping inside the column.
        """
        q, w, other, perms = self.q, self.objective.w, self.other, self.perms
        cand = np.zeros((len(prbs), len(w), len(other)))  # (C, U, v): each user heard at v
        cand[:, : len(q)] = q[:, prbs].transpose(1, 0, 2)
        p = cand[np.arange(len(prbs))[:, None], occ_cols]  # (C, x, v): occupant at x heard at v
        # heard[c, b, v]: v's interference with b's occupant gone; b = v is the current one
        heard = interference_w(p[:, None], self.apart, self.noise)
        interference = heard.diagonal(axis1=1, axis2=2)
        own = w[occ_cols] * p.diagonal(axis1=1, axis2=2)
        values = (own / interference).sum(axis=1)
        # every BS v other than b hears the newcomer instead of b's occupant
        others_own = (own[:, None, :] * other)[:, :, None, :]
        gains = (others_own / (heard[:, :, None, :] + cand[:, None])).sum(axis=3)
        gains += (w[:, None] * cand / interference[:, None, :]).transpose(0, 2, 1)
        gains -= values[:, None, None]
        moved = p[:, perms, np.arange(len(other))]  # (C, P, v): each rearrangement's signals
        own_moved = w[occ_cols[:, perms]] * moved
        within = (own_moved / interference_w(p[:, perms], other, self.noise)).sum(axis=2)
        within -= values[:, None]
        return values, gains, within

    def _columns(self, occ, prbs, move_in, within):
        """Write the gains of PRB columns `prbs` into move_in and within; return their values."""
        rows = occ.tolist()
        keys = [(n, *rows[n]) for n in prbs]  # a column's entry depends only on these
        table = self.memo if self.keep else {}
        missing = [key for key in keys if key not in table]
        for start in range(0, len(missing), self.batch):
            batch = missing[start : start + self.batch]
            cols = np.array([key[0] for key in batch])
            fresh = self._column_gains(occ[cols], cols)  # one row of each part per key
            table.update(zip(batch, zip(*fresh)))
        num_bs, flat = self.num_bs, occ.reshape(-1)
        values = []
        for key in keys:
            n = key[0]
            value, column_gains, column_within = table[key]
            move_in[n * num_bs : (n + 1) * num_bs] = column_gains[:, flat]
            within[:, n] = column_within
            values.append(value)
        return values

    def improve(self, occ):
        """Improve occ in place; returns the number of swaps applied.

        occ is the C-contiguous (N, B) array of each slot's occupant: user
        index k - 1 for user k, num_users for an empty slot.
        """
        num_bs = self.num_bs
        flat = occ.reshape(-1)  # a view; slot s = (prb - 1) * num_bs + (bs - 1)
        move_in = np.empty((flat.size, flat.size))  # s's column if t's occupant moves in
        within = np.empty(self.within_at.shape)
        objective = math.fsum(self._columns(occ, range(self.num_prbs), move_in, within))
        delta = np.empty_like(move_in)  # gain of each swap; a slot with itself gains about 0
        swaps = 0
        while True:
            np.add(move_in, move_in.T, out=delta)
            delta.flat[self.within_at] = within
            best = int(delta.argmax())
            gain = float(delta.flat[best])
            if not gain > SWAP_RTOL * abs(objective):
                break
            s1, s2 = divmod(best, flat.size)
            flat[s1], flat[s2] = flat[s2], flat[s1]
            move_in[:, [s1, s2]] = move_in[:, [s2, s1]]  # the occupants moved with their gains
            objective += gain
            swaps += 1
            self._columns(occ, {s1 // num_bs, s2 // num_bs}, move_in, within)
        return swaps


def run_iteration(scenario, power_map, config, rng, improver=None):
    """Serve every user once, then improve by swaps; returns the IterationTrace.

    The construction only places users, each admission keeping a copy of the
    PRB column it filled; one `column_sinrs` call over those columns then gives
    every at-assignment SINR.  `improver` is a SwapSearch built for this
    scenario, power map and config, else a UsageError; passing one to every
    iteration on a map lets it reuse column gains, and None builds a fresh one.
    """
    if improver is None:
        improver = SwapSearch(scenario, power_map, config)
    elif (improver.power_map is not power_map or improver.scenario != scenario
          or improver.config != config):
        raise UsageError("the improver was built for another scenario, power map or config")
    cfg = scenario.config
    order = improver.serve_order(rng)
    nobody = cfg.num_users
    occ = np.full((cfg.prbs_per_bs, cfg.num_bs), nobody)  # occupant index of each (prb, bs)
    unserved = np.ones(nobody, dtype=bool)
    seats, pool_sizes, prbs, columns = [], [], [], []  # seats: (user, admission, bs index)
    for user in order:
        if not unserved[user - 1]:
            continue  # already placed as someone's interferer
        unserved[user - 1] = False
        pool_sizes.append(occ.size - len(seats))
        (b, n), m = best_sinr_pool(occ, np.flatnonzero(unserved), power_map, rng)
        row = occ[n]
        row[b] = user - 1
        seats.append((user, len(columns), b))
        if m is not None:
            co = row.tolist().index(nobody)  # the lowest free co-channel BS
            row[co] = m
            unserved[m] = False
            seats.append((m + 1, len(columns), co))
        prbs.append(n)
        columns.append(row.copy())
    sinr = column_sinrs(power_map.q, power_map.noise_w, np.array(columns), np.array(prbs)).tolist()
    at_sinr = {k: sinr[a][b] for k, a, b in seats}
    swaps = improver.improve(occ)
    num_bs = cfg.num_bs
    slot_of = {k: (s % num_bs + 1, s // num_bs + 1) for s, k in enumerate(occ.reshape(-1).tolist())}
    slots = {k: slot_of[k - 1] for k in at_sinr}
    final = sinr_of(Assignment(slots=slots), power_map)
    return IterationTrace(order, slots, at_sinr, final, pool_sizes, swaps)


def run_file(scenario, power_map, config, file_index=0):
    """All iterations on one power map: per-user mean final SINRs and the
    per-iteration weighted objectives."""
    sums = {k: 0.0 for k in scenario.config.user_ids}
    objectives = []
    search = SwapSearch(scenario, power_map, config)
    for it in range(config.iterations):
        rng = np.random.default_rng(derive_seed(config.seed, file_index, it))
        trace = run_iteration(scenario, power_map, config, rng, search)
        objectives.append(search.objective.value(trace.final_sinr))
        for k, s in trace.final_sinr.items():
            sums[k] += s
    means = {k: sums[k] / config.iterations for k in sums}
    return means, objectives


@dataclass
class HeuristicReport:
    per_file_means: list  # one dict per power map: user_id -> mean final SINR
    per_file_objectives: list  # list of per-iteration objective lists


def run_heuristic(scenario, power_maps, config):
    """Run the heuristic's iterations on each power map, one file per map."""
    if not power_maps:
        raise UsageError("need at least one power map")
    files = [run_file(scenario, pm, config, file_index=i) for i, pm in enumerate(power_maps)]
    return HeuristicReport([means for means, _ in files], [objectives for _, objectives in files])


def write_heuristic_csv(report, path):
    """One row per user: the mean, SD and 95% CI across files of its per-file means."""
    means = report.per_file_means
    summaries = {k: summarize([m[k] for m in means]) for k in sorted(means[0])}
    write_csv(path, ["user", "mean_sinr", "sd", "ci_low", "ci_high"], (
        [k, s.mean, s.sd, s.ci_low, s.ci_high] for k, s in summaries.items()
    ))
