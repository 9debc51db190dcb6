"""What the tests share and the program itself never calls: the reference instances,
the independent oracles, synthetic raw records in the ingestion schema, solution
files in the validator's format, the check of the MILP's linearization at an
assignment, and a bootstrap interval.  The program's own constants (the reference
posteriors, the alpha grid) are read from `prballoc.cli`, never written out here."""

import itertools
import math

import numpy as np

from prballoc import channel, cli, lp_export
from prballoc.allocator_exact import sinr_of
from prballoc.errors import InfeasibleError
from prballoc.fileio import write_text_atomic
from prballoc.medrecords import FEATURES, LEVEL_NAMES, RawRecordRow

# One outpatient's current state, a level for each feature, as a scenario file holds it.
STATE = {"f1": "Normal", "f2": "Normal", "f3": "High", "f4": "Heavy"}


class LambdaTooSmallError(ValueError):
    """Big-M constant below an SINR it must dominate."""


def baseline(seed=3):
    """The baseline layout at `seed` with the reference posteriors, and its map 0."""
    return channel.generate_scenario(channel.ScenarioConfig(seed=seed), op_ps=cli.REFERENCE_OP_PS)


def op_ps_entry(user, spelled=None):
    """The reference posterior of `user` as a scenario file writes it, a JSON key and the
    float's repr as a string, the key spelled `spelled` if given."""
    return f'"{user if spelled is None else spelled}": "{cli.REFERENCE_OP_PS[user]!r}"'


def three_cells():
    """A 3-BS x 3-PRB layout of 8 users, two of them outpatients, and its map 0."""
    cfg = channel.ScenarioConfig(num_bs=3, prbs_per_bs=3, num_users=8, num_normal=6, seed=1)
    return channel.generate_scenario(cfg, op_ps={7: 0.004, 8: 0.006})


def hand_instance():
    """Two users, two single-PRB base stations, noise 1 W.

    Own-cell powers 4 W, cross-cell 0.5 W: serving each user at its own BS
    yields 4/1.5 + 4/1.5 = 16/3; the swapped assignment only 2/3.
    """
    cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=1, num_users=2, num_normal=1, seed=0)
    sc = channel.Scenario(config=cfg, op_ps={2: 0.0064})
    q = np.array([[[4.0, 0.5]], [[0.5, 4.0]]])
    return sc, channel.PowerMap(q=q, noise_w=1.0)


def random_instance(rng, num_bs=2):
    """Random instance with one outpatient; N <= 3 PRBs at 2 BSs, N <= 2 at 3, 2 <= N <= 3 at 1."""
    N = int(rng.integers(1, 4 if num_bs == 2 else 3)) + (num_bs == 1)
    K = int(rng.integers(2, min(6 if num_bs == 2 else 5, num_bs * N) + 1))
    cfg = channel.ScenarioConfig(num_bs=num_bs, prbs_per_bs=N, num_users=K, num_normal=K - 1,
                                 seed=0)
    sc = channel.Scenario(config=cfg, op_ps={K: float(rng.uniform(0.001, 0.01))})
    q = rng.uniform(0.05, 5.0, size=(K, N, num_bs))
    return sc, channel.PowerMap(q=q, noise_w=float(rng.uniform(0.5, 2.0)))


def synthesize_raw_records(num_patients, days, rng, stroke_rate=0.1):
    """Raw rows of patients p1, p2, ..., one per day, drawn from `rng`."""
    rows = []
    for p in range(1, num_patients + 1):
        pid = f"p{p}"
        for d in range(1, days + 1):
            rows.append(
                RawRecordRow(
                    patient_id=pid,
                    day=d,
                    sysbp=float(rng.uniform(95, 180)),
                    diabp=float(rng.uniform(60, 110)),
                    totchol=float(rng.uniform(150, 300)),
                    cigpday=float(rng.integers(0, 40)),
                    stroke=int(rng.random() < stroke_rate),
                )
            )
    return rows


def oracle_optimum(scenario, pm, config, log=math.log):
    """Independent exhaustive oracle: evaluate every injective user->slot map
    with the SINR ratio and objective written out from scratch.

    Returns the optimal value and its slots; equal values break to the
    lexicographically smallest assignment (users in id order, slots ordered
    by (bs, prb)), the tie-break solve_exact promises.  Under PF, a log user's
    term is `log` of its SINR, and assignments that leave a log user at zero
    SINR are skipped; None when none is left.
    """
    cfg = scenario.config
    users = list(cfg.user_ids)
    slots = [(b, n) for b in range(1, cfg.num_bs + 1) for n in range(1, cfg.prbs_per_bs + 1)]
    weights = {}
    for k in users:
        if config.prioritization and k > cfg.num_normal:
            weights[k] = 1.0 + config.alpha * scenario.ps_of(k)
        else:
            weights[k] = 1.0
    logged = set()  # users whose PF term is ln(SINR)
    if config.objective == "pf":
        logged = {k for k in users if not (config.prioritization and k > cfg.num_normal)}
    best = None
    for perm in itertools.permutations(slots, len(users)):
        sinrs = oracle_sinrs(dict(zip(users, perm)), pm)
        if any(sinrs[k] == 0 for k in logged):
            continue
        value = sum(log(sinrs[k]) if k in logged else weights[k] * sinrs[k] for k in users)
        if best is None or value > best[0] or (value == best[0] and perm < best[1]):
            best = (value, perm)
    return None if best is None else (best[0], dict(zip(users, best[1])))


def oracle_sinrs(slots, pm):
    """SINR per user of `slots` (user_id -> (bs, prb)), written out: own power over the
    co-channel powers at other BSs plus the noise."""
    sinrs = {}
    for k, (b, n) in slots.items():
        interference = 0.0
        for m, (w, n2) in slots.items():
            if m != k and n2 == n and w != b:
                interference += pm.q[m - 1, n - 1, b - 1]
        sinrs[k] = pm.q[k - 1, n - 1, b - 1] / (interference + pm.noise_w)
    return sinrs


def oracle_posterior(record, state, smoothing="off"):
    """Brute-force naive-Bayes counting oracle: the stroke-day share times, per feature,
    the share of stroke days at the state's level (Laplace-smoothed on request)."""
    total = len(record.days)
    stroke_days = [e for e in record.days if e.stroke]
    ps = len(stroke_days) / total
    if not stroke_days and smoothing == "off":
        return 0.0
    for feat in FEATURES:
        match = sum(1 for e in stroke_days if e.levels[feat] == state.level(feat))
        if smoothing == "laplace":
            ps *= (match + 1) / (len(stroke_days) + len(LEVEL_NAMES[feat]))
        else:
            ps *= match / len(stroke_days)
    return ps


def occupants(slots, cfg):
    """The (N, B) occupant array of slots (user_id -> (bs, prb)); num_users is nobody."""
    occ = np.full((cfg.prbs_per_bs, cfg.num_bs), cfg.num_users)
    for k, (b, n) in slots.items():
        occ[n - 1, b - 1] = k - 1
    return occ


def slots_of(occ, users):
    """occ as user_id -> (bs, prb), keyed in the order of `users`."""
    num_bs = occ.shape[1]
    flat = occ.reshape(-1).tolist()
    slot_of = {k + 1: (s % num_bs + 1, s // num_bs + 1) for s, k in enumerate(flat)}
    return {k: slot_of[k] for k in users}


def reference_pool(user_id, slots, unserved, power_map, scenario):
    """The heuristic's pool as plain sets and dicts: one (slot, interferer, sinr) entry
    per slot that no user of `slots` (user_id -> (bs, prb)) holds, in (bs, prb) order;
    the SINR counts the interferer and the users of `slots` on the PRB."""
    cfg = scenario.config
    all_slots = {(b, n) for b in range(1, cfg.num_bs + 1) for n in range(1, cfg.prbs_per_bs + 1)}
    free_slots = all_slots - set(slots.values())
    if not free_slots:
        raise InfeasibleError("no free slot available")
    candidates = sorted(m for m in unserved if m != user_id)
    noise = power_map.noise_w
    if candidates:
        cand_q = power_map.q[np.array(candidates) - 1]  # (C, N, B)
        min_q = cand_q.min(axis=0)
        arg_q = cand_q.argmin(axis=0)
    entries = []
    num_bs = scenario.config.num_bs
    for b, n in sorted(free_slots):
        own = float(power_map.q[user_id - 1, n - 1, b - 1])
        # at most two terms at 3 BSs, so the order of the sum cannot move a bit
        earlier = sum(float(power_map.q[k - 1, n - 1, b - 1]) for k, (_, p) in slots.items() if p == n)
        co_channel_free = any(
            (w, n) in free_slots for w in range(1, num_bs + 1) if w != b
        )
        if candidates and co_channel_free:
            interferer = candidates[int(arg_q[n - 1, b - 1])]
            sinr = own / (earlier + float(min_q[n - 1, b - 1]) + noise)
            entries.append(((b, n), interferer, sinr))
        else:
            entries.append(((b, n), None, own / (earlier + noise)))
    return entries


def verify_linearization(assignment, power_map, lam=None):
    """Largest residual of the assigned users' c16 rows, each over its X coefficient.

    X is the assignment, T each user's SINR (`sinr_of`) and PHI = T X, the product rows
    c13-c15 pin.  `lam` defaults to the exported model's `lp_export.big_m`.  Raises when
    an SINR exceeds lam: c13 or c15 then cut the point off.
    """
    lam = lp_export.big_m(power_map) if lam is None else lam
    sinr = sinr_of(assignment, power_map)
    worst = 0.0
    for k, (b, n) in assignment.slots.items():
        if sinr[k] > lam:
            raise LambdaTooSmallError(f"lambda {lam} below SINR {sinr[k]} of user {k}; big-M binds")
        phis, x_coef = lp_export.balance_row(power_map, k, n, b)
        value = sum(q * sinr[k] for m, w, q in phis if assignment.slots.get(m) == (w, n))
        worst = max(worst, abs(value + sinr[k] - x_coef) / x_coef)
    return worst


def write_solution_file(assignment, objective, path):
    """Serialize a solution in the validator's `name value` format."""
    lines = [f"# objective {float(objective)!r}\n"]
    lines += [f"X_{k}_{n}_{b} 1\n" for k, (b, n) in sorted(assignment.slots.items())]
    write_text_atomic(path, "".join(lines))


def paired_bootstrap(statistic, *samples, resamples=5000, level=0.95, seed=0):
    """Percentile bootstrap interval of `statistic` (Efron & Tibshirani, 1993, ch. 13).

    Each sample holds one value per realization along its first axis, the same
    realizations in each.  A resample draws n realizations with replacement and takes
    them from every sample alike, so paired readings keep their pairing.  `statistic`
    gets the resampled arrays, each with a leading resample axis, and returns one value
    per resample.  One Generator, seeded by `seed`, draws every resample.
    """
    arrays = [np.asarray(sample, dtype=float) for sample in samples]
    n = len(arrays[0])
    picks = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
    tail = 50 * (1 - level)
    low, high = np.percentile(statistic(*(a[picks] for a in arrays)), [tail, 100 - tail])
    return float(low), float(high)
