"""Network scenario generation and the received-power map.

Received power per (user, PRB, base station) triple is
tx_power * fading_gain * attenuation, with 128 + 37.6*log10(d_km) path loss,
unit-mean exponential fading gains (squared Rayleigh envelope) and AWGN
integrated over one PRB's bandwidth.  All optimizer math is in watts.
"""

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .errors import DataError, InfeasibleError, UsageError, check_field_types
from .fileio import parse_id, read_csv, write_csv
from .medrecords import FEATURES, shared_levels

POWER_MAP_COLUMNS = ["user", "prb", "bs", "power_watts"]


def derive_seed(master_seed, *parts):
    """Stable 64-bit child seed from a master seed and integer indices.

    SHA-256 over the decimal rendering of (master, parts); documented so that
    parallel and sequential runs agree.
    """
    text = ":".join(str(int(x)) for x in (master_seed, *parts))
    digest = hashlib.sha256(b"prballoc:" + text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def path_loss_db(distance_m):
    """Urban path loss in dB: 128 + 37.6*log10(distance/1km), elementwise."""
    if not np.all(np.asarray(distance_m) > 0):
        raise ValueError("distance must be positive")
    return 128.0 + 37.6 * np.log10(distance_m / 1000.0)


def dbm_to_mw(x_dbm):
    return 10.0 ** (x_dbm / 10.0)


def noise_power_w(density_dbm_hz, bandwidth_hz):
    """AWGN power over one PRB, in watts; a bandwidth <= 0 raises ValueError."""
    return dbm_to_mw(density_dbm_hz + 10.0 * math.log10(bandwidth_hz)) / 1000.0


def received_w(gains, config, distances):
    """Fading `gains` (users, PRBs, BSs) scaled in place to received watts and returned:
    each times the per-PRB power and the path-loss attenuation at its (users, BSs) distance."""
    gains *= dbm_to_mw(config.tx_power_per_prb_dbm)
    gains *= 10.0 ** (-path_loss_db(distances) / 10.0)[:, None, :]
    gains /= 1000.0
    return gains


@dataclass(frozen=True)
class ScenarioConfig:
    """The system model.  Its rules are checked here, once; being frozen, it keeps them."""
    num_bs: int = 2
    prbs_per_bs: int = 5
    num_users: int = 10
    num_normal: int = 7
    distance_min_m: float = 300.0
    distance_max_m: float = 600.0
    tx_power_per_prb_dbm: float = 17.0
    max_power_per_connection_dbm: float = 23.0
    noise_density_dbm_hz: float = -162.0
    prb_bandwidth_hz: float = 180000.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if min(self.num_bs, self.prbs_per_bs) < 1 or not 0 <= self.num_normal < self.num_users:
            raise UsageError("want num_bs, prbs_per_bs >= 1 and 0 <= num_normal < num_users")
        if not 0 < self.distance_min_m <= self.distance_max_m:
            raise UsageError("distances must satisfy 0 < distance_min_m <= distance_max_m")
        try:  # the received power is what a map entry of gain 1 holds at either distance
            with np.errstate(all="ignore"):  # past a float, it reads 0, inf or nan
                received = received_w(np.ones((1, 1, 2)), self,
                                      np.array([[self.distance_min_m, self.distance_max_m]]))
            powers_ok = all(0 < w < math.inf for w in (
                dbm_to_mw(self.max_power_per_connection_dbm), self.noise_w, *received.flat))
        except (OverflowError, ValueError):
            powers_ok = False
        if not powers_ok:
            raise UsageError("tx_power_per_prb_dbm, max_power_per_connection_dbm, the noise"
                             " (noise_density_dbm_hz, prb_bandwidth_hz) and the mean received"
                             " power at distance_min_m and distance_max_m must be finite watts > 0")
        if self.tx_power_per_prb_dbm > self.max_power_per_connection_dbm:
            raise InfeasibleError("per-PRB power exceeds the per-connection cap")
        if self.num_users > self.num_bs * self.prbs_per_bs:
            raise InfeasibleError(
                f"{self.num_users} users exceed {self.num_bs * self.prbs_per_bs} slots"
            )

    @property
    def user_ids(self):
        return tuple(range(1, self.num_users + 1))

    @property
    def op_ids(self):
        """Outpatients are the users with index above num_normal."""
        return tuple(range(self.num_normal + 1, self.num_users + 1))

    @property
    def noise_w(self):
        return noise_power_w(self.noise_density_dbm_hz, self.prb_bandwidth_hz)


@dataclass(frozen=True)
class Scenario:
    """A config and its per-user data, checked once and stored read-only; `replace` checks again."""
    config: ScenarioConfig
    op_ps: MappingProxyType = field(default_factory=dict)  # outpatient id -> stroke posterior
    current_states: MappingProxyType = field(default_factory=dict)  # outpatient id -> levels

    def __post_init__(self):
        cfg = self.config

        def outpatient(key, k):  # an integer id, never a bool, stored as an int; O(1) per key
            if isinstance(k, bool) or not isinstance(k, numbers.Integral):
                raise UsageError(f"{key} names user {k!r}, which is not an integer user id")
            if not cfg.num_normal < k <= cfg.num_users:
                raise UsageError(f"{key} names user {k}, which is not an outpatient"
                                 f" (users {cfg.num_normal + 1}-{cfg.num_users})")
            return int(k)

        users = [outpatient("op_ps", k) for k in self.op_ps]
        states = {outpatient("current_states", k): state for k, state in self.current_states.items()}
        posteriors = {}
        for k, ps in zip(users, self.op_ps.values()):
            try:  # a real, never a bool, stored as a float (an int past a float overflows)
                posteriors[k] = float(ps) if isinstance(ps, numbers.Real) else math.nan
            except OverflowError as exc:
                raise UsageError(f"op_ps of user {k}: {exc}") from None
            if isinstance(ps, bool) or not 0.0 <= posteriors[k] <= 1.0:  # nan fails too
                raise UsageError(f"op_ps of user {k} is {ps!r}, not a number or outside [0, 1]")
        for k, state in states.items():
            try:
                if sorted(state) != list(FEATURES):
                    raise ValueError(f"want exactly the features {', '.join(FEATURES)}")
                states[k] = shared_levels(tuple(state[f] for f in FEATURES))
            except (TypeError, ValueError) as exc:
                raise UsageError(f"current state of outpatient {k}: {exc}") from None
        object.__setattr__(self, "op_ps", MappingProxyType(posteriors))
        object.__setattr__(self, "current_states", MappingProxyType(states))

    def ps_of(self, user_id):
        return self.op_ps.get(user_id, 0.0)


def check_map_shape(scenario, power_map, source="power map"):
    """DataError unless `power_map` holds the scenario's (users, PRBs, BSs)."""
    cfg = scenario.config
    want = (cfg.num_users, cfg.prbs_per_bs, cfg.num_bs)
    if power_map.q.shape != want:
        raise DataError(f"{source}: (users, PRBs, BSs) {power_map.q.shape} do not match"
                        f" the scenario's {want}")


@dataclass
class PowerMap:
    q: np.ndarray  # (num_users, prbs_per_bs, num_bs), watts
    noise_w: float


def generate_scenario(config, op_ps=None):
    """A scenario plus its first power-map realization, deterministically."""
    scenario = Scenario(config=config, op_ps=op_ps or {})
    return scenario, generate_power_map(scenario, realization=0)


def generate_power_map(scenario, realization=0):
    """One channel realization of the received-power map, in watts.

    A realization draws the user-to-BS distances (uniform per (user, BS) pair
    over [distance_min_m, distance_max_m]), then the fading gains.  A map that
    numpy cannot allocate is an InfeasibleError.
    """
    cfg = scenario.config
    rng = np.random.default_rng(derive_seed(cfg.seed, 1, realization))
    shape = (cfg.num_users, cfg.prbs_per_bs, cfg.num_bs)
    try:  # numpy refuses a size past intp with a ValueError
        distances = rng.uniform(cfg.distance_min_m, cfg.distance_max_m,
                                size=(cfg.num_users, cfg.num_bs))
        # The Exp(1) gains are drawn into the array that becomes q and scaled in
        # place, so a map costs one (K, N, B) array.
        q = rng.exponential(1.0, size=shape)
    except (MemoryError, ValueError) as exc:
        raise InfeasibleError(f"a power map of (users, PRBs, BSs) {shape} does not fit"
                              f" in memory: {exc}") from None
    return PowerMap(q=received_w(q, cfg, distances), noise_w=cfg.noise_w)


# --- serialization ---------------------------------------------------------


def scenario_to_json(scenario):
    payload = asdict(scenario.config)
    payload["op_ps"] = {str(k): repr(float(v)) for k, v in scenario.op_ps.items()}
    payload["current_states"] = {str(k): dict(v) for k, v in scenario.current_states.items()}
    return json.dumps(payload, indent=2, sort_keys=True)


def scenario_from_json(text):
    def unique_keys(pairs):  # a JSON object; a key given twice is refused (json keeps the last)
        keys = [key for key, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} given twice")
        return dict(pairs)

    def by_user(key, value=object):  # the object under `key` by user id, each written exactly as the id
        given = payload.get(key, {})
        want = "an object of objects" if value is dict else "an object"
        if not isinstance(given, dict) or not all(isinstance(v, value) for v in given.values()):
            raise ValueError(f"{key} is not {want} by user id")
        users = {}
        for k, v in given.items():
            try:
                users[parse_id(k)] = v
            except ValueError:
                raise ValueError(f"{key} names user {k!r}, which is not written as its id") from None
        return users

    try:  # JSON syntax, keys and the writer's decimal-string posteriors; Scenario checks the rest
        payload = json.loads(text, object_pairs_hook=unique_keys)
        if not isinstance(payload, dict):
            raise DataError("bad scenario JSON: want an object")
        config_keys = {f.name for f in fields(ScenarioConfig)} & set(payload)
        unknown = set(payload) - config_keys - {"op_ps", "current_states"}
        if unknown:
            raise DataError(f"bad scenario JSON: unknown key {min(unknown)!r}")
        return Scenario(
            config=ScenarioConfig(**{k: payload[k] for k in config_keys}),
            op_ps={k: float(v) if isinstance(v, str) else v for k, v in by_user("op_ps").items()},
            current_states=by_user("current_states", dict),
        )
    except (ValueError, TypeError, AttributeError, OverflowError, UsageError) as exc:
        raise DataError(f"bad scenario JSON: {exc}") from exc


def write_power_map_csv(power_map, path):
    """CSV with one row per (user, prb, bs) triple; powers round-trip exactly."""
    write_csv(path, POWER_MAP_COLUMNS, (
        [k, n, b, q]
        for k, per_prb in enumerate(power_map.q.tolist(), start=1)
        for n, per_bs in enumerate(per_prb, start=1)
        for b, q in enumerate(per_bs, start=1)
    ))


def read_power_map_csv(path, noise_w):
    def start(header):
        if header != POWER_MAP_COLUMNS:
            raise ValueError("bad power map header")
        return row

    def row(cells):
        u, n, b, p = cells
        try:
            triple, power = (parse_id(u), parse_id(n), parse_id(b)), float(p)
            ok = min(triple) >= 1 and 0.0 <= power < math.inf
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"want canonical user, prb, bs >= 1 and finite power >= 0, got {cells}")
        return triple, power

    rows = list(read_csv(path, start))  # ((user, prb, bs), power)
    if not rows:
        raise DataError(f"{path}: empty power map")
    powers = dict(rows)
    K, N, B = map(max, zip(*powers))
    # Every triple lies in the (K, N, B) box, so the distinct ones fill it only when none is
    # missing.  Checked before allocating, so that large ids cannot size a huge array.
    if len(powers) < K * N * B:
        raise DataError(f"{path}: missing (user, prb, bs) triples")
    if len(rows) > len(powers):
        raise DataError(f"{path}: {len(rows) - len(powers)} repeated (user, prb, bs) row(s)")
    q = np.empty((K, N, B))
    for (u, n, b), p in powers.items():
        q[u - 1, n - 1, b - 1] = p
    return PowerMap(q=q, noise_w=noise_w)
