"""Two-sided multiscale Cantor disk constructions.

Each level of the construction keeps M congruent *protecting* disks of
relative radius R inside the parent disk, and inside each protecting disk a
concentric *generating* disk of relative radius sigma = R * d.  Running the
levels with the relative factor sigma**K * R on one side ("source") and
sigma * R on the other ("target") produces the pair of sets exchanged by a
K-quasiconformal rearrangement; only this exact radii correspondence is used,
the map itself is never evaluated (and no quasiconformality of a finite stage
is certified).

Radii shrink like 1e-4 per level, so all radius and mass arithmetic is kept
in log space.  Mass splits by area: a node of generation N carries the
fraction prod(R_k**2) of the unit mass, times the tail renormalization
prod_{n>N}(1 - eps_n) with eps_n = 1 - M_n * R_n**2 once the construction is
truncated at a finite depth.
"""
from __future__ import annotations

import copy
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np


SOURCE = "source"
TARGET = "target"
SIDES = (SOURCE, TARGET)

#: hard smallness bound for both R and sigma = R*d
SMALLNESS = 1.0 / 100.0
_LOG_SMALLNESS = math.log(SMALLNESS)
_SMALL_TOL = 1e-12

# realization guards
MAX_REALIZED_ATOMS = 1 << 20
MAX_EXPORT_NODES = 100_000
_LOG_UNDERFLOW = -700.0


class ConstructionError(ValueError):
    """Inconsistent or infeasible level schedule."""


class PackingError(ConstructionError):
    """Requested disk packing is infeasible."""


def check_distortion(K):
    """The one rule for a distortion: 1 <= K < inf (NaN fails it too)."""
    if not 1.0 <= K < math.inf:
        raise ConstructionError(f"distortion K must be >= 1, got {K} (K must also be finite)")


def _check_side(side):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def check_mass_convention(convention):
    if convention not in ("ideal", "realized"):
        raise ValueError(f"unknown mass convention {convention!r}")


def _check_level_shape(index, branching, d):
    """The index, M and d rules of a level, checked before a radius is derived from M or d."""
    if index < 1:
        raise ConstructionError(f"level {index}: index must be >= 1")
    if branching < 1 or int(branching) != branching:
        raise ConstructionError(f"level {index}: branching must be a positive integer")
    if not (d >= 1.0):
        raise ConstructionError(f"level {index}: multiplier d must be >= 1")


@dataclass(frozen=True, slots=True)
class LevelSchedule:
    """Parameters of one construction level.

    index       1-based generation this level produces
    branching   M, number of protecting disks kept per parent
    multiplier  d >= 1, the generating/protecting gap: sigma = R * d
    log_protect natural log of the protecting radius fraction R
    distortion  K >= 1, shared across levels

    The derived logs (log_multiplier, log_sigma, log_keep, log_target_step,
    log_source_step) are computed once, when the level is made.
    """

    index: int
    branching: int
    multiplier: float
    log_protect: float
    distortion: float
    log_multiplier: float = field(init=False, repr=False, compare=False)
    log_sigma: float = field(init=False, repr=False, compare=False)
    log_keep: float = field(init=False, repr=False, compare=False)
    log_target_step: float = field(init=False, repr=False, compare=False)
    log_source_step: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_level_shape(self.index, self.branching, self.multiplier)
        check_distortion(self.distortion)
        if not (self.log_protect < 0.0):
            raise ConstructionError(f"level {self.index}: protecting radius must be < 1")
        if self.log_protect > _LOG_SMALLNESS + _SMALL_TOL:
            raise ConstructionError(
                f"level {self.index}: R = {math.exp(self.log_protect):.6g} violates the "
                f"smallness convention R <= {SMALLNESS}")
        log_multiplier = math.log(self.multiplier)
        log_sigma = self.log_protect + log_multiplier
        if log_sigma > _LOG_SMALLNESS + _SMALL_TOL:
            raise ConstructionError(
                f"level {self.index}: sigma = R*d = {math.exp(log_sigma):.6g} violates "
                f"the smallness convention sigma <= {SMALLNESS}")
        # log(1 - eps) = log(M * R^2), the per-level retained mass fraction
        log_keep = math.log(self.branching) + 2.0 * self.log_protect
        if log_keep > math.log1p(_SMALL_TOL):
            raise ConstructionError(
                f"level {self.index}: M*R^2 = exp({log_keep:.6g}) exceeds 1 "
                f"(eps would be negative)")
        put = object.__setattr__  # the dataclass is frozen
        put(self, "log_multiplier", log_multiplier)
        put(self, "log_sigma", log_sigma)
        put(self, "log_keep", log_keep)
        # log(sigma * R) and log(sigma**K * R), the per-level target and
        # source generating factors
        put(self, "log_target_step", log_sigma + self.log_protect)
        put(self, "log_source_step", self.distortion * log_sigma + self.log_protect)

    @classmethod
    def from_eps(cls, index, branching, multiplier, eps, distortion):
        """Protecting radius from the leftover area fraction: M*R^2 = 1 - eps."""
        if not (0.0 <= eps < 1.0):
            raise ConstructionError(f"level {index}: eps must lie in [0, 1)")
        try:
            log_r = 0.5 * math.log((1.0 - eps) / branching)
        except OverflowError:  # an integer M beyond the float range
            log_r = 0.5 * (math.log1p(-eps) - math.log(branching))
        return cls(index, branching, multiplier, log_r, distortion)

    @property
    def protect(self) -> float:
        """Protecting radius fraction R."""
        return math.exp(self.log_protect)

    @property
    def eps(self) -> float:
        """Leftover area fraction: 1 - M*R^2."""
        return 1.0 - self.branching * math.exp(2.0 * self.log_protect)



def _multiplier(j, e=1.0):
    """d_j = ((j+1)/j)**e; e = 1 gives the harmonic (j+1)/j bit for bit."""
    try:
        return ((j + 1) / j) ** e
    except OverflowError:
        raise ConstructionError(f"level {j}: d = ({j + 1}/{j})**{e:.6g} overflows") from None


def _level(index, branching, d, K, eps=None, log_cap=math.inf):
    """The one radius rule of every schedule.

    With eps=None the level takes the largest admissible radius,
    R = SMALLNESS / d (so sigma = SMALLNESS), lowered to exp(log_cap) if
    that binds; an explicit eps fixes M*R^2 = 1 - eps.
    """
    _check_level_shape(index, branching, d)
    if eps is not None:
        return LevelSchedule.from_eps(index, branching, d, eps, K)
    log_r = min(_LOG_SMALLNESS - math.log(d), log_cap)
    return LevelSchedule(index, branching, d, log_r, K)


def harmonic_schedule(K, depth, branching=4, eps=None):
    """Levels with multiplier d_j = (j+1)/j (telescoping to prod d_j = N+1).

    With eps=None each level takes the largest admissible radius,
    R_j = SMALLNESS / d_j, so sigma_j = SMALLNESS exactly.  An explicit eps
    fixes R = sqrt((1-eps)/M) at every level and fails if sigma = R*d_1
    breaks smallness.
    """
    check_distortion(K)
    return [_level(j, branching, _multiplier(j), K, eps) for j in range(1, depth + 1)]


def sharpness_exponent(K, q):
    """Exponent e with d_j = ((j+1)/j)**e making the source sum harmonic.

    Valid only in the regime beta*q = 2K/(K+1) with finite q > (2K+1)/(K+1).
    """
    check_distortion(K)
    q_min = (2.0 * K + 1.0) / (K + 1.0)
    if not q_min < q < math.inf:
        raise ConstructionError(
            f"indices not in sharpness regime: need q > (2K+1)/(K+1) = {q_min}, got q = {q} "
            "(q must also be finite)")
    q_conj_minus_1 = 1.0 / (q - 1.0)
    return (K + 1.0) / (2.0 * K * q_conj_minus_1)


def sharpness_schedule(K, q, depth, branching=4, eps=None):
    """Levels with d_j = ((j+1)/j)**e, e = (K+1)/(2K(q'-1)).

    The choice makes the source-side generation terms at the sharpness
    indices exactly 1/(n+1) while keeping the target side summable.  Early
    multipliers exceed 2 once q > (3K+1)/(K+1); sigma <= 1/100 still holds.
    """
    e = sharpness_exponent(K, q)
    return [_level(j, branching, _multiplier(j, e), K, eps) for j in range(1, depth + 1)]


def shrunk_schedule(K, depth, source_log_cap, branching=4):
    """Harmonic multipliers with radii thinned to meet a source-radius cap.

    source_log_cap(N) is the required upper bound on log s_N.  Each level
    keeps the largest admissible radius unless the cap binds, in which case
    log s_N equals the cap exactly.  Thinning never touches the multipliers,
    so target-side potentials are unchanged.
    """
    check_distortion(K)
    levels = []
    log_s = 0.0
    for j in range(1, depth + 1):
        d = _multiplier(j)
        log_d = math.log(d)
        log_r_cap = (float(source_log_cap(j)) - log_s - K * log_d) / (K + 1.0)
        lv = _level(j, branching, d, K, log_cap=log_r_cap)
        levels.append(lv)
        log_s += (K + 1.0) * lv.log_protect + K * log_d
    return levels


def doubly_exponential_schedule(K, depth, branching=4):
    """Radii capped so log s_max(N) <= -e**N; log-space only beyond depth 4."""
    return shrunk_schedule(K, depth, lambda n: -math.exp(n), branching=branching)


class CantorTree:
    """A validated schedule prefix with per-generation cumulative products.

    Nodes are not materialized: every per-generation quantity is a prefix sum
    over the schedules, so potentials and contents at depth 64 cost O(depth).
    ``prefix(depth)`` is the shallower tree whose arrays are slices of this
    tree's (read-only) arrays; a depth sweep builds one tree at its deepest
    depth and reads every shallower depth at its index, so the sweep does its
    O(depth) work once.
    Geometry (centers, atoms) lives in a CantorRealization.
    """

    #: the cumulative per-generation logs, entry n = generation n (entry 0 = root):
    #: log t, log s, ideal log mass (2 * sum log R_k), sum log d_k, sum log(1 - eps_k)
    #: and the log node count sum log M_k, in O(depth) floats where ``node_counts``
    #: holds O(depth^2) bits
    _CUMULATIVE = ("cum_log_t", "cum_log_s", "cum_log_mass", "cum_log_d", "cum_log_keep",
                   "log_node_counts")

    def __init__(self, schedules, depth, seed=0, scale=1.0):
        schedules = tuple(schedules)
        if depth > len(schedules):
            raise ConstructionError(
                f"depth {depth} exceeds the {len(schedules)} scheduled levels")
        if depth < 0:
            raise ConstructionError("depth must be >= 0")
        if not (scale > 0.0) or not math.isfinite(scale):
            raise ConstructionError("scale must be positive and finite")
        ks = {s.distortion for s in schedules}
        if len(ks) > 1:
            raise ConstructionError(f"levels must share one distortion K, got {sorted(ks)}")
        for i, s in enumerate(schedules[:depth], start=1):
            if s.index != i:
                raise ConstructionError(f"level {i}: schedule index {s.index} out of order")
        self._levels = schedules  # every level supplied: K is theirs, also at depth 0
        self.schedules = schedules[:depth]
        self.depth = depth
        self.seed = int(seed)
        self.scale = float(scale)

        # one in-order cumsum per quantity over (0, step_1, ..., step_depth): the
        # same additions, in the same order, as cum[g] = cum[g - 1] + step_g
        steps = [(0.0,) * len(self._CUMULATIVE)] + [
            (lv.log_target_step, lv.log_source_step, 2.0 * lv.log_protect,
             lv.log_multiplier, lv.log_keep, math.log(lv.branching)) for lv in self.schedules]
        cum = np.cumsum(np.array(steps).T, axis=1)
        cum.setflags(write=False)  # prefixes share these arrays
        for name, row in zip(self._CUMULATIVE, cum):
            setattr(self, name, row)

    @functools.cached_property
    def node_counts(self) -> tuple:
        """Nodes per generation, exact.  Formed on first use: at depth N the
        counts hold O(N^2) bits, and no Wolff sweep or estimate reads them
        (``log_node_counts`` holds their logs)."""
        return tuple(itertools.accumulate((lv.branching for lv in self.schedules),
                                          operator.mul, initial=1))

    def prefix(self, depth) -> "CantorTree":
        """The tree of the first depth levels, equal array for array to
        build_tree(levels, depth) with this tree's levels, seed and scale; its
        arrays are slices of this tree's, so no level is summed again."""
        if not 0 <= depth <= self.depth:
            raise ConstructionError(f"prefix depth {depth} outside 0..{self.depth}")
        tree = copy.copy(self)
        tree.depth = depth
        tree.schedules = self.schedules[:depth]
        if "node_counts" in vars(self):  # formed already: slice them too
            tree.node_counts = self.node_counts[:depth + 1]
        for name in self._CUMULATIVE:
            setattr(tree, name, getattr(self, name)[:depth + 1])
        return tree

    @property
    def K(self) -> float:
        return self._levels[0].distortion if self._levels else 1.0

    def level(self, generation) -> LevelSchedule:
        return self.schedules[generation - 1]

    def branching(self, generation) -> int:
        return self.schedules[generation - 1].branching

    def n_nodes(self, generation) -> int:
        return self.node_counts[generation]

    @property
    def n_leaves(self) -> int:
        return self.n_nodes(self.depth)

    def log_radius(self, side, generation) -> float:
        """log of the generating radius at a generation (includes scale)."""
        _check_side(side)
        cum = self.cum_log_s if side == SOURCE else self.cum_log_t
        return math.log(self.scale) + float(cum[generation])

    def log_protect_radius(self, side, generation) -> float:
        """log of the protecting radius at a generation >= 1."""
        if generation < 1:
            raise ValueError("protecting disks exist for generations >= 1")
        lv = self.level(generation)
        gap = lv.distortion * lv.log_sigma if side == SOURCE else lv.log_sigma
        return self.log_radius(side, generation) - gap

    def log_mass(self, generation, convention="realized") -> float:
        """log node mass at a generation.

        "realized": area-split mass of the depth-truncated construction,
        prod(R_k^2) * prod_{n>N}(1 - eps_n); generation totals are constant.
        "ideal": prod(R_k^2) alone.  Its generation total prod(M_k R_k^2) is
        1 only when M_k R_k^2 = 1; the default trees keep 4e-4/d_k^2 per level.
        """
        check_mass_convention(convention)
        ideal = float(self.cum_log_mass[generation])
        if convention == "ideal":
            return ideal
        tail = float(self.cum_log_keep[self.depth] - self.cum_log_keep[generation])
        return ideal + tail

    def log_total_mass(self, convention="realized") -> float:
        check_mass_convention(convention)
        if convention == "ideal":
            return 0.0
        return float(self.cum_log_keep[self.depth])

    def scaled(self, lam) -> "CantorTree":
        """The same construction with the ambient picture scaled by lam."""
        return CantorTree(self._levels, self.depth, seed=self.seed, scale=self.scale * lam)

    # -- node access ------------------------------------------------------

    def node_index(self, path) -> int:
        """Mixed-radix rank of a node among its generation."""
        idx = 0
        for g, j in enumerate(path, start=1):
            idx = idx * self.branching(g) + j
        return idx

    def realize(self, seed=None, samples_per_leaf=1):
        """Materialize centers and leaf atoms as a new CantorRealization."""
        from .realization import CantorRealization  # local import, avoids cycle
        seed = self.seed if seed is None else int(seed)
        return CantorRealization(self, seed, samples_per_leaf)

    def to_json(self) -> str:
        """Export per-node logs: {"path", "s_log", "t_log", "mass_log"}.

        The text is json.dumps(doc, sort_keys=True, separators=(",", ":")) of
        the document with its nodes in generation order and, within a
        generation, in path order.  A generation's nodes share their logs, so
        each log is formatted once per generation and each node record is
        joined from strings; the keys are written in sorted order.
        """
        total = sum(self.n_nodes(g) for g in range(self.depth + 1))
        if total > MAX_EXPORT_NODES:
            raise ConfigError(f"depth {self.depth}: {total} nodes exceed the export cap "
                              f"of {MAX_EXPORT_NODES}")
        dumps = json.dumps
        records, paths = [], [""]
        for g in range(self.depth + 1):
            if g:  # the children of each path, in path order
                sep = "," if g > 1 else ""
                paths = [f"{path}{sep}{j}" for path in paths for j in range(self.branching(g))]
            head = f'{{"mass_log":{dumps(self.log_mass(g))},"path":['
            tail = (f'],"s_log":{dumps(self.log_radius(SOURCE, g))},'
                    f'"t_log":{dumps(self.log_radius(TARGET, g))}}}')
            records += [head + path + tail for path in paths]
        return (f'{{"K":{dumps(self.K)},"depth":{dumps(self.depth)},'
                f'"nodes":[{",".join(records)}],'
                f'"scale":{dumps(self.scale)},"seed":{dumps(self.seed)}}}')


def build_tree(schedules, depth, seed=0, scale=1.0) -> CantorTree:
    """Validate a schedule prefix and return the (lazy) tree.

    Deterministic: radii and masses are pure products of the schedule; the
    seed only affects later center realization.
    """
    return CantorTree(schedules, depth, seed=seed, scale=scale)


# -- disk packing ----------------------------------------------------------


@functools.lru_cache(maxsize=256)
def pack_disks(M, rho, seed=0):
    """Centers of M pairwise disjoint disks of radius rho in the unit disk.

    Hex-first greedy: lattice with spacing 2*rho, rotated by a seeded angle,
    candidates sorted by distance from the origin.  Tangency is accepted to
    within 1e-12 (the classical 7-disk packing at rho = 1/3 is tangent).

    A layout is a pure function of (M, rho, seed), so it is computed once
    and the (M, 2) array returned is read-only and shared by every caller
    with the same arguments.  A refused input raises PackingError on every
    call (failures are not cached).
    """
    if M < 1 or int(M) != M:
        raise PackingError("M must be a positive integer")
    if not (0.0 < rho <= 1.0):
        raise PackingError(f"radius fraction rho = {rho} must lie in (0, 1]")
    if M * rho * rho > 1.0 + _SMALL_TOL:
        raise PackingError(
            f"area bound violated: M*rho^2 = {M * rho * rho:.6g} > 1")
    if M == 1:
        return _read_only(np.zeros((1, 2)))
    if rho > 0.5:
        raise PackingError(f"no two disjoint disks of radius {rho} > 1/2 fit in the unit disk")

    u = 2.0 * rho
    theta = np.random.default_rng(seed).uniform(0.0, np.pi / 3.0)
    reach = max(4, int(math.ceil(math.sqrt(2.0 * M))) + 2)
    reach_cap = int(math.ceil(1.0 / u)) + 2
    while True:
        ij = np.arange(-reach, reach + 1)
        i, j = np.meshgrid(ij, ij)
        x = u * (i + 0.5 * j).ravel()
        y = u * (math.sqrt(3.0) / 2.0) * j.ravel()
        norms = np.hypot(x, y)
        # grid of half-width `reach` surely holds every lattice point with
        # norm <= u * reach / sqrt(2); only trust candidates inside that
        safe = min(1.0 - rho + _SMALL_TOL, u * reach / math.sqrt(2.0))
        keep = norms <= safe
        if np.count_nonzero(keep) >= M or reach >= reach_cap:
            break
        reach = min(2 * reach, reach_cap)
    x, y, norms = x[keep], y[keep], norms[keep]
    c, s = math.cos(theta), math.sin(theta)
    pts = np.stack([c * x - s * y, s * x + c * y], axis=1)
    order = np.lexsort((np.round(np.arctan2(pts[:, 1], pts[:, 0]), 9),
                        np.round(norms, 12)))
    pts = pts[order]
    if pts.shape[0] < M:
        raise PackingError(
            f"hex-lattice feasibility: only {pts.shape[0]} of {M} disks of radius "
            f"{rho:.6g} fit in the unit disk")
    return _read_only(np.ascontiguousarray(pts[:M]))


def _read_only(arr):
    arr.setflags(write=False)
    return arr


# -- JSON schedule schema ---------------------------------------------------


class ConfigError(ValueError):
    """Invalid run configuration or input; the CLI exits 2 on it."""


_INTEGERS = (int, np.integer)
_NUMBERS = _INTEGERS + (float, np.floating)


def _as(convert, value, where):
    """convert(value) (float or int), or a ConfigError naming where the value
    sits.  Only numbers are read: a boolean or a string is refused, and an
    integer key refuses a value with a fractional part (4.0 reads as 4)."""
    kind = "a number" if convert is float else "an integer"
    if (isinstance(value, bool) or not isinstance(value, _NUMBERS)
            or convert is int and not (isinstance(value, _INTEGERS)
                                       or float(value).is_integer())):
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    try:
        return convert(value)
    except OverflowError:
        raise ConfigError(f"{where} must be {kind}, got {value!r}") from None


def _config_level(i, lv, K):
    if not isinstance(lv, dict) or not {"M", "d"} <= set(lv):
        raise ConfigError(f"level {i}: needs keys M and d")
    m, dspec, eps = _as(int, lv["M"], f"level {i}: M"), lv["d"], lv.get("eps")
    eps = None if eps is None else _as(float, eps, f"level {i}: eps")
    if isinstance(dspec, (int, float)) and not isinstance(dspec, bool):
        d = _as(float, dspec, f"level {i}: d")
    elif dspec in ("harmonic", "example2"):
        d = _multiplier(i)
    elif isinstance(dspec, dict) and set(dspec) == {"sharpness_q"}:
        q = _as(float, dspec["sharpness_q"], f"level {i}: sharpness_q")
        try:
            e = sharpness_exponent(K, q)
        except ConstructionError as exc:
            raise ConfigError(f"level {i}: sharpness_q = {q}: {exc}") from None
        d = _multiplier(i, e)
    else:
        raise ConfigError(f"level {i}: d must be a number, \"harmonic\"/\"example2\", "
                          f"or {{\"sharpness_q\": q}}, got {dspec!r}")
    return _level(i, m, d, K, eps)


def schedules_from_config(cfg):
    """Parse the schedule JSON schema into (schedules, depth, seed).

    Schema: {"K": number, "depth": int, "seed": int,
             "levels": [{"M": int, "eps": number, "d": <selector>}, ...]}.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    missing = {"K", "depth", "levels"} - set(cfg)
    if missing:
        raise ConfigError(f"config missing keys: {sorted(missing)}")
    K = _as(float, cfg["K"], "K")
    depth = _as(int, cfg["depth"], "depth")
    seed = _as(int, cfg.get("seed", 0), "seed")
    try:
        check_distortion(K)  # also when no level is built
        if not isinstance(cfg["levels"], list) or len(cfg["levels"]) < depth:
            raise ConfigError(f"levels must list at least depth={depth} entries")
        return [_config_level(i, lv, K) for i, lv in enumerate(cfg["levels"], 1)], depth, seed
    except ConstructionError as exc:
        raise ConfigError(str(exc)) from None
