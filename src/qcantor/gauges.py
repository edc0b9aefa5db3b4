"""Ball gauges, regularity classes, h-contents and Frostman measures.

A gauge assigns every ball B(x, t) a density eps(B) >= 0 and the set
function h(B) = t^gamma * eps(B).  It plays two roles.  As a ball density,
any callable eps(x, r) taking arrays of centres and radii (a constant also
serves) feeds the regularity checks check_G1/check_G2, and any callable
eps_log(log r) of the radius alone feeds generation_cover_sum.
As a node gauge, an object carrying its tree and side supplies h on every
node ball of that tree (h_values, far_field_bound) to contents and Frostman
flows; the tree alone fixes the depth (tree.prefix(depth) is a shallower
one).  The smoothed density of a measure,

    eps_mu_a(x, t) = (1/t) * sum_i w_i * psi_a(|y_i - x| / t),
    psi_a(r) = 1 / (r^(1+a) + 1),

is the mollified version of mu(B)/t: it keeps the doubling bound
eps(x, 2t) <= 2^a * eps(x, t) pointwise, which plain ball densities lack.

Contents restrict coverings to tree-aligned balls: the exact optimum over
every antichain of nodes is a bottom-up dynamic program, and the matching
Frostman measure is the tree max-flow, which equals the min-cut (= the DP
value) exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cantor import SOURCE, TARGET, ConfigError, ConstructionError, _check_side
from .measure import _kernel_sums

#: largest sample_ball_pairs count: its pairs are built one at a time
MAX_PAIRS = 1 << 16
#: relative slack of the h brackets of content_Mh_tree, for rounding and pow
_SLACK = 2.0 ** -40
#: least lower end of an h bracket: far above the subnormals, where a relative
#: slack no longer covers rounding
_TINY = 2.0 ** -1000


def _power(x, p):
    """x ** p of floats x >= 0, inf where it leaves the doubles."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _psi(r, a, inplace=False):
    """psi_a's body, unchecked; inplace overwrites the array r with the result.

    Both forms apply the same three operations, so they agree bit for bit.
    """
    with np.errstate(over="ignore"):  # r^(1+a) past the doubles gives 0, the limit
        if not inplace:
            return 1.0 / (r ** (1.0 + a) + 1.0)
        r **= 1.0 + a
        r += 1.0
        return np.divide(1.0, r, out=r)


def check_kernel_a(a):
    """Refuse a kernel parameter outside 0 < a < inf, nan included."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"kernel parameter a must be positive and finite, got {a}")


def psi_a(r, a):
    """Radial kernel 1/(r^(1+a) + 1) of nonnegative radii, elementwise."""
    check_kernel_a(a)
    return _psi(r, a)


class _PsiKernel:
    """psi_a(r / t) with a radius t per row (radii, (rows, 1)), or t = 1 where
    radii is None: the one psi_a kernel, for ``measure._kernel_sums`` and for
    the tree fill (``CantorRealization.eps_rings``).

    With s = r / t, p = 1 + a and h = s^p psi = 1 - psi in [0, 1), dh/ds =
    p h psi / s, so by induction psi^(k)(s) = (p / s^k) P_k(h) h psi with

        P_1 = -1,   P_2 = 2 p h - (p - 1),
        P_3 = -6 p^2 h^2 + 6 p (p - 1) h - (p - 1) (p - 2).

    The quadrupole (psi'' Q + psi' / s (tr - Q)) / 2 of a block with second
    moments S, Q = d.S d along the unit direction d, is then
    p psi (1 - psi) ((p + 2 - 2 p psi) Q - tr S) scale^2 / 2, with scale the
    length unit of S over r (1 / r for S in absolute units).

    The third directional derivative of psi(|z|) along a unit vector at
    cosine c to z is psi''' c^3 + 3 c (1 - c^2) (psi'' / s - psi' / s^2) =
    (p / s^3) h psi (P_3 c^3 + 3 c (1 - c^2) (P_2 + 1)).  On h in [0, 1]
    |P_3| <= (p + 1)(p + 2), reached at h = 1 (the interior vertex gives
    (p - 1)(p + 1) / 2), and |P_2 + 1| = |2 p h - p + 2| <= p + 2; since
    (p - 2) c^3 + 3 c increases on [0, 1], (p + 1) |c|^3 + 3 |c| (1 - c^2)
    <= p + 1.  With h <= 1 the derivative is therefore at most
    (p)_3 psi(s) / s^3, (p)_3 = p (p + 1)(p + 2), the Gegenbauer form of
    |x|^-q's (q)_3 |x|^-(q+3).  On segments at least gap / t > 0 from the
    origin, where psi(s) / s^3 decreases, the Lagrange remainder of an atom
    of weight w within rho of the expansion centre is at most
    w (p)_3 / 6 (rho / gap)^3 psi(gap / t).

    A tree ring's bound holds psi(gap / t) already (``eps_rings``).  A leaf's
    exact share is at least W psi((u + rho) / t), and psi(gap / t) /
    psi((u + rho) / t) = (1 + X) / (1 + Y) <= X / Y = ((u + rho) / gap)^p
    for X = ((u + rho) / t)^p >= Y = (gap / t)^p > 0, so its remainder is at
    most a share (p)_3 / 6 x^3 (1 + 2 x)^p, x = rho / gap, of the leaf's
    exact term, for every gap > 0: only a ball centred inside the leaf
    (gap <= 0) needs its atoms.  Past the doubles (a = 1e300) the share is
    inf, so every leaf takes its atoms.
    """

    radius = 0.0

    def __init__(self, a, radii=None):
        self.power = 1.0 + a
        self.a, self.radii = a, radii

    def atoms(self, d, rows):
        d /= self.radii[rows]
        _psi(d, self.a, inplace=True)

    def expand(self, u, quad, trace, scale, weight, rows=None):
        """Overwrite the distances u with W psi plus the quadrupole, from
        quad = Q (overwritten too), trace = tr S, scale and the block weight W."""
        p = self.power
        if self.radii is not None:
            u /= self.radii[rows]
        psi = _psi(u, self.a, inplace=True)
        work = np.multiply(psi, -2.0 * p)
        work += p + 2.0
        quad *= work
        quad -= trace
        np.multiply(psi, 0.5 * p, out=work)
        work *= 1.0 - psi
        work *= scale
        work *= scale
        quad *= work
        psi *= weight
        psi += quad
        return psi


def eps_mu_a(measure, x, t, a):
    """Smoothed density of a planar measure on the balls B(x, t).

    x is one centre (2,) or many (m, 2), and t a radius or an array of radii
    broadcast against the centres.  One centre and one radius give a float,
    anything else an array of the broadcast shape.  Every ball's value is
    the one a single-ball call gives, bit for bit.

    Each ball is one row of ``measure._kernel_sums`` with ``_PsiKernel``:
    one centre broadcasts against its radii like many.  Without blocks, or
    with an atom of zero weight, it sums psi_a over the atoms of positive
    weight.  On a measure with blocks
    (``CantorRealization.measure`` at more than one sample per leaf) a block
    is admissible for a ball whose centre lies outside it where the
    a-priori third-order remainder (``_PsiKernel``) is at most
    EXPANSION_BUDGET of its share (``measure._leaf_sums``).  Each ball takes
    the coarsest tree generation whose every block is admissible, one
    monopole plus quadrupole about the centroid per block, and a ball that
    none above the leaves serves takes each admissible leaf's expansion and
    the other leaves' atoms; every block's share is within EXPANSION_BUDGET
    of its exact value, relative.
    """
    check_kernel_a(a)
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        raise ValueError("radius t must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise ValueError(f"centre x must have shape (2,) or (..., 2), got {x.shape}")
    shape = np.broadcast_shapes(x.shape[:-1], t_arr.shape)
    centres = np.broadcast_to(x, shape + (2,)).reshape(-1, 2)
    radii = np.broadcast_to(t_arr, shape).reshape(-1, 1)
    out, _ = _kernel_sums(measure, centres, _PsiKernel(a, radii))
    out /= radii[:, 0]
    if not shape:
        return float(out[0])
    return out.reshape(shape)


# -- node gauges -------------------------------------------------------------


class TreeSmoothedDensityGauge:
    """eps_mu_a of a realized side, evaluated on that side's node balls.

    Uses the realization's ancestor-relative frames, so values stay exact at
    depths where absolute coordinates would have collapsed.  The one node-gauge
    body, h = t^gamma * eps^exponent; here gamma = exponent = 1.
    """

    gamma = exponent = 1.0

    def __init__(self, realization, a, side=SOURCE):
        _check_side(side)
        self.realization = realization
        self.tree = realization.tree
        self.a = float(a)
        self.side = self._density_side = side
        self.description = f"tree_eps_mu_a(a={a},side={side})"

    def _eps_power(self, g):
        """eps^exponent of every generation-g node, by numpy's array power: the
        one form that h_node, h_values and check_G2_tree_gauge read.  A
        generation where the power leaves the doubles is refused, naming the
        gauge."""
        eps = self.realization.eps_partial(self._density_side, self.a, g, math.inf)[0]
        try:
            with np.errstate(over="raise"):
                return eps ** self.exponent
        except FloatingPointError:
            raise ConstructionError(
                f"{self.description}: eps^{self.exponent:.6g} at generation {g} of the K = "
                f"{self.tree.K} tree leaves double precision (largest eps {np.max(eps):.6g})"
            ) from None

    def _h(self, g):
        """h of every generation-g node, t^gamma * eps^exponent."""
        return math.exp(self.tree.log_radius(self.side, g)) ** self.gamma * self._eps_power(g)

    def h_node(self, path):
        t = math.exp(self.tree.log_radius(self.side, len(path)))
        return t ** self.gamma * float(self._eps_power(len(path))[self.tree.node_index(path)])

    def h_values(self):
        """h over every node of the tree, one array per generation 0..depth."""
        return [self._h(g) for g in range(self.tree.depth + 1)]

    def _h_bracket(self, g, rings):
        """(lo, hi, done): bounds on h of every generation-g node from the first
        rings rings of its eps (``eps_partial``), lo <= h <= hi node by node,
        and whether they are every ring, where lo = hi = ``_h(g)``.

        The partial sum P is a lower end of the full one S; the rings still to
        come add at most rest = ``RingPlan.rest`` of the exact eps E, which is
        within the plan's bound b of S, so S <= P / room, room = 1 - rest /
        (1 - b).  Each end takes a relative slack of _SLACK for the rounding
        of the ring sums and of pow.  A priori eps lies between mu / 2 and
        mu / room_1, with mu the node's mass over its radius (ring 0's psi
        lies in [1/2, 1] on the node's own ball).  A generation whose upper
        ends might then leave the doubles, or whose lower ends might fall
        near the subnormals (where a relative slack does not hold), is summed
        over every ring instead, so that it is refused exactly as
        ``_eps_power`` refuses it.
        """
        real, side, p = self.realization, self._density_side, self.exponent
        eps, added = real.eps_partial(side, self.a, g, rings)
        plan = real.eps_rings(side, self.a)[g]
        room, room_1 = (1.0 - plan.rest(k) / (1.0 - plan.bound) for k in (added, 1))
        if added <= len(plan.levels) and room_1 > 0.0:
            grow = (1.0 + _SLACK) / room
            t = math.exp(self.tree.log_radius(self.side, g)) ** self.gamma
            mu = (float(real.weights[0]) * (real.n_atoms // self.tree.node_counts[g])
                  / math.exp(self.tree.log_radius(side, g)))
            # a factor 2 above the largest upper end keeps every product finite
            if (2.0 * max(t, 1.0) * _power(mu / room_1 * grow, p) < math.inf
                    and min(t, 1.0) * _power(mu / 2.0, p) > _TINY):
                power = t * eps ** p
                return power * (1.0 - _SLACK), power * (_power(grow, p) * (1.0 + _SLACK)), False
        h = self._h(g)
        return h, h, True

    def far_field_bound(self):
        """Relative bound, either sign, on the h error of the batched eps.

        Each eps is within a share b of its exact value (the largest
        ``RingPlan.bound`` of the fill: the dropped rings' tail plus the
        expansion remainders), so by the mean value theorem eps**p with
        p >= 1 is within p * b * (1 + b)**(p - 1) of its exact power.
        """
        b = max(plan.bound for plan in self.realization.eps_rings(self._density_side, self.a))
        return self.exponent * b * (1.0 + b) ** (self.exponent - 1.0)


class DistortedTreeGauge(TreeSmoothedDensityGauge):
    """The smoothed source gauge read on target node balls with the K exponents:
    h = t^(2/(K+1)) * eps_mu_a(source ball of the same node)^(2K/(K+1)).  The
    correspondence is known exactly only on tree balls, so this gauge has node
    values only.
    """

    def __init__(self, realization, a):
        super().__init__(realization, a, side=TARGET)
        self._density_side = SOURCE
        K = self.K = self.tree.K
        self.gamma = 2.0 / (K + 1.0)
        self.exponent = 2.0 * K / (K + 1.0)
        self.description = f"distorted(a={a},K={K})"

    # its own entry: bench/tracer.py patches h_node per defining class
    h_node = TreeSmoothedDensityGauge.h_node


# -- regularity classes ------------------------------------------------------


@dataclass(frozen=True)
class DoublingReport:
    """Empirical comparability (G1) and summability (G2) constants."""

    c0: float | None
    c0_prime: float | None
    pairs: int
    truncation_k: int | None = None
    notes: str = field(default="", compare=False)

    def to_json_dict(self):
        # the report sets no threshold; the null keys keep the JSON layout
        return {"C0": self.c0, "C0_prime": self.c0_prime, "pairs": self.pairs,
                "truncation_k": self.truncation_k, "threshold": None,
                "passed": None}


def sample_ball_pairs(center, spread, n, seed, log_r_range=(-8.0, 0.0)):
    """Admissible comparability pairs: |x - y| <= 2r and r/2 <= s <= 2r.

    Pair i reads row i of one rng.random((n, 6)) draw as the uniforms of x
    (two), log r, the angle and length of y - x, and s / r, each mapped to
    its range as low + (high - low) u, which is numpy's uniform(low, high)
    on the same stream; exp, cos and sin are math's, pair by pair.  More
    than MAX_PAIRS pairs are refused before any is drawn.
    """
    if n > MAX_PAIRS:
        raise ConfigError(f"--pairs {n}: at most {MAX_PAIRS} (the pairs are built one "
                          "at a time)")
    u = np.random.default_rng(seed).random((n, 6))
    lo, hi = (float(v) for v in log_r_range)
    xs = np.asarray(center, dtype=float) + spread * (-1.0 + 2.0 * u[:, :2])
    pairs = []
    for x, (_, _, v_r, v_phi, v_rad, v_s) in zip(xs, u.tolist()):
        r = math.exp(lo + (hi - lo) * v_r)
        phi = 2.0 * np.pi * v_phi
        rad = 2.0 * r * v_rad
        y = x + rad * np.array([math.cos(phi), math.sin(phi)])
        pairs.append(((x, r), (y, r * (0.5 + 1.5 * v_s))))
    return pairs


def check_G1(eps, pairs) -> DoublingReport:
    """Empirical C0 with C0^-1 eps(x,r) <= eps(y,s) <= C0 eps(x,r).

    eps(x, r) is the ball density under test, called once with the (m, 2)
    centres and (m,) radii of all 2 * len(pairs) balls; a scalar result is
    broadcast, so a constant callable also serves.
    """
    centres = np.array([c for ball_pair in pairs for c, _ in ball_pair], dtype=float)
    radii = np.array([r for ball_pair in pairs for _, r in ball_pair], dtype=float)
    e = np.broadcast_to(eps(centres.reshape(-1, 2), radii), radii.shape).tolist()
    worst = 1.0
    for e1, e2 in zip(e[0::2], e[1::2]):
        if e1 <= 0.0 or e2 <= 0.0:
            if e1 != e2:
                return DoublingReport(math.inf, None, len(pairs),
                                      notes="vanishing density on one ball only")
            continue
        worst = max(worst, e1 / e2, e2 / e1)
    return DoublingReport(worst, None, len(pairs))


def check_G2(eps, balls, swallow_radius) -> DoublingReport:
    """Empirical C0' with sum_k 2^-k eps(x, 2^k r) <= C0' eps(x, r).

    The sum is truncated two scales past the radius that swallows the
    support, where terms of mass-type gauges have stabilized; a geometric
    bound on the remainder (ratio 1/2 per scale) is added.  eps(x, r) is
    called once, with the (m, 2) centres and (m,) radii 2^k r of every
    ball's dilates, ball by ball; the k = 0 term is the base.  A scalar
    result is broadcast.
    """
    truncations = [max(1, int(math.ceil(math.log2(max(swallow_radius / r, 1.0)))) + 2)
                   for _, r in balls]
    counts = [k + 1 for k in truncations]
    centres = np.repeat(np.array([x for x, _ in balls], dtype=float).reshape(-1, 2), counts,
                        axis=0)
    radii = np.array([(2.0 ** k) * r for (_, r), n in zip(balls, counts) for k in range(n)])
    values = np.broadcast_to(eps(centres, radii), radii.shape).tolist()
    worst = 0.0
    k_used = 0
    for k_trunc, end in zip(truncations, np.cumsum(counts).tolist()):
        k_used = max(k_used, k_trunc)
        e = values[end - k_trunc - 1:end]
        total = 0.0
        last = 0.0
        for k, e_k in enumerate(e):
            last = 2.0 ** (-k) * e_k
            total += last
        total += last  # geometric remainder bound: sum_{j>k} <= last
        base = e[0]
        if base <= 0.0:
            return DoublingReport(None, math.inf, len(balls), truncation_k=k_used,
                                  notes="vanishing density at base scale")
        worst = max(worst, total / base)
    return DoublingReport(None, worst, len(balls), truncation_k=k_used)


def check_G2_tree_gauge(gauge, generation, count) -> DoublingReport:
    """G2 proxy for node-keyed gauges along ancestor chains, over the first
    count nodes of a generation.

    Tree balls admit no true dilations; the ancestor ball of radius ratio
    rho_g stands in for the dilate 2^k r with 2^k ~ rho_g, weighted
    accordingly.  Only this chain is checkable for the distorted gauge.  Each
    generation's eps^exponent is read once (``_eps_power``), and a node's
    generation-g ancestor is its index divided by the nodes per ancestor.
    """
    tree, side = gauge.tree, gauge.side
    counts = tree.node_counts
    nodes = np.arange(min(count, counts[generation]))
    log_r = tree.log_radius(side, generation)
    base = gauge._eps_power(generation)[nodes]
    total = base.copy()  # the node's own term, at ratio 1
    for g in range(generation - 1, -1, -1):
        ratio = math.exp(tree.log_radius(side, g) - log_r)  # ~ 2^k
        total += gauge._eps_power(g)[nodes // (counts[generation] // counts[g])] / ratio
    live = base > 0.0
    worst = float(np.max(total[live] / base[live], initial=0.0))
    return DoublingReport(None, worst, len(nodes),
                          notes="ancestor-chain proxy for tree-aligned balls")


# -- h-contents on trees -----------------------------------------------------


@dataclass(frozen=True)
class ContentResult:
    """Tree-aligned h-content: exact optimum over antichain covers.

    cover_size counts the balls of the optimal cover; the DP counts it in the
    same pass as the value.  far_field_bound bounds the relative error of
    value, either sign, that the batched h values carry from their dropped
    and expanded far rings (0 for exact gauges).
    """

    value: float
    cover_size: int
    gauge: str
    far_field_bound: float = 0.0


def _content_dp(tree, h):
    """Bottom-up min-cut DP over per-generation h arrays of the whole tree.

    cost[g] = min(h[g], sum of the children's cost) per node; a node's own
    ball wins ties.  The optimal cover's size is counted in the same loop:
    1 where a node's own ball is taken, else the sum over its children.
    Returns (cost, the root's cover size).
    """
    depth = tree.depth
    cost = [None] * (depth + 1)
    cost[depth] = h[depth]
    size = np.ones(len(h[depth]), dtype=np.int64)
    for g in range(depth - 1, -1, -1):
        m = tree.branching(g + 1)
        child_sum = cost[g + 1].reshape(-1, m).sum(axis=1)
        take = h[g] <= child_sum
        cost[g] = np.where(take, h[g], child_sum)
        size = np.where(take, 1, size.reshape(-1, m).sum(axis=1))
    return cost, int(size[0])


def content_Mh_tree(gauge) -> ContentResult:
    """min over antichain covers of sum h(node ball), by bottom-up DP.

    cost(node) = min(h(node), sum over children of cost); an upper bound for
    the unrestricted content and exact among tree-aligned covers.  The gauge
    supplies everything: its tree, its h arrays (h_values), their far-field
    bound and a description; which side's balls it measures is its own.
    A node gauge's eps is summed only as far as the DP needs it
    (``_cover_h``); every other gauge gives its h_values.  One DP per call.
    """
    h = _cover_h(gauge) if isinstance(gauge, TreeSmoothedDensityGauge) else gauge.h_values()
    cost, cover_size = _content_dp(gauge.tree, h)
    return ContentResult(float(cost[0][0]), cover_size, gauge.description,
                         gauge.far_field_bound())


def _cover_h(gauge):
    """Per generation, h arrays on which ``_content_dp`` returns the cost and
    cover size of the full h_values(), bit for bit, with eps summed ring by
    ring only as far as the DP's decisions and its cover need it.

    Every generation starts from ring 0 (``_h_bracket``, in generation order,
    so that a generation past the doubles is refused as h_values refuses it).
    The DP is run on the lower ends and on the upper ends of the brackets;
    float sums and min are monotone, so any h between the ends gives child
    sums between theirs.  A live node, one below no sure take, takes its own
    ball surely where hi <= its lower child sum and surely not where lo > its
    upper one.  A generation holding an undecided live node gets its next
    ring, until each such node's generation is summed over every ring (lo =
    hi), which ends the loop.  Then the generations holding a sure take are
    summed in full and the others keep their lower ends.  A sure decision
    holds for every h between the ends and an undecided node has its exact
    h, so, up the tree, every live node's cost and decision are those of the
    DP on h_values(); the nodes below a sure take feed no live node's cost.
    """
    tree = gauge.tree
    depth = tree.depth
    m = [tree.branching(g + 1) for g in range(depth)]
    rings = [1] * (depth + 1)
    lo, hi, done = map(list, zip(*(gauge._h_bracket(g, 1) for g in range(depth + 1))))
    while True:
        # each node's child sum in the DP on the lower ends and on the upper ends
        below_lo, below_hi = [None] * depth, [None] * depth
        low, high = lo[depth], hi[depth]
        for g in range(depth - 1, -1, -1):
            below_lo[g] = low.reshape(-1, m[g]).sum(axis=1)
            below_hi[g] = high.reshape(-1, m[g]).sum(axis=1)
            low, high = np.minimum(lo[g], below_lo[g]), np.minimum(hi[g], below_hi[g])
        # top-down over the cover-to-be, the nodes below no sure take
        live, n_live, taken, refine = np.ones(1, dtype=bool), 1, [], []
        for g in range(depth):
            keep = hi[g] > below_lo[g]  # not sure to take its own ball
            if not done[g] and (live & keep & (lo[g] <= below_hi[g])).any():
                refine.append(g)
            live &= keep
            n_kept = np.count_nonzero(live)
            if n_kept < n_live:
                taken.append(g)
            if not n_kept:
                break
            live, n_live = live.repeat(m[g]), n_kept * m[g]
        else:  # every live leaf is in the cover
            taken.append(depth)
        if not refine:
            break
        for g in refine:
            rings[g] += 1
            lo[g], hi[g], done[g] = gauge._h_bracket(g, rings[g])
    for g in taken:
        if not done[g]:
            lo[g] = gauge._h_bracket(g, math.inf)[0]
    return lo


@dataclass(frozen=True)
class FrostmanResult:
    """Max-flow leaf allocation: nu(subtree) <= h(node) for every node.

    far_field_bound is the relative error bound of value, as on ContentResult.
    """

    leaf_weights: np.ndarray
    value: float
    far_field_bound: float = 0.0


def frostman_tree(gauge) -> FrostmanResult:
    """Leaf masses maximizing the total subject to every node's h-constraint.

    On a tree the max flow equals the min cut, i.e. the content DP value,
    so nu(F) matches M^h exactly within the tree-aligned class.
    """
    tree = gauge.tree
    flow = _content_dp(tree, gauge.h_values())[0]
    alloc = np.array([flow[0][0]])
    for g in range(1, tree.depth + 1):
        m = tree.branching(g)
        child = flow[g].reshape(-1, m)
        denom = child.sum(axis=1)
        share = np.where(denom[:, None] > 0, child / np.where(denom[:, None] > 0,
                                                              denom[:, None], 1.0), 0.0)
        alloc = (alloc[:, None] * share).ravel()
    # the flow value is the min cut, i.e. the DP value; the proportional leaf
    # split re-sums to it only up to rounding
    return FrostmanResult(alloc, float(flow[0][0]), gauge.far_field_bound())


def generation_cover_sum(tree, eps_log, generation) -> float:
    """Sum of h over one source generation's balls, divided by the ideal
    generation total prod(M_k R_k^2).

    eps_log(log r) is a radial density and h = r^gamma * eps with the tree's
    distortion exponent gamma = 2/(K+1).  Divided by prod(M_k R_k^2), the
    radius products cancel exactly and the sum telescopes to
    eps(s_N) * prod(d_k)^(2K/(K+1)); the cancellation is done symbolically,
    with no catastrophic log-space subtraction.  The divisor is 1 only when
    M_k R_k^2 = 1; the default trees keep 4e-4/d_k^2 per level.
    """
    eps = float(eps_log(tree.log_radius(SOURCE, generation)))
    K = tree.K
    return eps * math.exp((2.0 * K / (K + 1.0)) * float(tree.cum_log_d[generation]))
