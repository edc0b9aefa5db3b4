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

from .cantor import SOURCE, TARGET, ConfigError, _check_side
from .measure import _distance_rows, _leaf_sums

#: largest sample_ball_pairs count: its pairs are drawn one at a time
MAX_PAIRS = 1 << 16


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


def psi_a(r, a):
    """Radial kernel 1/(r^(1+a) + 1) of nonnegative radii, elementwise."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"kernel parameter a must be positive and finite, got {a}")
    return _psi(r, a)


class _PsiKernel:
    """psi_a(r / t) with a radius t per row: eps_mu_a's kernel, for the flat
    route and for ``measure._leaf_sums``.

    With s = r / t, p = 1 + a and h = s^p psi = 1 - psi in [0, 1), dh/ds =
    p h psi / s, so by induction psi^(k)(s) = (p / s^k) P_k(h) h psi with

        P_1 = -1,   P_2 = 2 p h - (p - 1),
        P_3 = -6 p^2 h^2 + 6 p (p - 1) h - (p - 1) (p - 2).

    The quadrupole (psi'' Q + psi' / s (tr - Q)) / 2, in units of t, is then
    p h psi / s^2 ((p + 2 - 2 p psi) Q - tr) / 2, as in
    ``CantorRealization._ring_psi_sums``; in absolute units 1 / (s t)^2 is
    1 / u^2.  The third directional derivative of psi(|z|) along a unit
    vector at cosine c to z is psi''' c^3 + 3 c (1 - c^2) (psi'' / s -
    psi' / s^2) = (p / s^3) h psi (P_3 c^3 + 3 c (1 - c^2) (P_2 + 1)).  On
    [0, 1] |P_3| <= 6 p^2 + 6 p (p - 1) + |(p - 1)(p - 2)| and |P_2 + 1| =
    |2 p h - p + 2| <= p + 2, while |c|^3 <= 1 and 3 |c| (1 - c^2) <= 2 / sqrt 3,
    so with h <= 1 the derivative is at most 6 C(p) psi(s) / s^3,

        C(p) = p (6 p^2 + 6 p (p - 1) + |(p - 1)(p - 2)| + 2 (p + 2) / sqrt 3) / 6.

    On the segments from a leaf's centroid to its atoms s >= gap / t > 0,
    where psi(s) / s^3 decreases, so the Lagrange remainder of an atom of
    weight w is at most w C(p) (rho / gap)^3 psi(gap / t).  The leaf's exact
    share is at least W psi((u + rho) / t), and psi(gap / t) /
    psi((u + rho) / t) = (1 + X) / (1 + Y) <= X / Y = ((u + rho) / gap)^p
    for X = ((u + rho) / t)^p >= Y = (gap / t)^p > 0.  The remainder is
    therefore at most a share C(p) x^3 (1 + 2 x)^p, x = rho / gap, of the
    leaf's exact term, for every gap > 0: only a ball centred inside the
    leaf (gap <= 0) needs its atoms.  Past the doubles (a = 1e300) C(p) and
    the share are inf, so every leaf takes its atoms.
    """

    radius = 0.0

    def __init__(self, a, radii):
        p = self.power = 1.0 + a
        self.a, self.radii = a, radii
        self.taylor = p * (6.0 * p * p + 6.0 * p * (p - 1.0) + abs((p - 1.0) * (p - 2.0))
                           + 2.0 * (p + 2.0) / math.sqrt(3.0)) / 6.0

    def atoms(self, d, rows):
        d /= self.radii[rows]
        _psi(d, self.a, inplace=True)

    def expand(self, u, quad, inv, work, leaf_w, trace, rows):
        # W psi + p psi (1 - psi) / u^2 ((p + 2 - 2 p psi) Q - tr) / 2
        p = self.power
        u /= self.radii[rows]
        _psi(u, self.a, inplace=True)
        np.multiply(u, -2.0 * p, out=work)
        work += p + 2.0
        quad *= work
        quad -= trace
        np.subtract(1.0, u, out=work)
        work *= u
        work *= 0.5 * p
        quad *= work
        quad *= inv
        u *= leaf_w
        u += quad
        return u


def eps_mu_a(measure, x, t, a):
    """Smoothed density of a planar measure on the balls B(x, t).

    x is one centre (2,) or many (m, 2), and t a radius or an array of radii
    broadcast against the centres.  One centre and one radius give a float,
    anything else an array of the broadcast shape.  Every ball's value is
    the one a single-ball call gives, bit for bit.

    Without blocks each ball sums psi_a over every atom, n terms; one
    centre's distance row is computed once and shared by its radii.  On a
    measure with blocks (``CantorRealization.measure`` at more than one
    sample per leaf) each ball takes each leaf's monopole plus quadrupole
    about its centroid wherever the ball's centre lies outside the leaf and
    the a-priori third-order remainder (``_PsiKernel``) is at most
    EXPANSION_BUDGET of the leaf's share, and the leaf's atoms otherwise
    (``measure._leaf_sums``): one term per leaf plus the atoms of the near
    (ball, leaf) pairs, each leaf's share within EXPANSION_BUDGET of its
    exact value, relative.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        raise ValueError("radius t must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise ValueError(f"centre x must have shape (2,) or (..., 2), got {x.shape}")
    shape = np.broadcast_shapes(x.shape[:-1], t_arr.shape)
    if x.ndim == 1:
        centres = x  # one centre: its row serves every radius
        radii = t_arr.reshape(-1, 1)
    else:
        centres = np.broadcast_to(x, shape + (2,)).reshape(-1, 2)
        radii = np.broadcast_to(t_arr, shape).reshape(-1, 1)
    kernel = _PsiKernel(a, radii)
    if measure.blocks is None:
        def ball_values(d, lo, hi):
            kernel.atoms(d, slice(lo, hi))
            d *= measure.weights
            return np.sum(d, axis=1)

        out = _distance_rows(measure.points, centres, radii.shape[0], ball_values)
    else:
        out, _ = _leaf_sums(measure, np.broadcast_to(centres, (radii.shape[0], 2)), kernel)
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

    def _eps(self):
        return self.realization.eps_by_generation(self._density_side, self.a)

    def eps_node(self, path):
        eps = self._eps()[len(path)][self.tree.node_index(path)]
        return float(eps) ** self.exponent

    def h_node(self, path):
        t = math.exp(self.tree.log_radius(self.side, len(path)))
        return t ** self.gamma * self.eps_node(path)

    def h_values(self):
        """h over every node of the tree, one array per generation 0..depth."""
        return [math.exp(self.tree.log_radius(self.side, g)) ** self.gamma
                * eps ** self.exponent
                for g, eps in enumerate(self._eps())]

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

    More than MAX_PAIRS pairs are refused before any is drawn.
    """
    if n > MAX_PAIRS:
        raise ConfigError(f"--pairs {n}: at most {MAX_PAIRS} (the pairs are drawn one "
                          "at a time)")
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    pairs = []
    for _ in range(n):
        x = center + spread * rng.uniform(-1.0, 1.0, size=2)
        r = math.exp(rng.uniform(*log_r_range))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        rad = rng.uniform(0.0, 2.0 * r)
        y = x + rad * np.array([math.cos(phi), math.sin(phi)])
        s = r * rng.uniform(0.5, 2.0)
        pairs.append(((x, r), (y, s)))
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


def check_G2_tree_gauge(gauge, paths) -> DoublingReport:
    """G2 proxy for node-keyed gauges along ancestor chains.

    Tree balls admit no true dilations; the ancestor ball of radius ratio
    rho_g stands in for the dilate 2^k r with 2^k ~ rho_g, weighted
    accordingly.  Only this chain is checkable for the distorted gauge.
    """
    tree, side = gauge.tree, gauge.side
    worst = 0.0
    for path in paths:
        d = len(path)
        log_r = tree.log_radius(side, d)
        base = gauge.eps_node(path)
        if base <= 0.0:
            continue
        total = 0.0
        for g in range(d, -1, -1):
            ratio = math.exp(tree.log_radius(side, g) - log_r)  # ~ 2^k
            total += gauge.eps_node(path[:g]) / ratio
        worst = max(worst, total / base)
    return DoublingReport(None, worst, len(paths),
                          notes="ancestor-chain proxy for tree-aligned balls")


# -- h-contents on trees -----------------------------------------------------


@dataclass(frozen=True)
class ContentResult:
    """Tree-aligned h-content: exact optimum over antichain covers.

    far_field_bound bounds the relative error of value, either sign, that the
    batched h values carry from their dropped and expanded far rings (0 for
    exact gauges).
    """

    value: float
    cover: tuple
    gauge: str
    far_field_bound: float = 0.0


def _content_dp(tree, h):
    """Bottom-up min-cut DP over per-generation h arrays of the whole tree.

    cost[g] = min(h[g], sum of the children's cost) per node, and take[g]
    marks the nodes whose own ball is the cheaper choice.
    """
    depth = tree.depth
    cost = [None] * (depth + 1)
    take = [None] * (depth + 1)
    cost[depth] = h[depth]
    take[depth] = np.ones(len(h[depth]), dtype=bool)
    for g in range(depth - 1, -1, -1):
        child_sum = cost[g + 1].reshape(-1, tree.branching(g + 1)).sum(axis=1)
        take[g] = h[g] <= child_sum
        cost[g] = np.where(take[g], h[g], child_sum)
    return cost, take


def content_Mh_tree(gauge) -> ContentResult:
    """min over antichain covers of sum h(node ball), by bottom-up DP.

    cost(node) = min(h(node), sum over children of cost); an upper bound for
    the unrestricted content and exact among tree-aligned covers.  The gauge
    supplies everything: its tree, its h arrays (h_values), their far-field
    bound and a description; which side's balls it measures is its own.
    """
    tree = gauge.tree
    cost, take = _content_dp(tree, gauge.h_values())
    # depth-first, children in order; an explicit stack, since a recursive
    # closure is a reference cycle that keeps the DP arrays alive until a full gc
    cover, stack = [], [(0, 0, ())]
    while stack:
        g, i, path = stack.pop()
        if take[g][i]:
            cover.append(path)
            continue
        m = tree.branching(g + 1)
        stack.extend((g + 1, i * m + j, path + (j,)) for j in reversed(range(m)))
    return ContentResult(float(cost[0][0]), tuple(cover), gauge.description,
                         gauge.far_field_bound())


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
    flow, _ = _content_dp(tree, gauge.h_values())
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
    value = float(flow[0][0])
    return FrostmanResult(alloc, value, gauge.far_field_bound())


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
