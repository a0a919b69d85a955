"""Circuit feature vectors, from-scratch PCA, trigger-space counting, and
the hide-and-seek game simulator.

The 32-entry feature vector is a fixed, versioned layout (see
FEATURE_NAMES); extraction is a pure function of the netlist.  PCA uses a
cyclic Jacobi eigensolver on the 32x32 covariance (tolerance 1e-12, at most
100 sweeps) so results are deterministic and dependency-free.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

from .analysis import scoap, signal_prob
from .netlist import CONST0, CONST1, Netlist
from .restructure import _is_int

GATE_ORDER = ("BUF", "NOT", "AND", "OR", "XOR", "NAND", "NOR", "XNOR")

FEATURE_NAMES = tuple(
    [f"count_{k.lower()}" for k in GATE_ORDER]
    + [f"frac_{k.lower()}" for k in GATE_ORDER]
    + ["n_pis", "n_pos", "n_nets", "n_gates",
       "depth_max", "depth_mean", "fanout_max", "fanout_mean",
       "rare_frac_005", "sigprob_mean", "sigprob_min",
       "scoap_cc0_mean", "scoap_cc1_mean", "scoap_co_mean",
       "and_fanin_mean", "xor_frac"]
)

FEATURE_DIM = 32
_FEATURE_SAMPLES = 4096   # fixed sampling budget keeps extraction pure
_FEATURE_SEED = 0
_RARE_THETA = 0.05


def extract_features(n: Netlist) -> tuple:
    """Deterministic 32-entry feature vector of Python floats (order per
    FEATURE_NAMES)."""
    counts = {k: 0 for k in GATE_ORDER}
    for g in n.gates:
        counts[g.kind] += 1
    n_gates = len(n.gates)
    vec = [float(counts[k]) for k in GATE_ORDER]
    vec += [counts[k] / n_gates if n_gates else 0.0 for k in GATE_ORDER]
    nets = [net for net in n.nets if net not in (CONST0, CONST1)]
    vec += [float(len(n.inputs)), float(len(n.outputs)),
            float(len(nets)), float(n_gates)]
    depths = n.depth()
    gate_depths = [depths[g.output] for g in n.gates]
    vec += [float(max(gate_depths, default=0)),
            float(sum(gate_depths) / len(gate_depths)) if gate_depths else 0.0]
    fanouts = [len(n.loads.get(net, ())) for net in nets]
    vec += [float(max(fanouts, default=0)),
            float(sum(fanouts) / len(fanouts)) if fanouts else 0.0]
    stats = signal_prob(n, _FEATURE_SAMPLES, _FEATURE_SEED)
    ps = [stats.p[net] for net in nets]
    rare = sum(1 for p in ps if p < _RARE_THETA)
    vec += [rare / len(ps) if ps else 0.0,
            float(sum(ps) / len(ps)) if ps else 0.0,
            float(min(ps, default=0.0))]
    sc = scoap(n)
    vec += [float(sum(sc.cc0[net] for net in nets) / len(nets)) if nets else 0.0,
            float(sum(sc.cc1[net] for net in nets) / len(nets)) if nets else 0.0,
            float(sum(sc.co[net] for net in nets) / len(nets)) if nets else 0.0]
    and_fanins = [len(g.inputs) for g in n.gates if g.kind in ("AND", "NAND")]
    vec += [float(sum(and_fanins) / len(and_fanins)) if and_fanins else 0.0,
            (counts["XOR"] + counts["XNOR"]) / n_gates if n_gates else 0.0]
    out = tuple(vec)
    if len(out) != FEATURE_DIM or not all(map(math.isfinite, out)):
        raise RuntimeError(f"feature vector is not {FEATURE_DIM} finite values")
    return out


# ---------------------------------------------------------------------------
# PCA with a cyclic Jacobi eigensolver

@dataclass
class PcaModel:
    mean: tuple
    components: tuple           # C orthonormal rows of D floats
    explained_variance: tuple   # C floats, non-increasing

    @property
    def n_components(self):
        return len(self.components)


def jacobi_eigh(a, tol=1e-12, max_sweeps=100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted: vecs[i][k] is
    entry i of the eigenvector of eigenvalue k.
    """
    a = [[float(x) for x in row] for row in a]
    d = len(a)
    vt = [[float(i == k) for i in range(d)] for k in range(d)]  # v's columns
    scale = max(1.0, max((abs(x) for row in a for x in row), default=0.0))
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p][q]
                off = max(off, abs(apq))
                if abs(apq) <= tol * scale:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta)
                                                 + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in a:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
                for m in (a, vt):
                    xs, ys = m[p], m[q]
                    m[p] = [c * x - s * y for x, y in zip(xs, ys)]
                    m[q] = [s * x + c * y for x, y in zip(xs, ys)]
        if off <= tol * scale:
            break
    return [a[i][i] for i in range(d)], [list(col) for col in zip(*vt)]


def pca_fit(rows, n_components: int) -> PcaModel:
    """Principal components of the row matrix by covariance eigensolve.

    Components are sorted by explained variance (descending) and signed so
    each one's largest-magnitude entry is positive.  All-identical input
    degenerates to a zero-variance model with a warning.
    """
    x = [tuple(map(float, row)) for row in rows]
    if len(x) < 2:
        raise ValueError("need at least two feature rows")
    r, d = len(x), len(x[0])
    if any(len(row) != d for row in x):
        raise ValueError("feature rows must all have the same length")
    if not all(math.isfinite(v) for row in x for v in row):
        raise ValueError("feature values must be finite")
    if not 1 <= n_components <= min(r - 1, d):
        raise ValueError(f"n_components must lie in [1, {min(r - 1, d)}]")
    mean = tuple(sum(col) / r for col in zip(*x))
    cols = [[v - m for v in col] for col, m in zip(zip(*x), mean)]
    cov = [[sum(u * w for u, w in zip(ci, cj)) / (r - 1) for cj in cols]
           for ci in cols]
    if max(abs(v) for row in cov for v in row) == 0.0:
        warnings.warn("degenerate input: all rows identical, zero variance")
        comps = tuple(tuple(float(i == k) for i in range(d))
                      for k in range(n_components))
        return PcaModel(mean, comps, (0.0,) * n_components)
    eigvals, eigvecs = jacobi_eigh(cov)
    order = sorted(range(d), key=lambda k: -eigvals[k])[:n_components]
    comps = []
    for k in order:
        row = tuple(eigvecs[i][k] for i in range(d))
        comps.append(tuple(-v for v in row) if max(row, key=abs) < 0 else row)
    return PcaModel(mean, tuple(comps),
                    tuple(max(0.0, eigvals[k]) for k in order))


def pca_project(model: PcaModel, rows) -> list:
    """Coordinates of rows in the component basis, one tuple per row:
    (rows - mean) @ C.T."""
    out = []
    for row in rows:
        if len(row) != len(model.mean):
            raise ValueError(f"dimension mismatch: rows have {len(row)} "
                             f"entries, model expects {len(model.mean)}")
        c = [v - m for v, m in zip(row, model.mean)]
        out.append(tuple(sum(u * w for u, w in zip(c, comp))
                         for comp in model.components))
    return out


def scatter_svg(coords, infected_flags, axis_x=0, axis_y=1, size=480) -> str:
    """Minimal SVG scatter: '+' markers for infected rows, '-' for clean."""
    xs = [row[axis_x] for row in coords]
    ys = [row[axis_y] for row in coords]
    span = max(max(map(abs, xs)), max(map(abs, ys)), 1e-9)
    pad = 30

    def sx(v):
        return pad + (v / span + 1.0) * (size - 2 * pad) / 2.0

    def sy(v):
        return size - pad - (v / span + 1.0) * (size - 2 * pad) / 2.0

    rows = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
            f'<line x1="{pad}" y1="{size // 2}" x2="{size - pad}" '
            f'y2="{size // 2}" stroke="#ccc"/>',
            f'<line x1="{size // 2}" y1="{pad}" x2="{size // 2}" '
            f'y2="{size - pad}" stroke="#ccc"/>',
            f'<text x="{size - pad}" y="{size // 2 - 6}" font-size="11" '
            f'text-anchor="end">PC{axis_x + 1}</text>',
            f'<text x="{size // 2 + 6}" y="{pad}" font-size="11">'
            f'PC{axis_y + 1}</text>']
    for (x, y, infected) in zip(xs, ys, infected_flags):
        mark = "+" if infected else "−"
        color = "#c0392b" if infected else "#2471a3"
        rows.append(f'<text x="{sx(x):.1f}" y="{sy(y):.1f}" fill="{color}" '
                    f'font-size="13" text-anchor="middle">{mark}</text>')
    rows.append("</svg>")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# trigger search-space size

@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple   # ((rare_count, regular_count), ...)
    max_width: int      # M >= 2

    def __post_init__(self):
        if not (_is_int(self.max_width)
                and all(_is_int(c) for s in self.strategies for c in s)):
            raise ValueError("rare/regular counts and max_width must be ints")
        if self.max_width < 2:
            raise ValueError("max trigger width M must be >= 2")
        for r, g in self.strategies:
            if r < 0 or g < 0:
                raise ValueError("rare/regular counts must be non-negative")
        object.__setattr__(self, "strategies",
                           tuple((r, g) for r, g in self.strategies))


def ht_space_size(profile: StrategyProfile) -> int:
    """Number of (width, rare-split, strategy) trigger choices:
    sum over q=2..M, p=0..q, strategies i of C(r_i, p) * C(g_i, q-p).

    Exact integer arithmetic; a structural upper bound (triggers shared
    between strategies are counted once per strategy).
    """
    total = 0
    for q in range(2, profile.max_width + 1):
        for p in range(0, q + 1):
            for r, g in profile.strategies:
                total += math.comb(r, p) * math.comb(g, q - p)
    return total


# ---------------------------------------------------------------------------
# hide-and-seek game simulation

@dataclass
class SeekResult:
    mean: float
    histogram: dict     # L -> trial count
    trials: int
    n_nodes: int
    k: int
    budget: int
    k_zero_policy: str = "charged-full-budget"


def seek_simulate(n_nodes: int, k: int, trials: int = 10_000,
                  seed: int = 0, budget: int = None) -> SeekResult:
    """Play the hiding game: the hider places k objects on n nodes
    (uniform, no replacement), the seeker queries nodes in a uniform random
    order at unit cost, and L is the query count when the last object is
    found.  With k=0 the whole budget is charged (the seeker cannot know
    there is nothing to find); unfound objects within the budget also cost
    the full budget.
    """
    if not 0 <= k <= n_nodes:
        raise ValueError("k must lie in [0, n_nodes]")
    if budget is None:
        budget = n_nodes
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    hist = {}
    total = 0
    nodes = list(range(n_nodes))
    for _ in range(trials):
        if k == 0:
            length = budget
        else:
            hidden = set(rng.sample(nodes, k))
            order = rng.sample(nodes, n_nodes)
            remaining = k
            length = budget
            for pos, node in enumerate(order[:budget], start=1):
                if node in hidden:
                    remaining -= 1
                    if remaining == 0:
                        length = pos
                        break
        hist[length] = hist.get(length, 0) + 1
        total += length
    return SeekResult(total / trials, dict(sorted(hist.items())), trials,
                      n_nodes, k, budget)


def expected_seek_length(n_nodes: int, k: int):
    """Exact E[L] for uniform hider and seeker with full budget:
    k*(n+1)/(k+1), from the expected maximum of k uniform positions."""
    if not 1 <= k <= n_nodes:
        raise ValueError("k must lie in [1, n_nodes]")
    from fractions import Fraction
    return Fraction(k * (n_nodes + 1), k + 1)
