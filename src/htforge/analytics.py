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

import numpy as np

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


def extract_features(n: Netlist) -> np.ndarray:
    """Deterministic 32-entry feature vector (order per FEATURE_NAMES)."""
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
    out = np.asarray(vec, dtype=float)
    if out.shape != (FEATURE_DIM,) or not np.isfinite(out).all():
        raise RuntimeError(f"feature vector is not {FEATURE_DIM} finite values")
    return out


# ---------------------------------------------------------------------------
# PCA with a cyclic Jacobi eigensolver

@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray          # (C, D), orthonormal rows
    explained_variance: np.ndarray  # (C,), non-increasing

    @property
    def n_components(self):
        return self.components.shape[0]


def jacobi_eigh(a, tol=1e-12, max_sweeps=100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted.
    """
    a = np.array(a, dtype=float)
    d = a.shape[0]
    v = np.eye(d)
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                off = max(off, abs(apq))
                if abs(apq) <= tol * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta)
                                                 + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
        if off <= tol * scale:
            break
    return np.diag(a).copy(), v


def pca_fit(rows, n_components: int) -> PcaModel:
    """Principal components of the row matrix by covariance eigensolve.

    Components are sorted by explained variance (descending) and signed so
    each one's largest-magnitude entry is positive.  All-identical input
    degenerates to a zero-variance model with a warning.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two feature rows")
    r, d = x.shape
    if not 1 <= n_components <= min(r - 1, d):
        raise ValueError(f"n_components must lie in [1, {min(r - 1, d)}]")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (r - 1)
    if float(np.abs(cov).max()) == 0.0:
        warnings.warn("degenerate input: all rows identical, zero variance")
        comps = np.zeros((n_components, d))
        comps[:, :n_components] = np.eye(n_components)
        return PcaModel(mean, comps, np.zeros(n_components))
    eigvals, eigvecs = jacobi_eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    comps = eigvecs[:, :n_components].T.copy()
    for row in comps:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0:
            row *= -1.0
    return PcaModel(mean, comps, eigvals[:n_components].copy())


def pca_project(model: PcaModel, rows) -> np.ndarray:
    """Coordinates of rows in the component basis: (rows - mean) @ C.T."""
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    if x.shape[1] != model.mean.shape[0]:
        raise ValueError(f"dimension mismatch: rows have {x.shape[1]} entries, "
                         f"model expects {model.mean.shape[0]}")
    return (x - model.mean) @ model.components.T


def scatter_svg(coords, infected_flags, axis_x=0, axis_y=1, size=480) -> str:
    """Minimal SVG scatter: '+' markers for infected rows, '-' for clean."""
    coords = np.asarray(coords, dtype=float)
    xs, ys = coords[:, axis_x], coords[:, axis_y]
    span = max(float(np.abs(xs).max()), float(np.abs(ys).max()), 1e-9)
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


def seek_simulate(n_nodes: int, k: int, hider: str = "uniform",
                  seeker: str = "uniform", trials: int = 10_000,
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
    if hider != "uniform" or seeker != "uniform":
        raise ValueError("only uniform strategies are implemented")
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
