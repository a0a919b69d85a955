import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from htforge.analytics import (
    FEATURE_DIM,
    FEATURE_NAMES,
    PcaModel,
    StrategyProfile,
    expected_seek_length,
    extract_features,
    ht_space_size,
    jacobi_eigh,
    pca_fit,
    pca_project,
    scatter_svg,
    seek_simulate,
)
from htforge.aig import from_aig, strash, to_aig
from htforge.netlist import Gate, Netlist, parse_netlist

from conftest import random_netlist


# ---------------------------------------------------------------------------
# features

def test_feature_layout():
    assert len(FEATURE_NAMES) == FEATURE_DIM == 32
    assert len(set(FEATURE_NAMES)) == 32


def test_features_full_adder(full_adder):
    v = extract_features(full_adder)
    f = dict(zip(FEATURE_NAMES, v))
    assert f["count_and"] == 2 and f["count_xor"] == 2 and f["count_or"] == 1
    assert f["n_pis"] == 3 and f["n_pos"] == 2
    assert f["n_gates"] == 5
    assert f["xor_frac"] == pytest.approx(2 / 5)


def test_features_buf_only():
    n = Netlist("p", ("a",), ("y",), (Gate("BUF", "y", ("a",), "g0"),))
    f = dict(zip(FEATURE_NAMES, extract_features(n)))
    assert f["count_buf"] == 1 and f["depth_max"] == 1
    for k in ("count_and", "count_or", "count_xor", "count_not",
              "count_nand", "count_nor", "count_xnor"):
        assert f[k] == 0


def test_features_interface_stable_under_strash(full_adder):
    rebuilt = from_aig(strash(to_aig(full_adder)))
    a = dict(zip(FEATURE_NAMES, extract_features(full_adder)))
    b = dict(zip(FEATURE_NAMES, extract_features(rebuilt)))
    for k in ("n_pis", "n_pos"):
        assert a[k] == b[k]


def test_features_deterministic():
    n = random_netlist(12)
    assert np.array_equal(extract_features(n), extract_features(n))


# ---------------------------------------------------------------------------
# PCA

def test_pca_collinear_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    model = pca_fit(pts, 2)
    expected = np.array([1.0, 1.0]) / math.sqrt(2)
    assert np.allclose(model.components[0], expected, atol=1e-9)
    assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)


def test_pca_isotropic_matches_numpy_oracle():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    model = pca_fit(pts, 2)
    cov = np.cov(pts.T)
    oracle_vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(np.sort(model.explained_variance)[::-1], oracle_vals,
                       atol=1e-12)
    assert model.explained_variance[0] == pytest.approx(
        model.explained_variance[1], abs=1e-12)


def test_pca_rank2_synthetic_d32():
    rng = np.random.default_rng(0)
    u = rng.normal(size=32)
    v = rng.normal(size=32)
    coef = rng.normal(size=(40, 2))
    rows = coef[:, :1] * u + coef[:, 1:] * v
    model = pca_fit(rows, 8)
    assert np.all(np.array(model.explained_variance[2:]) < 1e-9)


def test_pca_orthonormal_components():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(50, 32))
    model = pca_fit(rows, 6)
    comps = np.array(model.components)
    g = comps @ comps.T
    assert np.allclose(g, np.eye(6), atol=1e-9)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_pca_sign_convention():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(30, 8))
    model = pca_fit(rows, 4)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_projection_contracts():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(40, 16))
    model = pca_fit(rows, 5)
    mean = np.array(model.mean)
    assert np.allclose(pca_project(model, mean[None, :]), 0.0,
                       atol=1e-12)
    pt = mean + 2.0 * np.array(model.components[0])
    coords = pca_project(model, pt[None, :])[0]
    assert coords[0] == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(coords[1:], 0.0, atol=1e-9)
    # projected covariance is diagonal with the explained variances
    proj = np.array(pca_project(model, rows))
    cov = proj.T @ proj / (rows.shape[0] - 1)
    assert np.allclose(cov, np.diag(model.explained_variance), atol=1e-8)


def test_pca_reconstruction_full_rank():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(20, 6))
    model = pca_fit(rows, 6)
    proj = np.array(pca_project(model, rows))
    back = proj @ np.array(model.components) + np.array(model.mean)
    assert np.allclose(back, rows, atol=1e-8)


def test_pca_degenerate_rows_warn():
    rows = np.ones((5, 4))
    with pytest.warns(UserWarning, match="degenerate"):
        model = pca_fit(rows, 2)
    assert np.all(np.array(model.explained_variance) == 0)


def test_pca_validates_shapes():
    with pytest.raises(ValueError):
        pca_fit(np.zeros((1, 4)), 1)
    with pytest.raises(ValueError):
        pca_fit(np.zeros((5, 4)), 5)
    model = pca_fit(np.random.default_rng(5).normal(size=(6, 4)), 2)
    with pytest.raises(ValueError):
        pca_project(model, np.zeros((2, 7)))


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(6)
    for d in (4, 8, 32):
        m = rng.normal(size=(d, d))
        sym = (m + m.T) / 2
        vals, vecs = jacobi_eigh(sym)
        vecs = np.array(vecs)
        order = np.argsort(vals)
        oracle = np.linalg.eigvalsh(sym)
        assert np.allclose(np.array(vals)[order], oracle, atol=1e-9)
        assert np.allclose(vecs @ vecs.T, np.eye(d), atol=1e-9)
        # eigen equation holds
        for k in range(d):
            assert np.allclose(sym @ vecs[:, k], vals[k] * vecs[:, k],
                               atol=1e-8)


def test_scatter_svg_shape():
    svg = scatter_svg(np.array([[1.0, 2.0], [-1.0, 0.5]]), [True, False])
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("+") >= 1 and "−" in svg


# ---------------------------------------------------------------------------
# analytics on the acceptance set

# sha256 over one "id,hex,...,hex" line per circuit, each feature written
# with float.hex, so that a feature which moves by one bit shows
ACCEPTANCE_FEATURE_DIGEST = (
    "6896e63f3ca4f0f3d6f95c1553bbedce9850a3a86bf2bb2bd59545bc6223175b")


@pytest.fixture(scope="module")
def acceptance_features(acceptance_entries):
    return [(eid, extract_features(parse_netlist(text)))
            for eid, text in acceptance_entries]


def test_acceptance_feature_vectors_pinned(acceptance_features):
    assert all(type(vec) is tuple and all(type(v) is float for v in vec)
               for _, vec in acceptance_features)
    text = "".join(eid + "," + ",".join(map(float.hex, vec)) + "\n"
                   for eid, vec in acceptance_features)
    assert hashlib.sha256(text.encode()).hexdigest() == ACCEPTANCE_FEATURE_DIGEST


def _reference_pca(rows, n_components):
    """The same cyclic Jacobi PCA written with numpy column slices."""
    x = np.asarray(rows, dtype=float)
    centered = x - x.mean(axis=0)
    a = centered.T @ centered / (len(x) - 1)
    d = a.shape[0]
    v = np.eye(d)
    stop = 1e-12 * max(1.0, float(np.abs(a).max()))
    for _ in range(100):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                off = max(off, abs(apq))
                if abs(apq) <= stop:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta)
                                                 + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                a[:, p], a[:, q] = c * a[:, p] - s * a[:, q], s * a[:, p] + c * a[:, q]
                a[p, :], a[q, :] = c * a[p, :] - s * a[q, :], s * a[p, :] + c * a[q, :]
                v[:, p], v[:, q] = c * v[:, p] - s * v[:, q], s * v[:, p] + c * v[:, q]
        if off <= stop:
            break
    vals = np.diag(a)
    order = np.argsort(-vals, kind="stable")[:n_components]
    return np.clip(vals[order], 0.0, None), _signed(v[:, order].T)


def _signed(comps):
    """Each row flipped so that its largest-magnitude entry is positive."""
    return np.array([c if c[np.argmax(np.abs(c))] > 0 else -c for c in comps])


def test_pca_on_acceptance_features_matches_numpy(acceptance_features):
    rows = [vec for _, vec in acceptance_features]
    model = pca_fit(rows, FEATURE_DIM)
    vals, comps = _reference_pca(rows, FEATURE_DIM)
    assert np.allclose(model.explained_variance, vals, rtol=1e-9, atol=1e-9)
    assert np.abs(np.array(model.components) - comps).max() <= 1e-9
    # LAPACK agrees where the covariance fixes the answer.  Jacobi stops once
    # every off-diagonal entry is below 1e-12 of the largest one (about 9e13
    # here, from the SCOAP means), which pins only the components whose
    # eigen-gap dwarfs that: PC1 and PC2 on this set.
    w, vecs = np.linalg.eigh(np.cov(np.array(rows).T))
    top = np.argsort(-w, kind="stable")[:2]
    assert np.allclose(model.explained_variance[:2], w[top], rtol=1e-9, atol=0)
    assert np.abs(np.array(model.components[:2])
                  - _signed(vecs[:, top].T)).max() <= 1e-9


def _full_matrix_pca(rows, n_components):
    """pca_fit as a solve of the covariance over every feature, zero-variance
    ones included: the reference that solving only the features that vary
    must equal bit for bit."""
    x = [tuple(map(float, row)) for row in rows]
    r, d = len(x), len(x[0])
    mean = tuple(sum(col) / r for col in zip(*x))
    cols = [[v - m for v in col] for col, m in zip(zip(*x), mean)]
    cov = [[sum(u * w for u, w in zip(ci, cj)) / (r - 1) for cj in cols]
           for ci in cols]
    if max(abs(v) for row in cov for v in row) == 0.0:
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


def _rows_with_constant_columns(rng):
    """Rows of up to 32 features at scales 1e-3 to 1e7, 0-20 of them
    constant: some exactly zero once centred, some off by a rounding."""
    d = rng.choice((5, 12, 32))
    r = rng.randint(3, 24)
    dead = set(rng.sample(range(d), rng.randint(0, min(20, d - 1))))
    cols = []
    for i in range(d):
        scale = 10.0 ** rng.uniform(-3, 7)
        if i in dead:
            v = rng.choice((0.0, -0.0, 1.0, 3.0, 2.0 ** -9, 0.1, rng.random()))
            cols.append([v * scale] * r)
        else:
            cols.append([rng.gauss(0, 1) * scale for _ in range(r)])
    return [list(row) for row in zip(*cols)]


def test_pca_fit_equals_the_full_matrix_solve(acceptance_features):
    # repr keeps the sign of a zero, so a -0.0 that moves shows
    cases = [[vec for _, vec in acceptance_features]]
    rng = random.Random(20)
    cases += [_rows_with_constant_columns(rng) for _ in range(30)]
    for rows in cases:
        for c in sorted({1, 2, min(len(rows) - 1, len(rows[0]))}):
            assert repr(pca_fit(rows, c)) == repr(_full_matrix_pca(rows, c))
    for rows in ([[3.0] * 6] * 4, [[0.0, -0.0, 2.0 ** 40, 2.0 ** -30]] * 9):
        with pytest.warns(UserWarning, match="degenerate"):
            model = pca_fit(rows, 2)
        assert repr(model) == repr(_full_matrix_pca(rows, 2))


# ---------------------------------------------------------------------------
# trigger space size

def brute_space_size(profile):
    """Oracle: explicitly enumerate labeled-net subsets per strategy/width."""
    total = 0
    for q in range(2, profile.max_width + 1):
        for r, g in profile.strategies:
            nets = [("r", i) for i in range(r)] + [("g", i) for i in range(g)]
            for combo in itertools.combinations(nets, q):
                total += 1
    return total


def test_space_size_examples():
    assert ht_space_size(StrategyProfile(((3, 2),), 2)) == 10
    assert brute_space_size(StrategyProfile(((3, 2),), 2)) == 10
    assert ht_space_size(StrategyProfile(((3, 2),), 3)) == 20
    assert brute_space_size(StrategyProfile(((3, 2),), 3)) == 20
    assert ht_space_size(StrategyProfile(((0, 0),), 5)) == 0


def test_space_size_matches_brute_force_grid():
    for r in range(0, 8):
        for g in range(0, 8 - r):
            for m in (2, 3, 4):
                p = StrategyProfile(((r, g),), m)
                assert ht_space_size(p) == brute_space_size(p), (r, g, m)


def test_space_size_multi_strategy():
    p = StrategyProfile(((3, 2), (1, 4), (0, 6)), 3)
    assert ht_space_size(p) == brute_space_size(p)


def test_space_size_vandermonde():
    for r in range(0, 10):
        for g in range(0, 10 - r):
            for q in range(2, 6):
                inner = sum(math.comb(r, p) * math.comb(g, q - p)
                            for p in range(0, q + 1))
                assert inner == math.comb(r + g, q)


def test_space_size_validation():
    with pytest.raises(ValueError):
        StrategyProfile(((1, 2),), 1)
    with pytest.raises(ValueError):
        StrategyProfile(((-1, 2),), 2)


@pytest.mark.parametrize("strategies, max_width, message", [
    pytest.param(((2.7, 1),), 3, "strategies[0][0] must be an int, got 2.7",
                 id="fractional-count"),
    pytest.param(((2, 1),), 3.5, "max_width must be an int, got 3.5",
                 id="fractional-max-width"),
    pytest.param(((True, 1),), 3, "strategies[0][0] must be an int, got True",
                 id="bool-count"),
    pytest.param(((2, 1),), True, "max_width must be an int, got True",
                 id="bool-max-width"),
])
def test_strategy_profile_rejects_non_int(strategies, max_width, message):
    # an int() would turn 2.7 into 2, and a float width fails only later
    with pytest.raises(ValueError) as info:
        StrategyProfile(strategies, max_width)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# hide-and-seek game

def brute_expected_length(n, k):
    """Oracle: exact E[L] over all hiding sets and seeker permutations."""
    total = Fraction(0)
    count = 0
    for hidden in itertools.combinations(range(n), k):
        hidden = set(hidden)
        for perm in itertools.permutations(range(n)):
            remaining = set(hidden)
            for pos, node in enumerate(perm, start=1):
                remaining.discard(node)
                if not remaining:
                    total += pos
                    break
            count += 1
    return total / count


def test_expected_length_matches_brute_force():
    for n in range(1, 7):
        for k in range(1, n + 1):
            exact = expected_seek_length(n, k)
            brute = brute_expected_length(n, k)
            assert abs(float(exact) - float(brute)) < 1e-12, (n, k)


def test_seek_simulate_k_zero_charges_budget():
    res = seek_simulate(20, 0, trials=50, seed=1, budget=7)
    assert res.mean == 7.0
    assert res.histogram == {7: 50}
    assert res.k_zero_policy == "charged-full-budget"


def test_seek_simulate_k_equals_n():
    res = seek_simulate(9, 9, trials=40, seed=2)
    assert res.mean == 9.0
    assert res.histogram == {9: 40}


def test_seek_simulate_deterministic():
    a = seek_simulate(50, 2, trials=500, seed=3)
    b = seek_simulate(50, 2, trials=500, seed=3)
    assert a.mean == b.mean and a.histogram == b.histogram


def test_seek_simulate_mean_within_standard_error():
    rng = random.Random(0)
    for _ in range(3):
        n = rng.randrange(10, 60)
        k = rng.randrange(1, 4)
        trials = 4000
        res = seek_simulate(n, k, trials=trials, seed=rng.randrange(1000))
        mu = float(expected_seek_length(n, k))
        # variance of L is bounded by n^2/4; 3 standard errors
        se = (n / 2) / math.sqrt(trials)
        assert abs(res.mean - mu) <= 3 * se + 1.0


def test_seek_simulate_validation():
    with pytest.raises(ValueError):
        seek_simulate(5, 6, trials=1)
    with pytest.raises(ValueError):
        seek_simulate(5, 1, trials=1, budget=0)
