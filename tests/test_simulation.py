"""Reward synthesis from batch data: weights, radii, and distribution match."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import banditsim.simulation as simulation
from banditsim.estimators import min_eigenvalue
from banditsim.simulation import (
    SIM_CHUNK,
    SIM_TILE,
    InsufficientDiversityError,
    RadiusError,
    SimulationWeights,
    simulate_reward_many,
    simulation_weights,
)
from banditsim.rng import Purpose, stream
from oracles import chunked_simulated_rewards


class TestSimulationWeights:
    def test_identity_batch_basis_target(self):
        w = simulation_weights(np.eye(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(w.w, [1.0, 0.0])
        assert w.residual_var == 0.0

    def test_identity_batch_unit_target(self):
        x = np.array([0.6, 0.8])
        w = simulation_weights(np.eye(2), x)
        np.testing.assert_allclose(w.w, x)
        assert w.residual_var == 0.0  # ||w|| = 1 exactly, clamp keeps it at 0

    def test_scaled_batch_partial_weight(self):
        X = np.array([[2.0, 0.0], [0.0, 2.0]])
        w = simulation_weights(X, np.array([1.0, 0.0]))
        np.testing.assert_allclose(w.w, [0.5, 0.0])
        assert w.residual_var == pytest.approx(0.75)

    def test_weight_norm_matches_quadratic_form(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            X = rng.normal(size=(20, 3))
            Z = X.T @ X
            x = 0.5 * np.sqrt(min_eigenvalue(0.5 * (Z + Z.T))) * rng.normal(size=3)
            x /= max(1.0, np.linalg.norm(x))
            w = simulation_weights(X, x)
            quad = float(x @ np.linalg.solve(Z, x))
            assert float(w.w @ w.w) == pytest.approx(quad, abs=1e-9)

    def test_in_radius_targets_have_nonnegative_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            X = rng.normal(size=(30, 2))
            lam = min_eigenvalue(X.T @ X)
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            x = rng.random() * np.sqrt(lam) * direction
            assert simulation_weights(X, x).residual_var >= 0.0

    def test_singular_batch_rejected(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(InsufficientDiversityError):
            simulation_weights(X, np.array([0.5, 0.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            simulation_weights(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            simulation_weights(np.eye(2), np.zeros(3))


class TestSimulateReward:
    def test_zero_residual_reproduces_weighted_sum(self):
        w = simulation_weights(np.eye(2), np.array([1.0, 0.0]))
        means = np.array([0.7, -0.3])
        rng = np.random.default_rng(2)
        ref = np.random.default_rng(2)
        expected = (means + ref.standard_normal((3, 2)))[:, 0]
        np.testing.assert_array_equal(simulate_reward_many(w, means, 3, rng), expected)
        # No top-up noise is drawn at zero residual variance.
        assert rng.random() == ref.random()

    def test_out_of_radius_rejected(self):
        # Target norm exceeds the diversity radius: residual variance < 0.
        w = simulation_weights(np.eye(2), np.array([2.0, 0.0]))
        assert w.residual_var < 0.0
        with pytest.raises(RadiusError):
            simulate_reward_many(w, np.zeros(2), 5, np.random.default_rng(0))

    def test_reward_length_checked(self):
        w = simulation_weights(np.eye(2), np.array([1.0, 0.0]))
        assert w.batch_length == 2
        with pytest.raises(ValueError):
            simulate_reward_many(w, np.zeros(3), 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate_reward_many(w, np.zeros((5, 2)), 5, np.random.default_rng(0))

    def test_mean_matches_target(self):
        # E[w . r] = w . X theta = x . theta when rewards are unbiased.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        theta = np.array([0.3, -0.6])
        x = np.array([0.4, 0.2])
        w = simulation_weights(X, x)
        n = 100_000
        draws = simulate_reward_many(w, X @ theta, n, rng)
        assert draws.mean() == pytest.approx(float(x @ theta), abs=3 / np.sqrt(n))

    def test_distribution_matches_direct_sampling(self):
        # Synthesized rewards and direct N(x . theta, 1) draws should be
        # indistinguishable to a two-sample KS test at the 1% level.
        rng = stream(424242, 0, Purpose.SIMULATION)
        X = rng.normal(0.0, 1.0, size=(300, 2))
        theta = np.array([0.7, -0.4])
        lam = min_eigenvalue(X.T @ X)
        x = 0.8 * np.sqrt(lam) * np.array([0.6, 0.8])
        w = simulation_weights(X, x)
        assert float(np.linalg.norm(w.w)) <= 1.0
        n = 100_000
        synthesized = simulate_reward_many(w, X @ theta, n, rng)
        direct = float(x @ theta) + rng.standard_normal(n)
        result = sps.ks_2samp(synthesized, direct)
        assert result.pvalue > 0.01

    def test_batch_length_property(self):
        assert SimulationWeights(np.zeros(7), 1.0).batch_length == 7


def _weights(y: int, residual: float) -> tuple:
    """Weights of squared norm ``1 - residual`` over ``y`` batch rewards, and batch means."""
    g = np.random.default_rng(y)
    w = g.normal(size=y)
    w *= np.sqrt(1.0 - residual) / np.linalg.norm(w)
    return SimulationWeights(w, residual), g.normal(0.0, 0.5, size=y)


class TestStreamingMatchesChunkedDraws:
    """The tiled stream against whole stretches of ``SIM_CHUNK`` rows, bit for bit."""

    @pytest.mark.parametrize("residual", [0.0, 0.35])
    @pytest.mark.parametrize("y", [2, 300, 1000])
    @pytest.mark.parametrize(
        "n", [1, 10, SIM_TILE - 1, SIM_TILE, SIM_TILE + 1, SIM_CHUNK + SIM_TILE + 3, 25_000]
    )
    def test_equals_oracle(self, n, y, residual):
        weights, means = _weights(y, residual)
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = simulate_reward_many(weights, means, n, rng)
        assert got.shape == (n,)
        assert got.tolist() == chunked_simulated_rewards(weights, means, n, ref).tolist()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("y", [7, 300, 1000])
    @pytest.mark.parametrize("tile", [1, 3, 64, 513, 1024])
    def test_tile_moves_no_byte(self, monkeypatch, tile, y):
        weights, means = _weights(y, 0.35)
        n = 2 * SIM_CHUNK + tile + 1
        expected = simulate_reward_many(weights, means, n, np.random.default_rng(4))
        monkeypatch.setattr(simulation, "SIM_TILE", tile)
        got = simulate_reward_many(weights, means, n, np.random.default_rng(4))
        assert got.tolist() == expected.tolist()

    def test_no_draws_for_no_rewards(self):
        weights, means = _weights(300, 0.35)
        rng = np.random.default_rng(6)
        assert simulate_reward_many(weights, means, 0, rng).shape == (0,)
        assert rng.random() == np.random.default_rng(6).random()

    def test_memory_stays_within_one_tile(self):
        # The chunked oracle peaks near 69 MiB here: two 10 000 x 300 arrays
        # per stretch.  NumPy reports its buffers to tracemalloc.
        weights, means = _weights(300, 0.35)
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            simulate_reward_many(weights, means, 20_000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# Prints one md5 of simulated rewards per (Y, n, seed); the weights and means
# are those of ``_weights``.  The batches are wide enough for OpenBLAS to split
# a tile's matrix-vector product over threads, so a product that went through
# BLAS would change bits between 1 and 2 threads.
_THREAD_PROBE = """
import hashlib
import numpy as np
from banditsim.simulation import SimulationWeights, simulate_reward_many
for y, n in ((1000, 470), (1000, 10_470), (2000, 300)):
    g = np.random.default_rng(y)
    w = g.normal(size=y)
    w *= np.sqrt(0.65) / np.linalg.norm(w)
    weights, means = SimulationWeights(w, 0.35), g.normal(0.0, 0.5, size=y)
    for seed in range(3):
        sims = simulate_reward_many(weights, means, n, np.random.default_rng(seed))
        print(y, n, seed, hashlib.md5(sims.tobytes()).hexdigest())
"""


class TestBlasThreads:
    def test_rewards_do_not_depend_on_blas_thread_count(self):
        # The thread count is read when NumPy loads, so each count runs in a
        # fresh interpreter.
        src = str(Path(simulation.__file__).resolve().parents[1])
        listings = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True,
                                 text=True, check=True, timeout=120)
            listings.append(out.stdout.splitlines())
        assert len(listings[0]) == 9
        assert listings[0] == listings[1]
