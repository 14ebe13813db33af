"""Randomized differential suite for the GMM scorer.

:class:`~repro.gmm.model.GaussianMixture` scores through its
quadratic-form expansion, summed term by term, with a row-local
cancellation guard.  The triangular solve of
:func:`repro.gmm.linalg.log_gaussian_density` is the oracle.  The
suite randomizes the mixture size (K 1-256), the dimension (D 1-3),
the scale (standardised points, and raw-scale points around 1e7) and
the conditioning (covariance eigenvalues down to 1e-6 of the scale),
and checks three contracts:

* agreement with the oracle -- tight on standardised data, within the
  guard's tolerance at raw scale;
* bit-identical scores whatever the chunking of the scored stream;
* zero-weight components handled as the oracle handles them.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gmm import linalg
from repro.gmm.em import EMTrainer
from repro.gmm.model import _MAHA_GUARD_TOL, GaussianMixture

#: Magnitude of raw-scale (unstandardised) features.
RAW_CENTER = 1e7


def _oracle_weighted(model, points):
    with np.errstate(divide="ignore"):
        log_weights = np.log(model.weights)
    return (
        linalg.log_gaussian_density(
            points, model.means, model.covariances
        )
        + log_weights
    )


def _oracle(model, points):
    return linalg.logsumexp(_oracle_weighted(model, points), axis=1)


def _random_case(seed, k, d, raw, min_eig, n_dead=0, n_points=300):
    """A random mixture and points to score under it."""
    rng = np.random.default_rng(seed)
    center = RAW_CENTER if raw else 0.0
    scale = 10.0 ** rng.uniform(-2.0, 4.0) if raw else 1.0
    weights = rng.random(k) + 1e-3
    weights[rng.permutation(k)[: min(n_dead, k - 1)]] = 0.0
    weights /= weights.sum()
    means = center + scale * rng.standard_normal((k, d))
    rotation, _ = np.linalg.qr(rng.standard_normal((k, d, d)))
    eigen = scale**2 * 10.0 ** rng.uniform(
        np.log10(min_eig), 0.5, size=(k, d)
    )
    covariances = np.einsum(
        "kij,kj,klj->kil", rotation, eigen, rotation
    )
    covariances = 0.5 * (covariances + np.swapaxes(covariances, 1, 2))
    model = GaussianMixture(weights, means, covariances)
    spread = rng.uniform(1.0, 10.0)
    points = center + spread * scale * rng.standard_normal((n_points, d))
    return model, points, rng


case_args = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=256),
    d=st.integers(min_value=1, max_value=3),
    min_eig=st.sampled_from([1e-6, 1e-4, 1e-2, 1.0]),
)


class TestAgreesWithOracle:
    @settings(max_examples=40, deadline=None)
    @given(**case_args)
    # Ill-conditioned at D=3: misses the tolerance when the expansion
    # uses inv()'s unsymmetrised precision.
    @example(seed=189, k=16, d=3, min_eig=1e-6)
    def test_standardised(self, seed, k, d, min_eig):
        model, points, _ = _random_case(seed, k, d, False, min_eig)
        np.testing.assert_allclose(
            model.log_score_samples(points),
            _oracle(model, points),
            rtol=1e-9,
            atol=1e-9,
        )

    @settings(max_examples=40, deadline=None)
    @given(**case_args)
    # Misses the tolerance when the guard's error estimate leaves out
    # the expansion's term count.
    @example(seed=240, k=16, d=3, min_eig=1e-6)
    def test_raw_scale(self, seed, k, d, min_eig):
        # The guard keeps every accepted expansion's Mahalanobis
        # error inside _MAHA_GUARD_TOL, i.e. log-densities inside half
        # of it; the relative term covers the inverted precision's
        # own rounding on very large Mahalanobis values.
        model, points, _ = _random_case(seed, k, d, True, min_eig)
        np.testing.assert_allclose(
            model.log_score_samples(points),
            _oracle(model, points),
            rtol=1e-9,
            atol=0.5 * _MAHA_GUARD_TOL,
        )

    @settings(max_examples=25, deadline=None)
    @given(raw=st.booleans(), n_dead=st.integers(1, 8), **case_args)
    def test_zero_weight_components(
        self, seed, k, d, min_eig, raw, n_dead
    ):
        model, points, _ = _random_case(
            seed, k, d, raw, min_eig, n_dead=n_dead
        )
        weighted = model.log_weighted_densities(points)
        oracle = _oracle_weighted(model, points)
        assert np.array_equal(np.isneginf(weighted), np.isneginf(oracle))
        np.testing.assert_allclose(
            model.log_score_samples(points),
            _oracle(model, points),
            rtol=1e-9,
            atol=0.5 * _MAHA_GUARD_TOL if raw else 1e-9,
        )


class TestChunkInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        raw=st.booleans(),
        n_points=st.integers(min_value=1, max_value=3000),
        n_cuts=st.integers(min_value=0, max_value=12),
        **case_args,
    )
    def test_random_splits_bit_identical(
        self, seed, k, d, min_eig, raw, n_points, n_cuts
    ):
        model, points, rng = _random_case(
            seed, k, d, raw, min_eig, n_points=n_points
        )
        cuts = np.unique(rng.integers(0, n_points + 1, size=n_cuts))
        bounds = [0, *cuts.tolist(), n_points]
        chunked = np.concatenate(
            [
                model.log_score_samples(points[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        )
        assert np.array_equal(chunked, model.log_score_samples(points))

    @settings(max_examples=15, deadline=None)
    @given(**case_args)
    def test_single_rows_bit_identical(self, seed, k, d, min_eig):
        model, points, _ = _random_case(
            seed, k, d, False, min_eig, n_points=20
        )
        rows = np.concatenate(
            [model.log_score_samples(point) for point in points]
        )
        assert np.array_equal(rows, model.log_score_samples(points))

    def test_guard_is_row_local(self):
        # A far-out row trips the guard for itself only: the other
        # rows keep their bits.
        rng = np.random.default_rng(0)
        points = rng.standard_normal((1000, 2))
        model = GaussianMixture(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            np.tile(np.eye(2) * 1e-3, (2, 1, 1)),
        )
        alone = model.log_score_samples(points)
        with_outlier = model.log_score_samples(
            np.vstack([points, [[5e4, 5e4]]])
        )
        assert np.array_equal(with_outlier[:1000], alone)


class TestModelScorer:
    def test_agrees_with_exact_scorer(self):
        rng = np.random.default_rng(0)
        blobs = np.concatenate(
            [
                rng.normal(loc=(i % 3, i // 3), scale=0.35, size=(1500, 2))
                for i in range(6)
            ]
        )
        blobs = (blobs - blobs.mean(axis=0)) / blobs.std(axis=0)
        model = EMTrainer(5, max_iter=30).fit(
            blobs, np.random.default_rng(0)
        ).model
        np.testing.assert_allclose(
            model.log_score_samples(blobs),
            _oracle(model, blobs),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_guard_keeps_raw_scale_exact(self):
        rng = np.random.default_rng(2)
        points = rng.normal(1e7, 1.0, size=(500, 2))
        weights = np.array([0.5, 0.5])
        means = points[:2] + 0.5
        covariances = np.tile(np.eye(2) * 1e-4, (2, 1, 1))
        model = GaussianMixture(weights, means, covariances)
        np.testing.assert_allclose(
            model.log_score_samples(points),
            _oracle(model, points),
            rtol=1e-8,
            atol=1e-6,
        )


def test_scoring_memory_is_bounded():
    """200k points at K=64 peak far below one (N, K) float64 slab."""
    model, _, rng = _random_case(5, 64, 2, False, 1e-2, n_points=1)
    points = rng.standard_normal((200_000, 2))
    slab_bytes = points.shape[0] * model.n_components * 8
    tracemalloc.start()
    try:
        model.log_score_samples(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < slab_bytes / 10
