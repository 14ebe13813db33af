"""The Gaussian Mixture Model used as the cache policy's scorer.

Implements Eq. 1-3 of the paper: ``K`` two-dimensional Gaussian
components with full covariances, mixed by normalised weights ``pi_k``.
The mixture density

    G(x) = sum_k pi_k N(x | mu_k, Sigma_k)

is the *score* that predicts the future access frequency of the page
whose (transformed address, transformed timestamp) pair is ``x``.
The class is dimension-generic, but the paper (and this repository's
cache engine) always uses ``n_features == 2``.
"""

from __future__ import annotations

import numpy as np

from repro.gmm import linalg

#: Tolerance for checking that mixture weights sum to one.
_WEIGHT_TOL = 1e-8

#: Absolute tolerance on the Mahalanobis term below which the
#: quadratic-form expansion is accepted; a (point, component) pair
#: whose cancellation error estimate (:func:`quad_coefficients`)
#: exceeds it is rescored through the exact triangular solve.  Trained
#: models on standardised features sit orders of magnitude inside it;
#: raw-scale points far from the origin (errors of order one and far
#: beyond) are caught.  Accepted log-densities stay within 5e-5 of the
#: exact solve, up to the inverted precision's own relative rounding.
_MAHA_GUARD_TOL = 1e-4

#: Element budget of one scoring block's ``(K, rows)`` density slab
#: (2 MB of float64): rows per block shrink as ``K`` grows, so peak
#: memory stays flat however long the scored stream is.
_SCORE_BLOCK_ELEMENTS = 1 << 18


def quad_features(points: np.ndarray) -> np.ndarray:
    """Quadratic feature expansion ``F(x) = [x_i x_j (i <= j), x_i]``.

    Returns shape ``(T + D, N)`` with ``T = D(D+1)/2``: one row per
    feature, in the column order of :func:`quad_coefficients`.
    """
    n, d = points.shape
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    features = np.empty((len(pairs) + d, n), dtype=np.float64)
    for row, (i, j) in enumerate(pairs):
        np.multiply(points[:, i], points[:, j], out=features[row])
    features[len(pairs) :] = points.T
    return features


def quad_coefficients(
    means: np.ndarray, covariances: np.ndarray, log_det: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-component ``(coef, const, reach)`` of the quadratic form.

    The log-density is an affine function of the quadratic features::

        log N(x | mu_k, Sigma_k)  =  coef_k @ F(x) + const_k

    with ``coef_k`` built from the precision ``P_k = Sigma_k^{-1}``.
    The expansion cancels catastrophically when ``|P| * |x - mu|^2``
    terms dwarf the resulting Mahalanobis value (raw-scale points far
    from the origin under near-singular components).  Each of its
    ``T + D + 1`` summands is about ``max|P_k| (|x| + |mu_k|)^2`` in
    magnitude at worst and rounds by ``eps``; ``reach_k`` is the
    largest ``max_i |x_i|`` at which that error estimate stays inside
    :data:`_MAHA_GUARD_TOL`.  Shared by the model's scorer and the
    trainer's fused E-step.
    """
    m, d = means.shape
    precision = np.linalg.inv(covariances)
    # ``inv`` rounds P[i, j] and P[j, i] differently; the expansion
    # needs one symmetric P, or its terms stop cancelling exactly.
    precision = 0.5 * (precision + np.swapaxes(precision, 1, 2))
    pm = np.einsum("kij,kj->ki", precision, means)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    t = len(pairs)
    coef = np.empty((m, t + d), dtype=np.float64)
    for column, (i, j) in enumerate(pairs):
        scale = -0.5 if i == j else -1.0
        coef[:, column] = scale * precision[:, i, j]
    coef[:, t:] = pm
    mu_pm = np.einsum("ki,ki->k", means, pm)
    const = -0.5 * (d * np.log(2.0 * np.pi) + log_det + mu_pm)
    p_max = np.abs(precision).reshape(m, -1).max(axis=1)
    error_scale = (t + d + 1) * np.finfo(np.float64).eps * p_max
    with np.errstate(divide="ignore"):
        reach = np.sqrt(_MAHA_GUARD_TOL / error_scale) - np.abs(
            means
        ).max(axis=1)
    return coef, const, reach


class GaussianMixture:
    """Inference-side Gaussian mixture with fixed parameters.

    Parameters
    ----------
    weights:
        Component weights ``pi_k``, shape ``(K,)``; non-negative, summing
        to one (Sec. 2.3).
    means:
        Component means ``mu_k``, shape ``(K, D)``.
    covariances:
        Component covariances ``Sigma_k``, shape ``(K, D, D)``; each must
        be symmetric positive-definite.

    Notes
    -----
    The constructor validates and *copies* its inputs, then precomputes
    the quadratic-form coefficients (:func:`quad_coefficients`) so that
    scoring is a pure pipelined computation -- mirroring the FPGA
    engine, which loads the weight buffer once and then streams points
    through (Sec. 4.1).  Every score is accumulated term by term in a
    fixed order per (point, component), so a point's score never
    depends on which other points share the call: scoring a stream in
    chunks is bit-identical to scoring it whole.
    """

    def __init__(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> None:
        weights = np.array(weights, dtype=np.float64, copy=True)
        means = np.array(means, dtype=np.float64, copy=True)
        covariances = np.array(covariances, dtype=np.float64, copy=True)
        if weights.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {weights.shape}")
        k = weights.shape[0]
        if means.ndim != 2 or means.shape[0] != k:
            raise ValueError(
                f"means must have shape (K={k}, D), got {means.shape}"
            )
        d = means.shape[1]
        if covariances.shape != (k, d, d):
            raise ValueError(
                f"covariances must have shape ({k}, {d}, {d}),"
                f" got {covariances.shape}"
            )
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        total = float(np.sum(weights))
        if not np.isclose(total, 1.0, atol=_WEIGHT_TOL):
            raise ValueError(f"weights must sum to 1, got {total}")
        self._weights = weights
        self._means = means
        self._covariances = covariances
        self._cholesky = linalg.cholesky_batch(covariances)
        self._log_det = linalg.log_det_from_cholesky(self._cholesky)
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)
        coef, self._log_norm, self._reach = quad_coefficients(
            means, covariances, self._log_det
        )
        # (T + D, K, 1): coefficient row c broadcasts against feature
        # row c of a block, giving (K, rows) terms.
        self._coef = np.ascontiguousarray(coef.T)[:, :, None]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        """Number of Gaussian components ``K``."""
        return self._weights.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality ``D`` of the input points (2 in the paper)."""
        return self._means.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Copy of the mixture weights ``pi``."""
        return self._weights.copy()

    @property
    def means(self) -> np.ndarray:
        """Copy of the component means ``mu``."""
        return self._means.copy()

    @property
    def covariances(self) -> np.ndarray:
        """Copy of the component covariances ``Sigma``."""
        return self._covariances.copy()

    @property
    def parameter_count(self) -> int:
        """Number of free scalar parameters in the mixture.

        ``K - 1`` weights plus ``K * D`` means plus ``K * D(D+1)/2``
        covariance entries.  Used by the FPGA resource model to size the
        on-board weight buffer.
        """
        k, d = self.n_components, self.n_features
        return (k - 1) + k * d + k * (d * (d + 1) // 2)

    def __repr__(self) -> str:
        return (
            f"GaussianMixture(n_components={self.n_components},"
            f" n_features={self.n_features})"
        )

    # ------------------------------------------------------------------
    # Densities and scores
    # ------------------------------------------------------------------
    def _validate_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != self.n_features:
            raise ValueError(
                f"points must have shape (N, {self.n_features}),"
                f" got {points.shape}"
            )
        return points

    def _log_densities(
        self,
        points: np.ndarray,
        with_weights: bool,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-component log-densities of ``points`` as ``(K, N)``.

        ``coef_k @ F(x) + const_k`` summed term by term -- elementwise,
        not a BLAS GEMM, whose kernels round a row differently by its
        position in the call.  The cancellation guard is row-local:
        only (point, component) pairs past the component's reach are
        rescored through the exact triangular solve.  ``with_weights``
        adds ``log pi_k``.  ``scratch`` (at least ``2 K N`` floats)
        backs the result and its temporary, so a blocked caller
        reuses one buffer instead of faulting in fresh pages per
        block.
        """
        n, d = points.shape
        k = self.n_components
        if scratch is None:
            scratch = np.empty(2 * k * n, dtype=np.float64)
        out = scratch[: k * n].reshape(k, n)
        term = scratch[k * n : 2 * k * n].reshape(k, n)
        features = quad_features(points)
        np.multiply(self._coef[0], features[0], out=out)
        for coef, feature in zip(self._coef[1:], features[1:]):
            out += np.multiply(coef, feature, out=term)
        const = self._log_norm
        if with_weights:
            const = const + self._log_weights
        out += const[:, None]
        linear = np.abs(features[-d:])
        if linear.max(initial=0.0) > self._reach.min():
            suspect = linear.max(axis=0) > self._reach[:, None]
            comps = np.nonzero(suspect.any(axis=1))[0]
            rows = np.nonzero(suspect.any(axis=0))[0]
            exact = linalg.log_density_from_cholesky(
                points[rows],
                self._means[comps],
                self._cholesky[comps],
                self._log_det[comps],
            )
            if with_weights:
                exact += self._log_weights[comps]
            cells = np.ix_(comps, rows)
            out[cells] = np.where(suspect[cells], exact.T, out[cells])
        return out

    def log_component_densities(self, points: np.ndarray) -> np.ndarray:
        """``log N(x_n | mu_k, Sigma_k)`` for every point and component.

        Returns shape ``(N, K)``.
        """
        points = self._validate_points(points)
        return self._log_densities(points, with_weights=False).T

    def log_weighted_densities(self, points: np.ndarray) -> np.ndarray:
        """``log pi_k + log N(x_n | mu_k, Sigma_k)``, shape ``(N, K)``.

        The shared intermediate of scoring and responsibilities: its
        row-wise logsumexp is ``log G(x)`` and its row-normalised
        form the posterior.  Exposed so incremental trainers
        (:class:`repro.gmm.online.OnlineGmm`) can derive both from
        one density pass.
        """
        points = self._validate_points(points)
        return self._log_densities(points, with_weights=True).T

    def log_score_samples(self, points: np.ndarray) -> np.ndarray:
        """Log of the mixture density ``log G(x)`` per point (Eq. 3).

        Streams ``points`` through in blocks of bounded ``(K, rows)``
        slabs; no whole-stream ``(N, K)`` array is ever built.
        """
        points = self._validate_points(points)
        n = points.shape[0]
        out = np.empty(n, dtype=np.float64)
        rows = max(1, _SCORE_BLOCK_ELEMENTS // self.n_components)
        scratch = np.empty(
            2 * self.n_components * min(rows, n), dtype=np.float64
        )
        for lo in range(0, n, rows):
            weighted = self._log_densities(
                points[lo : lo + rows], True, scratch
            )
            # logsumexp over components, summed row by row: numpy's
            # axis reduction switches to pairwise summation on a
            # one-point block, which would round differently.
            peak = weighted.max(axis=0)
            safe_peak = np.where(np.isfinite(peak), peak, 0.0)
            weighted -= safe_peak
            np.exp(weighted, out=weighted)
            total = weighted[0].copy()
            for row in weighted[1:]:
                total += row
            with np.errstate(divide="ignore"):
                out[lo : lo + rows] = np.where(
                    np.isfinite(peak), np.log(total) + safe_peak, -np.inf
                )
        return out

    def score_samples(self, points: np.ndarray) -> np.ndarray:
        """Mixture density ``G(x)`` per point -- the paper's cache score.

        Higher scores indicate addresses in denser regions of the learnt
        access distribution, i.e. pages predicted to be accessed more
        frequently (Sec. 3.2).
        """
        return np.exp(self.log_score_samples(points))

    def mean_log_likelihood(self, points: np.ndarray) -> float:
        """Average per-sample log-likelihood of ``points``."""
        return float(np.mean(self.log_score_samples(points)))

    def log_responsibilities(self, points: np.ndarray) -> np.ndarray:
        """Posterior ``log p(k | x_n)`` (Bayes step of Sec. 3.3).

        Returns shape ``(N, K)``; each row log-sums to zero.
        """
        weighted = self.log_weighted_densities(points)
        norm = linalg.logsumexp(weighted, axis=1)
        return weighted - norm[:, None]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Hard component assignment per point, shape ``(N,)``."""
        return np.argmax(self.log_responsibilities(points), axis=1)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(
        self, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` points from the mixture.

        Used by tests (round-tripping EM on known mixtures) and by the
        synthetic trace generators to plant Gaussian spatial clusters.
        """
        if n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {n_samples}")
        counts = rng.multinomial(n_samples, self._weights)
        chunks = []
        for k, count in enumerate(counts):
            if count == 0:
                continue
            noise = rng.standard_normal((count, self.n_features))
            chunks.append(self._means[k] + noise @ self._cholesky[k].T)
        if not chunks:
            return np.empty((0, self.n_features), dtype=np.float64)
        samples = np.concatenate(chunks, axis=0)
        rng.shuffle(samples)
        return samples
