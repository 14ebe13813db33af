"""Incremental (online) GMM training -- stepwise EM.

The paper trains its GMM offline on a collected trace and freezes the
parameters in the FPGA weight buffer.  Real deployments face *drift*:
the access pattern changes when the workload mix shifts.  This module
implements the natural extension -- stepwise EM (Cappe & Moulines,
2009): the model keeps exponentially-forgotten sufficient statistics
and blends in each new mini-batch, so the mixture tracks the live
trace with bounded memory.  On hardware this is a periodic weight-
buffer refresh, no pipeline change.

Usage::

    online = OnlineGmm.from_model(initial_model)
    for batch in stream_of_feature_batches:
        online.update(batch, rng)
    scores = online.model.score_samples(points)
"""

from __future__ import annotations

import numpy as np

from repro.gmm import linalg
from repro.gmm.model import GaussianMixture


class OnlineGmm:
    """Stepwise-EM wrapper around a :class:`GaussianMixture`.

    Parameters
    ----------
    weights, means, covariances:
        Initial mixture parameters (typically from a batch EM fit on a
        warm-up trace).
    step_exponent:
        Learning-rate schedule ``rho_t = (t + t0) ** -step_exponent``;
        must lie in (0.5, 1] for stepwise-EM convergence guarantees.
        Smaller values adapt faster (more weight on new data).
    t0:
        Learning-rate offset; larger values damp early updates.
    reg_covar:
        Diagonal ridge applied after every parameter refresh.
    """

    def __init__(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        step_exponent: float = 0.7,
        t0: float = 2.0,
        reg_covar: float = 1e-6,
    ) -> None:
        if not 0.5 < step_exponent <= 1.0:
            raise ValueError("step_exponent must be in (0.5, 1]")
        if t0 <= 0:
            raise ValueError("t0 must be positive")
        self.step_exponent = step_exponent
        self.t0 = t0
        self.reg_covar = reg_covar
        self._model = GaussianMixture(weights, means, covariances)
        k, d = self._model.n_components, self._model.n_features
        # Normalised sufficient statistics (per-sample expectations):
        # s0[k] = E[r_k], s1[k] = E[r_k x], s2[k] = E[r_k x x^T].
        self._s0 = np.array(weights, dtype=np.float64)
        self._s1 = self._s0[:, None] * np.asarray(means, np.float64)
        covs = np.asarray(covariances, dtype=np.float64)
        mom2 = covs + np.einsum("ki,kj->kij", means, means)
        self._s2 = self._s0[:, None, None] * mom2
        self._step = 0

    @classmethod
    def from_model(cls, model: GaussianMixture, **kwargs) -> "OnlineGmm":
        """Wrap an existing mixture for incremental updates."""
        return cls(
            model.weights, model.means, model.covariances, **kwargs
        )

    @property
    def model(self) -> GaussianMixture:
        """The current mixture (rebuild after each update)."""
        return self._model

    @property
    def updates_applied(self) -> int:
        """Number of mini-batch updates performed."""
        return self._step

    def _learning_rate(self) -> float:
        return float(
            (self._step + self.t0) ** (-self.step_exponent)
        )

    def update(self, points: np.ndarray) -> float:
        """Blend one mini-batch into the model; returns its mean ll.

        E-step under the current parameters, then a stepwise blend of
        the batch's sufficient statistics into the running ones, then
        a parameter refresh (the M-step applied to blended stats).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self._model.n_features:
            raise ValueError(
                f"points must have shape (N, {self._model.n_features})"
            )
        if points.shape[0] == 0:
            raise ValueError("batch must not be empty")
        # One density pass serves both the responsibilities and the
        # batch log-likelihood (its normaliser *is* the per-sample
        # log-score).
        weighted = self._model.log_weighted_densities(points)
        log_norm = linalg.logsumexp(weighted, axis=1)
        resp = np.exp(weighted - log_norm[:, None])
        batch_ll = float(np.mean(log_norm))
        n, d = points.shape
        batch_s0 = resp.sum(axis=0) / n
        batch_s1 = (resp.T @ points) / n
        # All K second-moment matrices from one GEMM over per-sample
        # outer products (replaces an O(N K D^2) einsum with a far
        # better-tuned matrix product).
        moment_matrix = (
            points[:, :, None] * points[:, None, :]
        ).reshape(n, d * d)
        batch_s2 = (resp.T @ moment_matrix).reshape(-1, d, d) / n
        self._step += 1
        rho = self._learning_rate()
        self._s0 = (1 - rho) * self._s0 + rho * batch_s0
        self._s1 = (1 - rho) * self._s1 + rho * batch_s1
        self._s2 = (1 - rho) * self._s2 + rho * batch_s2
        self._refresh_parameters()
        return batch_ll

    def _refresh_parameters(self) -> None:
        """M-step on the blended sufficient statistics."""
        s0_safe = np.maximum(self._s0, 1e-12)
        weights = self._s0 / self._s0.sum()
        means = self._s1 / s0_safe[:, None]
        mom2 = self._s2 / s0_safe[:, None, None]
        covariances = mom2 - np.einsum("ki,kj->kij", means, means)
        covariances = linalg.ensure_positive_definite(
            covariances, self.reg_covar
        )
        self._model = GaussianMixture(weights, means, covariances)

    def score_samples(self, points: np.ndarray) -> np.ndarray:
        """Score under the current mixture (policy-engine interface)."""
        return self._model.score_samples(points)
