"""Dense linear-algebra kernels for small-dimension Gaussian mixtures.

The paper's GMM is two-dimensional (Eq. 2: ``x = [P, T]``), so every
covariance is a tiny symmetric positive-definite matrix.  These helpers
operate on *batches* of such matrices, shaped ``(K, D, D)`` for ``K``
mixture components, and avoid any dependency beyond numpy.
"""

from __future__ import annotations

import numpy as np

#: Smallest diagonal jitter used when repairing a non-PD covariance.
_MIN_JITTER = 1e-12

#: Element budget for the batched-solve temporaries (block * K * D);
#: ~4M float64 elements keeps each temporary around 32 MB.
_SOLVE_TEMP_ELEMENTS = 1 << 22


class NotPositiveDefiniteError(ValueError):
    """Raised when a covariance matrix cannot be Cholesky-factorised."""


def cholesky_batch(covariances: np.ndarray) -> np.ndarray:
    """Cholesky-factorise a batch of SPD matrices.

    Parameters
    ----------
    covariances:
        Array of shape ``(K, D, D)``; each slice must be symmetric
        positive-definite.

    Returns
    -------
    numpy.ndarray
        Lower-triangular factors ``L`` with ``L @ L.T == covariance``,
        shape ``(K, D, D)``.

    Raises
    ------
    NotPositiveDefiniteError
        If any matrix in the batch is not positive-definite.
    """
    covariances = np.asarray(covariances, dtype=np.float64)
    if covariances.ndim != 3 or covariances.shape[1] != covariances.shape[2]:
        raise ValueError(
            f"expected shape (K, D, D), got {covariances.shape!r}"
        )
    try:
        return np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "covariance batch contains a non positive-definite matrix"
        ) from exc


def regularize_covariances(
    covariances: np.ndarray, reg_covar: float
) -> np.ndarray:
    """Add ``reg_covar`` to every diagonal, returning a new array.

    EM shrinks covariances towards singularity when a component captures
    very few points; the standard fix (also used by the reference EM
    literature the paper cites) is a small diagonal ridge.
    """
    if reg_covar < 0:
        raise ValueError(f"reg_covar must be non-negative, got {reg_covar}")
    covariances = np.array(covariances, dtype=np.float64, copy=True)
    k, d, _ = covariances.shape
    idx = np.arange(d)
    covariances[:, idx, idx] += reg_covar
    return covariances


def ensure_positive_definite(
    covariances: np.ndarray, reg_covar: float = 1e-6, max_tries: int = 8
) -> np.ndarray:
    """Return a PD-repaired copy of a covariance batch.

    Repeatedly increases the diagonal jitter (starting from
    ``max(reg_covar, _MIN_JITTER)``, multiplying by 10) until the whole
    batch factorises.  Gives up after ``max_tries`` escalations.
    """
    jitter = max(reg_covar, _MIN_JITTER)
    repaired = np.array(covariances, dtype=np.float64, copy=True)
    # Symmetrise first: EM updates can drift off-symmetric by rounding.
    repaired = 0.5 * (repaired + np.swapaxes(repaired, 1, 2))
    for _ in range(max_tries):
        try:
            cholesky_batch(regularize_covariances(repaired, jitter))
        except NotPositiveDefiniteError:
            jitter *= 10.0
        else:
            return regularize_covariances(repaired, jitter)
    raise NotPositiveDefiniteError(
        f"could not repair covariance batch after {max_tries} attempts"
    )


def log_det_from_cholesky(cholesky_factors: np.ndarray) -> np.ndarray:
    """Log-determinants of SPD matrices from their Cholesky factors.

    ``log det(Sigma) = 2 * sum(log(diag(L)))`` for ``Sigma = L L^T``.
    Returns shape ``(K,)``.
    """
    k, d, _ = cholesky_factors.shape
    diag = cholesky_factors[:, np.arange(d), np.arange(d)]
    return 2.0 * np.sum(np.log(diag), axis=1)


def mahalanobis_squared_batch(
    points: np.ndarray, means: np.ndarray, cholesky_factors: np.ndarray
) -> np.ndarray:
    """Squared Mahalanobis distance of each point to each component.

    Parameters
    ----------
    points:
        Shape ``(N, D)``.
    means:
        Shape ``(K, D)``.
    cholesky_factors:
        Shape ``(K, D, D)`` lower factors of the covariances.

    Returns
    -------
    numpy.ndarray
        Shape ``(N, K)``; entry ``(n, k)`` is
        ``(x_n - mu_k)^T Sigma_k^{-1} (x_n - mu_k)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    k = means.shape[0]
    # Batched forward substitution: solve L_k z = (x_n - mu_k) for
    # every (point, component) pair at once.  The D-step loop runs
    # over the *tiny* feature dimension (2 for the paper's [P, T]
    # features) while each step is a vectorized (block, K) operation
    # -- replacing the former per-component ``np.linalg.solve`` loop,
    # which also ignored the factors' triangularity.  Points are
    # processed in blocks so the (block, K, D) temporaries stay
    # memory-bounded on arbitrarily long request streams.
    out = np.empty((n, k), dtype=np.float64)
    block = max(1, _SOLVE_TEMP_ELEMENTS // max(k * d, 1))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        centered = points[lo:hi, None, :] - means[None, :, :]
        z = np.empty_like(centered)  # (block, K, D)
        for i in range(d):
            acc = centered[:, :, i]
            if i:
                acc = acc - np.einsum(
                    "nkj,kj->nk",
                    z[:, :, :i],
                    cholesky_factors[:, i, :i],
                )
            z[:, :, i] = acc / cholesky_factors[:, i, i]
        np.einsum("nkd,nkd->nk", z, z, out=out[lo:hi])
    return out


def log_gaussian_density(
    points: np.ndarray, means: np.ndarray, covariances: np.ndarray
) -> np.ndarray:
    """Per-component log N(x | mu_k, Sigma_k) for a batch of points.

    Implements the log of Eq. 1 of the paper for every (point, component)
    pair.  Returns shape ``(N, K)``.
    """
    factors = cholesky_batch(covariances)
    return log_density_from_cholesky(
        points, means, factors, log_det_from_cholesky(factors)
    )


def log_density_from_cholesky(
    points: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
    log_det: np.ndarray,
) -> np.ndarray:
    """:func:`log_gaussian_density` from precomputed factors.

    The exact triangular-solve density: the reference EM's E-step,
    the quadratic-form scorers' fallback, and the tests' oracle.
    """
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    maha = mahalanobis_squared_batch(points, means, cholesky_factors)
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det[None, :] + maha)


def logsumexp(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable ``log(sum(exp(values)))`` along ``axis``.

    Handles rows that are entirely ``-inf`` (probability zero under
    every component) by returning ``-inf`` for them instead of NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    peak = np.max(values, axis=axis, keepdims=True)
    # Rows of all -inf would produce (-inf) - (-inf) = nan below.
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    summed = np.sum(np.exp(values - safe_peak), axis=axis)
    with np.errstate(divide="ignore"):
        result = np.log(summed) + np.squeeze(safe_peak, axis=axis)
    return np.where(
        np.isfinite(np.squeeze(peak, axis=axis)), result, -np.inf
    )
