"""Sampler diagnostics: split R-hat, autocorrelation ESS, MAP and HPD."""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import InsufficientDataError

#: Split R-hat compares at least this many chains.
RHAT_MIN_CHAINS = 2
#: The autocorrelation ESS needs chains of at least this many draws.
ESS_MIN_DRAWS = 10
#: MAP and HPD need at least this many pooled samples.
HPD_MIN_SAMPLES = 100
#: Probability mass of each HPD interval.
HPD_COVERAGE = 0.95


def split_rhat(chains: np.ndarray) -> np.ndarray:
    """Split Gelman-Rubin statistic per parameter.

    ``chains`` has shape (n_chains, n_draws, n_params); each chain is split
    in half before computing the between/within variance ratio.
    """
    chains = np.asarray(chains, dtype=float)
    c, n, p = chains.shape
    if c < RHAT_MIN_CHAINS:
        raise InsufficientDataError(f"split R-hat needs at least {RHAT_MIN_CHAINS} chains")
    if n < 4:
        raise InsufficientDataError("split R-hat needs chains of length >= 4")
    half = n // 2
    halves = np.concatenate([chains[:, :half], chains[:, half : 2 * half]], axis=0)
    m, n2 = halves.shape[0], half
    means = halves.mean(axis=1)  # (m, p)
    variances = halves.var(axis=1, ddof=1)  # (m, p)
    w = variances.mean(axis=0)
    b = n2 * means.var(axis=0, ddof=1)
    var_plus = (n2 - 1) / n2 * w + b / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(var_plus / w)
    return np.where(w > 0.0, rhat, 1.0)


def effective_sample_size(chains: np.ndarray) -> np.ndarray:
    """Autocorrelation ESS per parameter with Geyer initial-positive truncation.

    ``chains`` has shape (n_chains, n_draws, n_params).  Autocorrelations
    are estimated per chain via FFT, averaged across chains, and summed in
    lag pairs until a pair sum turns negative.

    On T-MCMC output, whose final particles ``_single_run`` randomly
    permutes, the index carries no correlation, so this comes out at about
    runs x particles by construction.  Replicate seeds put the real figure
    5-9x lower (ROADMAP, Defects); a between-run ESS is ROADMAP direction 1.
    """
    chains = np.asarray(chains, dtype=float)
    c, n, p = chains.shape
    if n < ESS_MIN_DRAWS:
        raise InsufficientDataError(f"ESS needs chains of length >= {ESS_MIN_DRAWS}")
    out = np.empty(p)
    for j in range(p):
        x = chains[:, :, j]
        var = x.var(axis=1).mean()
        if var <= 0.0:
            warnings.warn("constant chain: ESS defined as 0", stacklevel=2)
            out[j] = 0.0
            continue
        # FFT autocovariance per chain, averaged.
        xc = x - x.mean(axis=1, keepdims=True)
        size = 2 * n
        f = np.fft.rfft(xc, size, axis=1)
        acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n].real / n
        rho = (acov / acov[:, :1]).mean(axis=0)
        # Geyer: sum consecutive pairs while positive.
        tau = 1.0
        t = 1
        while t + 1 < n:
            pair = rho[t] + rho[t + 1]
            if pair <= 0.0:
                break
            tau += 2.0 * pair
            t += 2
        out[j] = c * n / tau
    return out


def map_and_hpd(
    samples: np.ndarray, log_posterior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """MAP sample and per-parameter shortest intervals holding ``HPD_COVERAGE``.

    MAP is the sample with the highest posterior log-density.  Each HPD is
    the shortest window containing ceil(HPD_COVERAGE * m) sorted samples; ties
    break to the earliest window.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    log_posterior = np.asarray(log_posterior, dtype=float)
    m, p = samples.shape
    if m < HPD_MIN_SAMPLES:
        raise InsufficientDataError(f"MAP/HPD needs at least {HPD_MIN_SAMPLES} samples")
    if log_posterior.shape != (m,):
        raise InsufficientDataError("log_posterior must align with samples")
    map_point = samples[int(np.argmax(log_posterior))].copy()
    k = int(np.ceil(HPD_COVERAGE * m))
    hpd = np.empty((p, 2))
    for j in range(p):
        s = np.sort(samples[:, j])
        widths = s[k - 1 :] - s[: m - k + 1]
        i = int(np.argmin(widths))
        hpd[j] = (s[i], s[i + k - 1])
    return map_point, hpd
