"""Score-space likelihoods, T-MCMC sampling, diagnostics, sequential updates."""
