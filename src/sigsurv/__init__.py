"""sigsurv — Bayesian survival analysis with a sigmoid-modulated
network hazard.

The hazard lambda(t|x) = phi t^(rho-1)/Z * sigmoid(g(t,x; theta)), Z = 1/2,
couples a Gamma-prior baseline with a feedforward network g under a
standard-normal prior on the weights. Fitting runs expectation-
maximization to the MAP point, linearizes g there, and then obtains a
closed-form variational posterior by coordinate ascent; predictions are
posterior survival curves with credible bands, scored by
time-dependent concordance and the IPCW (integrated) Brier score.

Importing the package imports none of its submodules, so the
command-line entry point can size BLAS thread pools before numpy loads.
"""

__version__ = "0.1.0"
