"""Exact bivariate Laurent polynomials, truncated series, and residual checks."""
