"""Quadratic stochastic operators on finite simplices: order certificates,
fixed-point analysis, contraction criteria, and the Markov measures they
generate."""

__version__ = "0.1.0"
