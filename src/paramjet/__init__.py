"""Exact computer-algebra engine for parameterized linear differential
systems: differential rings over multivariate rational function fields,
jet rings, differential modules, and the prolongation functor."""

__version__ = "0.1.0"
