"""Stability toolkit for the discrete logistic map with time delay."""

__version__ = "0.1.0"
