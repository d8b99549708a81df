"""Simulation lab for knowledge-evidencing protocols on random qudit states; import from its modules."""

__version__ = "0.1.0"
