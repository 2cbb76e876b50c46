"""Frozen reference implementations pinned by the equivalence tests."""
