"""Hypothesis draws the same examples on every run and keeps no example
database, so a failure seen once is seen on every run, and no run's
examples leak into the next.  Each test's own max_examples and deadline
still apply."""
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
