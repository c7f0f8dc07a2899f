"""Shared test settings.

Property tests run derandomized with a fixed example count, so a tier-1
run draws the same examples every time and its duration is predictable
on a small machine.  No example database is kept between runs.
"""
from hypothesis import settings

settings.register_profile("aodvcheck", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("aodvcheck")
