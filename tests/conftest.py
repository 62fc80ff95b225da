"""Suite-wide test settings.

Hypothesis draws its examples from a seed derived from each test, and keeps
no example database, so every run of one commit tests the same inputs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
