"""Suite-wide hypothesis settings: every property test is deterministic."""

from hypothesis import settings

settings.register_profile("provrun", derandomize=True, database=None, deadline=None)
settings.load_profile("provrun")
