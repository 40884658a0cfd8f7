"""Suite-wide settings: property tests draw the same examples on every run
and keep no example database (explicit ``@settings`` still set their own
example counts and deadlines)."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
