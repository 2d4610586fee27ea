"""Settings shared by every test module."""

from hypothesis import settings

# Draw the same examples on every run and write no example database, so two
# runs of the suite, on two versions of the code, test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
