from hypothesis import settings

# Tier-1 runs must be repeatable: the same examples every run, no timing
# failures on a slow machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
