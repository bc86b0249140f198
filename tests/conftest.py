from hypothesis import settings

# Draw the same examples on every run, so a Tier-1 result does not depend on
# the run; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
