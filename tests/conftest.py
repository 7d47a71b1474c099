from hypothesis import settings

# Derandomized, so that every run draws the same examples and the suite stays
# deterministic; no deadline, because the dense oracle's time varies a lot
# with the drawn (r, s, n); no example database written into the tree.
settings.register_profile("tier1", derandomize=True, max_examples=25,
                          deadline=None, database=None)
settings.load_profile("tier1")
