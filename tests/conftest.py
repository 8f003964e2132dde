"""Every property test is derandomized: Hypothesis draws the same examples on
each run, keeps no example database and sets no deadline.  Tests that want
fewer or more than the default 100 examples say so with their own
`@settings(max_examples=...)`."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("seeded")
