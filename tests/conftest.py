"""One Hypothesis profile for the suite: no per-example deadline, since the
host's speed drifts and every property test states its own example count."""

from hypothesis import settings

settings.register_profile("degenlab", deadline=None)
settings.load_profile("degenlab")
