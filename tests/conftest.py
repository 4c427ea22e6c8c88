import os

from hypothesis import settings

# Reproducible property tests with no timing limit on CI runners.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
