"""Test-wide settings.

With `CI` set in the environment (GitHub Actions sets it), hypothesis runs
the "ci" profile: examples derived from each test, not drawn at random, no
per-example deadline and a bounded example count, so property tests neither
flake on a slow runner nor vary between runs.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=25)

if os.environ.get("CI"):
    settings.load_profile("ci")
