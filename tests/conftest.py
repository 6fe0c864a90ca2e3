"""Shared pytest set-up.

The ``ci`` hypothesis profile makes property tests reproducible and free of
the per-example deadline, which slow runners can miss; select it with
HYPOTHESIS_PROFILE=ci.  Without that variable the default profile is used.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
