"""Hypothesis profiles shared by the property tests.

``nightly`` (``--hypothesis-profile=nightly``) raises the example count of
tests that defer to the loaded profile, such as the word-path fuzzer.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=400, deadline=None)
