"""Shared pytest configuration.

Hypothesis runs derandomized so the suite is reproducible end to end: the
package's own guarantees are about determinism, and the tests hold
themselves to the same standard.  The id_matches fixture counts the id checks
a test makes.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

from govlab import core

settings.register_profile(
    "govlab",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("govlab")


@pytest.fixture
def id_matches(monkeypatch):
    """Count each text core._ID_RE is matched against, the one check behind every id type:
    a Counter from text to matches, filled while the test runs."""
    matched = Counter()
    rule = core._ID_RE

    class Counting:
        def fullmatch(self, text):
            matched[text] += 1
            return rule.fullmatch(text)

    monkeypatch.setattr(core, "_ID_RE", Counting())
    return matched
