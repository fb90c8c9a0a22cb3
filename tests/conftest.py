"""Shared test settings: every property test runs the same derandomized examples.

The hypothesis profile loaded here makes each run draw the same examples
(``derandomize``), keeps no example database between runs, and sets no
per-example deadline, so the suite is deterministic and timing-independent.
A test sets only its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("lochom", derandomize=True, database=None, deadline=None)
settings.load_profile("lochom")
