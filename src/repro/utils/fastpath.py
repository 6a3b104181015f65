"""The fast-path switch shared by every optimised hot loop.

The fast-path simulation engine (docs/performance.md) is a set of
independently guarded optimisations — kernel-cost memoisation, batch-plan
reuse, steady-state decode stepping, event-loop decode coalescing — that
are all *behaviour-preserving*: under a fixed seed the fast and reference
paths produce byte-identical traces (tests/test_fastpath_differential.py
is the proof obligation).

Every optimised component takes an explicit ``fast_path`` argument whose
``None`` default resolves here: the ``REPRO_FASTPATH`` environment
variable (``0``/empty disables) wins, otherwise the fast path is ON.
Passing an explicit ``True``/``False`` always overrides the environment —
that is how the differential tests and the perf gate pin each lane.
"""

from __future__ import annotations

import os

ENV_VAR = "REPRO_FASTPATH"


def fastpath_enabled(override: "bool | None" = None) -> bool:
    """Resolve a component's ``fast_path`` setting.

    ``override`` is the component's explicit argument: non-``None`` wins.
    Otherwise ``REPRO_FASTPATH`` decides (unset, ``1`` -> on; ``0`` or
    empty -> off).
    """
    if override is not None:
        return bool(override)
    env = os.environ.get(ENV_VAR)
    if env is not None:
        return env not in ("", "0")
    return True

