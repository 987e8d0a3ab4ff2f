"""Unguarded reference step for ``ProcessorCore.tick``, for identity tests.

``ProcessorCore.tick`` runs each pipeline phase behind a guard that is
meant to be equivalent to the phase's own early exit, so that it can
certify no-op ticks.  Plain and sanitized runs both execute that guarded
step, so comparing them cannot catch a wrong guard.  :func:`reference_tick`
is the step with every guard removed: gap crediting, then every phase
unconditionally in pipeline order.  It writes no certification scratch
(``tick_quiet``, ``storebuf.drain_activity``), so use it only where
skipping is off -- a sanitized machine.
"""

from repro.cpu.core import FAR_FUTURE
from repro.stats.breakdown import IDLE


def reference_tick(core, now):
    gap = now - core._last_now - 1
    if gap > 0:
        core.stats.stall(core._gap_category, gap)
    core._last_now = now

    if core.process is None:
        core.stats.stall(IDLE, 1)
        core._gap_category = IDLE
        return FAR_FUTURE

    core._process_completions(now)
    core._process_memq(now)
    sb_event = core.storebuf.drain(now)
    if core._out_of_order:
        core._issue_ooo(now)
    else:
        core._issue_inorder(now)
    core._fetch(now)
    core._retire(now)
    return core._next_event(now, sb_event)
