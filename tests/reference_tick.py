"""Unguarded reference step for ``ProcessorCore.tick``, for identity tests.

``ProcessorCore.tick`` runs each pipeline phase behind a guard that is
meant to be equivalent to the phase's own early exit, so that it can
certify no-op ticks, and then computes the core's wake inline.  Plain
and sanitized runs both execute that guarded step, so comparing them
cannot catch a wrong guard or a wrong wake.  :func:`reference_tick` is
the step with every guard removed: gap crediting, then every phase
unconditionally in pipeline order, then the wake from
:func:`next_event`, an independent copy of the wake rule.  It writes no
certification scratch (``tick_quiet``, ``storebuf.drain_activity``), so
use it only where skipping is off -- a sanitized machine.
"""

from repro.cpu.core import FAR_FUTURE
from repro.stats.breakdown import IDLE


def next_event(core, now, sb_event):
    """Earliest future cycle at which ``core`` can make progress."""
    best = FAR_FUTURE if sb_event is None else sb_event
    if core._completions:
        t = core._completions[0][0]
        if t < best:
            best = t
    live = {entry.seq: entry for entry in core._window}
    for seq in [*core._memq, *core._parked]:
        entry = live.get(seq)
        if entry is None:
            return now + 1
        t = entry.retry_at
        if t > now and t < best:
            best = t
        # retry_at <= now: consistency-blocked; it wakes with the next
        # completion, which is already among the candidates.
    if core._issue_wake == 1:
        return now + 1
    fbu = core._fetch_blocked_until
    if fbu != FAR_FUTURE and fbu < best and \
            len(core._window) < core._window_size:
        best = fbu
    if best == FAR_FUTURE:
        return now + 1 if core._window else FAR_FUTURE
    return best if best > now else now + 1


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
    return next_event(core, now, sb_event)
