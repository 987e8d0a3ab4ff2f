"""Names kept for the repository benchmark only (``perfbench/``).

Trace arenas are gone: every job generates its own instruction streams
wherever it runs.  ``perfbench/harness.py`` still calls :func:`forget`
on any ``*.arena`` file it finds, and ``perfbench/layers.py`` patches
``TraceArena.generators``; nothing in ``src/`` reads either.
"""


def forget(path):
    """Does nothing: no arena is ever mapped."""


class TraceArena:
    """Never instantiated; only the benchmark's tracer patches it."""

    def generators(self, n_cpus, seed=0):
        return []
