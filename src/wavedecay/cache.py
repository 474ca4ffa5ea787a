"""Stand-in for the deleted disk eigen cache.

Eigensystems are memoized once per process by ``radialop._operator`` and
``DiscreteOperator.eigensystem``; nothing is written to disk.  This class
is kept only because the benchmark's set-up probe (``perfbench/worker.py``)
imports it and its tracer imports this module; it goes with that import in
ROADMAP item 6.
"""

from __future__ import annotations

__all__ = ["EigenCache"]


class EigenCache:
    """``eigensystem(op)`` is ``op.eigensystem()``; ``root`` is neither
    created nor read."""

    def __init__(self, root):
        self.root = root

    def eigensystem(self, op):
        return op.eigensystem()
