"""Global autograd configuration flags.

The engine has two global toggles:

* ``grad_enabled`` -- when ``False`` (inside :func:`no_grad`), newly created
  tensors record no graph edges.  This mirrors ``torch.no_grad`` and is what
  makes plain ``backward()`` (``create_graph=False``) cheap: the backward
  closures still run tensor ops, but those ops do not themselves build a
  second-order graph.
* ``compiled`` -- the default for the optimizers' tape-compiled step
  replay (:mod:`repro.autograd.compile`); seeded from the
  ``REPRO_COMPILE`` environment variable so whole runs opt in without
  code changes.
"""

from __future__ import annotations

import contextlib
import os
import threading

#: truthy spellings accepted by REPRO_COMPILE (read once at import)
_COMPILE_DEFAULT = os.environ.get("REPRO_COMPILE", "").strip().lower() in (
    "1", "true", "on", "yes",
)


class _AutogradConfig(threading.local):
    """Per-thread engine flags.

    Thread-locality matters for the parallel rank executors: a
    ``no_grad()`` block entered by one worker thread's backward pass must
    not switch off graph construction in a sibling thread's forward pass
    mid-flight.  Each thread starts from the defaults below; a flag set
    on the main thread is deliberately NOT inherited by worker threads.
    """

    def __init__(self):
        self.grad_enabled: bool = True
        #: default for optimizer-level ``compiled=None`` (tape-compiled
        #: FEKF step replay); per-thread like every other engine flag
        self.compiled: bool = _COMPILE_DEFAULT


config = _AutogradConfig()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the ``with`` block."""
    prev = config.grad_enabled
    config.grad_enabled = False
    try:
        yield
    finally:
        config.grad_enabled = prev


@contextlib.contextmanager
def enable_grad():
    """Re-enable graph construction (used inside backward closures when
    ``create_graph=True``)."""
    prev = config.grad_enabled
    config.grad_enabled = True
    try:
        yield
    finally:
        config.grad_enabled = prev

