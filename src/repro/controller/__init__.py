"""Memory-controller layer: the request path of Fig. 4.

The controller owns the DRAM channel/banks and routes every request
through a mitigation scheme: mapping-table lookup, bank timing, tracker
update, and any mitigative action (which blocks the channel).  It is
the integration point used by the attack harness and integration tests;
the performance sweeps use the lighter :mod:`repro.sim` layer on top.
"""

from repro.controller.memctrl import AccessRecord, MemoryController

__all__ = [
    "AccessRecord",
    "MemoryController",
]
