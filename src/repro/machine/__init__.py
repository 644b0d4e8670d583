"""Model of a space-shared parallel machine.

The machine schedulers in :mod:`repro.schedulers` allocate whole nodes of a
distributed-memory machine (the IBM SP / Paragon / CM-5 class the paper's
workloads come from).  This package provides :class:`Machine`, the
allocator both simulation drivers use: it hands a job the lowest-numbered
free nodes, takes them back on release, and supports the failure / repair
transitions the outage experiments need, reporting the jobs a failure hits.
"""

from repro.machine.cluster import AllocationError, Machine

__all__ = ["AllocationError", "Machine"]
