"""Discrete-event simulation kernel and statistical distributions.

This package provides the substrate the simulators in :mod:`repro` are built
on:

* :class:`~repro.simulation.engine.Simulator` — a deterministic
  discrete-event engine (a heap of ``(time, priority, seq, callback, args)``
  tuples with stable tie-breaking and lazy cancellation).
* :mod:`~repro.simulation.distributions` — the random distributions the
  published workload models require (log-uniform, hyper-exponential,
  hyper-Erlang, two-stage hyper-gamma, Zipf, Weibull), all driven by
  :class:`numpy.random.Generator` for reproducibility.

The paper's evaluation methodology assumes an event-driven scheduler
simulator; the kernel is implemented here rather than taken from ``simpy``
so that it carries no dependency and exactly the API its two drivers use.
"""

from repro.simulation.engine import Simulator
from repro.simulation.distributions import (
    DiscreteSampler,
    HyperExponential,
    HyperErlang,
    HyperGamma,
    LogUniform,
    TruncatedNormal,
    Weibull,
    Zipf,
    make_rng,
)

__all__ = [
    "Simulator",
    "DiscreteSampler",
    "HyperExponential",
    "HyperErlang",
    "HyperGamma",
    "LogUniform",
    "TruncatedNormal",
    "Weibull",
    "Zipf",
    "make_rng",
]
