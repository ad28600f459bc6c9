"""repro — reproduction of "Scalable Distributed Last-Level TLBs Using
Low-Latency Interconnects" (NOCSTAR, MICRO 2018).

Public API tour:

* ``repro.api`` — the supported stable surface in one namespace:
  :class:`~repro.sim.scenario.Scenario`,
  :class:`~repro.exec.runner.Runner`, the run harness, configuration
  factories and registry, and the workload registry.
* ``repro.exec`` — parallel experiment runner with content-addressed
  result caching (the execution substrate behind every sweep).
* ``repro.serve`` — simulation-as-a-service: the ``repro serve``
  daemon, job manager, and :class:`~repro.serve.client.ServeClient`.
* ``repro.sim`` — build configurations (:func:`repro.sim.private`,
  :func:`repro.sim.nocstar`, ...) and the simulation engine; the run
  harness lives on the :mod:`repro.api` facade.
* ``repro.core`` — the NOCSTAR interconnect itself.
* ``repro.workloads`` — the paper's application suite and
  microbenchmarks as synthetic trace generators.
* ``repro.tlb`` / ``repro.vm`` / ``repro.mem`` / ``repro.noc`` — the
  substrates: TLB structures, virtual memory and page walks, SRAM and
  cache models, and baseline on-chip networks.
* ``repro.energy`` / ``repro.analysis`` — translation-energy accounting
  and result post-processing.

Quickstart::

    from repro import api

    scenario = api.Scenario(
        configurations=[api.private(16), api.nocstar(16)],
        workloads="graph500",
    )
    cmp = api.Runner(jobs=4).run_one(scenario)
    print(cmp.speedup("nocstar"))
"""

__version__ = "2.0.0"

from repro import analysis, api, core, energy, mem, noc, serve, sim, tlb, vm, workloads
from repro import exec as exec_  # "exec" shadows the builtin; alias too

__all__ = [
    "analysis",
    "api",
    "core",
    "energy",
    "exec",
    "mem",
    "noc",
    "serve",
    "sim",
    "tlb",
    "vm",
    "workloads",
    "__version__",
]
