"""Numeric kernel engines.

:mod:`repro.kernels.backends` builds the packed-execution engine a run's
``kernel_backend`` names — the python analogue of Parthenon selecting a
Kokkos backend per platform while keeping one source of truth for the
physics (Section II-C).
"""
