"""Host-measured AMR benchmark for the Parthenon-VIBE reproduction.

``workloads`` turns a workload name and a seed into a run specification,
``spans`` times the calls the driver makes into each layer, and
``harness`` runs the episodes, checks their outputs and reports metrics.
"""
