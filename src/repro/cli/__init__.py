"""Command-line interface.

The paper's Snooze implementation ships a CLI "implemented on top of those
services. It supports the VM management as well as live visualizing and
exporting of the hierarchy organization."  The reproduction's ``repro-sim``
command (entry point :func:`repro.cli.main.main`) offers the equivalent for
the simulated system: run a catalog scenario or a spec file and print its
results with the hierarchy organization it ended in, browse the policy
registry, run experiment grids and warehouse-scale fleets, and summarize
exported traces.
"""
