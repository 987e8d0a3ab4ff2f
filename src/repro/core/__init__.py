"""Experiment framework: workload definitions, simulation runner, the
paper's figure/table reproductions, and the software migratory-data
optimization pass."""
