"""The repository benchmark: four serial workloads timed end to end,
checked by record digests, and split by layer in a traced pass.

See README.md in this directory.
"""
