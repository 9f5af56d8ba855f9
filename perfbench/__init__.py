"""Repository benchmark: three seeded workloads over the public ``repro`` API.

See ``README.md`` in this directory; the entry point is ``run.py``.
"""
