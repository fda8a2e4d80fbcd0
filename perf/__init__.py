"""The repo benchmark (see perf/README.md); run with ``python3 perf/run.py``."""
