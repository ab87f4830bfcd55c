"""The repository benchmark: served-KV cost, latency and visibility.

Entry point: ``python3 bench/run.py`` (see ``bench/README.md``).
"""
