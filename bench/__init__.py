"""Benchmark harness for channel-forge; run it with ``python3 -m bench.run``."""
