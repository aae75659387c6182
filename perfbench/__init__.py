"""Benchmark of the stefanetc closed-loop simulator; see README.md."""
