"""Benchmark package: one module per paper table/figure (index in
``repro.experiments``; how to run them: the README's "Tests" section)."""
