"""Measurement code behind ``perfbench/run.py`` (see ``BENCHMARK.json``)."""
