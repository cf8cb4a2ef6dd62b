"""greensched benchmark: workloads, correctness checks, tracing and reporting.

``perfbench/run.py`` is the entry point; it puts the checkout's ``src`` on
``sys.path`` before this package is imported.
"""
