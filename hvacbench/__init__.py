"""The repository benchmark: ``python3 hvacbench/run.py --help``; see METRICS.md."""
