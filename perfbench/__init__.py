"""perfbench: the repo's benchmark (see README.md and ../BENCHMARK.json)."""
