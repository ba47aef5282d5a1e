"""The measurement spine: one harness over the four paths a user takes.

``python3 benchmarks/spine --workload W --seed N --seconds S --trace 0|1``
runs one of six workloads (``StressTest.run`` twice, an engine matrix, a
``run_many`` sweep, a service submit mix, a TCP cluster run), checks the
outputs, and prints one JSON object as the last line of stdout: the
end-to-end metrics with tracing off, the per-layer metrics with tracing
on. ``BENCHMARK.json`` at the repo root declares the same names; see
README.md in this directory for what each one means and should move.
"""
