"""The evaluation harness: regenerates Tables 1-3 and the figure walkthroughs.

``python -m repro.bench table1|table2|table3|figures|all`` prints the
paper's tables for this reproduction; the pytest-benchmark suites under
``benchmarks/`` time the same code paths with statistical rigor.
"""

from .harness import (
    DETECTOR_CONFIGS,
    Table1Row,
    Table3Row,
    bench_table1,
    bench_table2,
    bench_table3,
    run_workload,
)
from .tables import render_table1, render_table2, render_table3

__all__ = [
    "DETECTOR_CONFIGS",
    "Table1Row",
    "Table3Row",
    "bench_table1",
    "bench_table2",
    "bench_table3",
    "render_table1",
    "render_table2",
    "render_table3",
    "run_workload",
]
