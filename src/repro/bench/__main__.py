"""Command-line entry point: ``python -m repro.bench <what>``.

Regenerates the paper's evaluation artifacts:

* ``table1`` -- slowdowns of the 11 benchmarks under no-static / Chord /
  RccJava filtering, with short-circuit percentages;
* ``table2`` -- % variables / % accesses still checked after each static
  analysis;
* ``table3`` -- the transactional Multiset thread sweep;
* ``figures`` -- the Figure 6 and Figure 7 lockset evolutions, printed
  event by event;
* ``all`` -- everything above.

Options: ``--scale tiny|small|full`` (default small), ``--repeats N``,
``--workloads a,b,c`` (Table 1/2 subset), ``--threads 5,10,...``
(Table 3 subset).  The wall-clock benchmark is ``python3 -m perf``.
"""

from __future__ import annotations

import argparse
import sys

from .harness import bench_table1, bench_table2, bench_table3
from .tables import render_table1, render_table2, render_table3


def _figures_text() -> str:
    """Figure 6 and 7 lockset evolutions, rendered from the algorithm."""
    from ..core import EagerGoldilocks
    from ..core.actions import DataVar, Obj
    from ..trace import TraceBuilder
    from ..core import Tid

    out = []

    def replay(title, events, var):
        out.append(title)
        out.append("-" * len(title))
        detector = EagerGoldilocks()
        for event in events:
            reports = detector.process(event)
            note = "  ** RACE **" if reports else ""
            out.append(f"  {str(event):<42} LS({var!r}) = {detector.lockset_of(var)}{note}")
        out.append("")

    # Figure 6: Example 2.
    t1, t2, t3 = Tid(1), Tid(2), Tid(3)
    tb = TraceBuilder()
    o, ma, mb, glob = Obj(1), Obj(2), Obj(3), Obj(4)
    tb.alloc(t1, o).write(t1, o, "data").acq(t1, ma).write(t1, glob, "a").rel(t1, ma)
    tb.acq(t2, ma).read(t2, glob, "a").rel(t2, ma)
    tb.acq(t2, mb).write(t2, glob, "b").rel(t2, mb)
    tb.acq(t3, mb).write(t3, o, "data").read(t3, glob, "b").rel(t3, mb)
    tb.write(t3, o, "data")
    replay("Figure 6: LS(o.data) on Example 2", tb.build(), DataVar(o, "data"))

    # Figure 7: Example 3.
    tb = TraceBuilder()
    o, glob = Obj(1), Obj(2)
    head = DataVar(glob, "head")
    o_nxt, o_data = DataVar(o, "nxt"), DataVar(o, "data")
    tb.alloc(t1, o).write(t1, o, "data")
    tb.commit(t1, reads=[head], writes=[o_nxt, head])
    tb.commit(t2, reads=[head, o_nxt], writes=[o_data])
    tb.commit(t3, reads=[head, o_nxt], writes=[head])
    tb.write(t3, o, "data")
    replay("Figure 7: LS(o.data) on Example 3", tb.build(), o_data)

    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description="regenerate the paper's evaluation"
    )
    parser.add_argument(
        "what",
        choices=["table1", "table2", "table3", "figures", "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "full"])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument(
        "--threads", default=None, help="comma-separated Table 3 thread counts"
    )
    args = parser.parse_args(argv)

    names = args.workloads.split(",") if args.workloads else None

    if args.what in ("table1", "all"):
        rows = bench_table1(scale=args.scale, repeats=args.repeats, names=names)
        print("Table 1: race-aware runtime slowdowns")
        print(render_table1(rows))
        print()
    if args.what in ("table2", "all"):
        rows = bench_table2(scale=args.scale, names=names)
        print("Table 2: checks remaining after static analysis")
        print(render_table2(rows))
        print()
    if args.what in ("table3", "all"):
        if args.threads:
            counts = tuple(int(t) for t in args.threads.split(","))
        else:
            counts = (5, 10, 20, 50, 100, 200, 500)
        rows = bench_table3(thread_counts=counts, repeats=args.repeats)
        print("Table 3: transactional Multiset")
        print(render_table3(rows))
        print()
    if args.what in ("figures", "all"):
        print(_figures_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
