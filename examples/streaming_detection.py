"""Example: streaming race detection through the repro.server service.

The offline CLI (``repro-race analyze``) needs the whole trace up front.
The streaming service instead ingests events as they happen -- from a
pipe, a socket, or a growing log file -- and reports each race the moment
the completing access arrives, while hash-partitioning the per-variable
detection work across shards.

This script runs the full client/server path in one process:

1. start a ``RaceDetectionService`` with 4 shards and serve it over TCP,
2. connect with the ``ServiceClient`` library and stream a recorded
   execution event by event,
3. print the races as the server pushes them back, then fetch the
   service's stats snapshot.

Run:  python examples/streaming_detection.py
"""

import threading

from repro.core import Obj, Tid
from repro.server import RaceDetectionService, ServiceClient, ServiceConfig, serve_tcp
from repro.trace import TraceBuilder


def build_trace():
    """A tiny execution with one genuine race and one red herring.

    T1 publishes ``o1.data`` under lock ``m`` and T2 reads it under the
    same lock -- disciplined, no race.  But both threads also touch
    ``o2.flag`` with no synchronization at all.
    """
    tb = TraceBuilder()
    m = Obj(10)
    tb.acq(Tid(1), m).write(Tid(1), Obj(1), "data").rel(Tid(1), m)
    tb.acq(Tid(2), m).read(Tid(2), Obj(1), "data").rel(Tid(2), m)
    tb.write(Tid(1), Obj(2), "flag")
    tb.read(Tid(2), Obj(2), "flag")  # completes the race
    return tb.build()


def main():
    events = build_trace()
    config = ServiceConfig(n_shards=4, flush_interval=0.01)
    with RaceDetectionService(config) as service:
        server = serve_tcp(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.tcp("127.0.0.1", port) as client:
                print(f"streaming {len(events)} events to 127.0.0.1:{port} ...")
                client.stream(events)
                client.flush()  # barrier: all submitted events are detected

                print(f"\n{len(client.races)} race(s) reported by the service:")
                for race in client.races:
                    print(f"  {race}")

                stats = client.stats()
                print("\nservice stats:")
                print(f"  events ingested : {stats.events_ingested}")
                print(f"  sync broadcast  : {stats.sync_broadcast}")
                print(f"  data routed     : {stats.data_routed}")
                print(f"  shards          : {stats.n_shards}")
                print(f"  races reported  : {stats.races_reported}")

                assert len(client.races) == 1, "expected exactly the o2.flag race"
                assert "o2.flag" in str(client.races[0])
                assert stats.events_ingested == len(events)
        finally:
            server.shutdown()
            server.server_close()
    print("\nOK: the disciplined o1.data accesses were not reported.")


if __name__ == "__main__":
    main()
