"""The server process of ``serve_mixed``.

Hosts the two matrices saved by the worker in a default
``QueryService(tile_size=50)`` behind ``ServeServer`` on an ephemeral
port, prints ``{"port": N}``, and serves until its stdin reaches
end-of-file — which also happens when the parent dies, so no server
outlives a benchmark run.  On the way out it prints the engine's
cumulative counters, which ``GET /metrics`` does not expose.
"""

import asyncio
import json
import sys
import threading

import numpy as np

from repro.serve import QueryService, ServeServer

TILE = 50


async def serve(service: QueryService) -> None:
    server = ServeServer(service)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def wait_for_parent() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_parent, daemon=True).start()
    await stop.wait()
    await server.stop()


def main(data_path: str) -> None:
    data = np.load(data_path)
    service = QueryService(tile_size=TILE)
    try:
        service.host("A", data["A"])
        service.host("B", data["B"])
        asyncio.run(serve(service))
        totals = vars(service.loader.engine.metrics.total)
        print(json.dumps({
            key: value for key, value in totals.items()
            if isinstance(value, (int, float))
        }), flush=True)
    finally:
        service.close()


if __name__ == "__main__":
    main(sys.argv[1])
