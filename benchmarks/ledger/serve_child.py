"""The ``served_mix`` server process: ``repro.serving`` over the fixture.

Equivalent to ``repro serve`` (which can only name the built-in dataset
presets): prepares a lazy database with default options over the given
repository directory, starts the HTTP server on a free port, prints
``{"port": N}`` on one line, and serves until its stdin closes — so the
server also goes away if the benchmark process dies.  Then it drains,
closes the database and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading

from repro import FileRepository, prepare
from repro.serving import ServerConfig, SommelierServer


async def serve(db, pool_size: int) -> None:
    server = SommelierServer(db, ServerConfig(port=0, pool_size=pool_size))
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    stdin_closed = asyncio.Event()

    def wait_for_eof() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stdin_closed.set)

    threading.Thread(target=wait_for_eof, daemon=True).start()
    await stdin_closed.wait()
    await server.stop(drain=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repository", required=True)
    parser.add_argument("--pool-size", type=int, required=True)
    args = parser.parse_args()
    db, _ = prepare("lazy", FileRepository(args.repository))
    try:
        asyncio.run(serve(db, args.pool_size))
    finally:
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
