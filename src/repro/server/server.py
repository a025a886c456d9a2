"""The asyncio query server.

One :class:`QueryServer` accepts any number of TCP connections, opens a
:class:`~repro.server.session.Session` per connection, and speaks the
newline-delimited JSON protocol of :mod:`repro.server.protocol`.

Concurrency model: the event loop only shuffles bytes.  Each connection
has a worker task that takes that connection's operations off a queue
*in order* and runs each statement in a thread
(``asyncio.to_thread``), so statements from different connections
overlap — readers genuinely run in parallel under the Database's read
lock — while one connection's statements never reorder.  ``cancel`` is
the exception: the reader loop handles it the moment it arrives, setting
the session's cancel flag so the in-flight statement aborts at its next
operator boundary instead of queueing behind itself.

:class:`ServerThread` hosts a server on a background thread for tests,
benchmarks, and the shell's ``\\connect``; ``python -m repro.server``
serves a fresh telemetry-enabled Database from the command line.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Optional

from repro.server.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    dumps_line,
    encode_result,
    error_payload,
    loads_line,
)
from repro.server.session import Session, SessionManager

__all__ = ["QueryServer", "ServerThread", "main"]


class QueryServer:
    """Serve one Database to many newline-delimited-JSON clients."""

    def __init__(
        self,
        db,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        plan_cache_capacity: int = 128,
        manager: Optional[SessionManager] = None,
        http_port: Optional[int] = None,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.manager = manager or SessionManager(
            db, plan_cache_capacity=plan_cache_capacity
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: Observability sidecar port: None disables it, 0 picks a free
        #: port (resolved on start(), like ``port``).
        self.http_port = http_port
        self._http = None

    async def start(self) -> "QueryServer":
        """Bind and start accepting connections; resolves ``port`` 0."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.http_port is not None:
            from repro.server.http import ObservabilityServer

            self._http = ObservabilityServer(
                self.db, self.manager, host=self.host, port=self.http_port
            )
            self._http.start()
            self.http_port = self._http.port
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and close every session."""
        if self._http is not None:
            self._http.stop()
            self._http = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.manager.close_all()

    # -- per-connection machinery -----------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        session = self.manager.open_session(
            label="" if peer is None else f"{peer[0]}:{peer[1]}"
        )
        write_lock = asyncio.Lock()

        async def send(message: dict) -> None:
            async with write_lock:
                writer.write(dumps_line(message))
                await writer.drain()

        queue: "asyncio.Queue" = asyncio.Queue()

        async def worker() -> None:
            while True:
                msg = await queue.get()
                if msg is None:
                    return
                try:
                    keep_going = await self._run_op(session, msg, send)
                except ConnectionError:
                    return
                if not keep_going:
                    return

        worker_task = asyncio.create_task(worker())
        saw_close = False
        try:
            await send(
                {
                    "event": "hello",
                    "session": session.id,
                    "server": "repro",
                    "version": PROTOCOL_VERSION,
                }
            )
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await send(_protocol_error(None, "request line too long"))
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    msg = loads_line(line)
                except ValueError as exc:
                    await send(_protocol_error(None, f"bad request: {exc}"))
                    continue
                if msg.get("op") == "cancel":
                    # Out of band by design: a cancel must not wait in
                    # line behind the statement it is cancelling.
                    session.cancel()
                    await send(
                        {
                            "id": msg.get("id"),
                            "ok": True,
                            "result": {"cancelled": True},
                        }
                    )
                    continue
                await queue.put(msg)
                if msg.get("op") == "close":
                    saw_close = True
                    break
        except ConnectionError:
            pass
        finally:
            if not saw_close:
                # Abrupt disconnect: abort the in-flight statement so the
                # worker drains promptly instead of finishing doomed work.
                session.cancel()
            await queue.put(None)
            await worker_task
            self.manager.close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _run_op(self, session: Session, msg: dict, send) -> bool:
        """Run one queued operation; False ends the connection worker."""
        op = msg.get("op")
        op_id = msg.get("id")
        try:
            traceparent = msg.get("traceparent")
            if traceparent is not None:
                traceparent = str(traceparent)
            if op == "query":
                result = await asyncio.to_thread(
                    functools.partial(
                        session.execute,
                        str(msg.get("sql", "")),
                        tuple(msg.get("params") or ()),
                        traceparent=traceparent,
                    )
                )
                payload = encode_result(result)
            elif op == "prepare":
                handle = await asyncio.to_thread(
                    session.prepare, str(msg.get("sql", ""))
                )
                payload = {"handle": handle}
            elif op == "execute":
                result = await asyncio.to_thread(
                    functools.partial(
                        session.execute_prepared,
                        str(msg.get("handle", "")),
                        tuple(msg.get("params") or ()),
                        traceparent=traceparent,
                    )
                )
                payload = encode_result(result)
            elif op == "close":
                # Before the reply, so "closed" is true when the client
                # reads it (the connection handler's own close is a no-op).
                self.manager.close_session(session)
                await send({"id": op_id, "ok": True, "result": {"closed": True}})
                return False
            else:
                await send(_protocol_error(op_id, f"unknown op {op!r}"))
                return True
        except Exception as exc:  # SqlError and engine bugs both answer
            await send({"id": op_id, "ok": False, "error": error_payload(exc)})
            return True
        await send({"id": op_id, "ok": True, "result": payload})
        return True


def _protocol_error(op_id, message: str) -> dict:
    return {
        "id": op_id,
        "ok": False,
        "error": {"class": "ProtocolError", "message": message},
    }


class ServerThread:
    """A :class:`QueryServer` on a background thread.

    The synchronous face of the server, for tests, benchmarks, and the
    shell: ``start()`` returns the bound ``(host, port)``; ``stop()``
    shuts the loop down and joins the thread.  Usable as a context
    manager.
    """

    def __init__(
        self,
        db,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        plan_cache_capacity: int = 128,
        http_port: Optional[int] = None,
    ):
        self._db = db
        self._host = host
        self._port = port
        self._capacity = plan_cache_capacity
        self._http_port = http_port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[QueryServer] = None

    def start(self) -> tuple:
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("server failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return (self.server.host, self.server.port)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = QueryServer(
            self._db,
            host=self._host,
            port=self._port,
            plan_cache_capacity=self._capacity,
            http_port=self._http_port,
        )
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self) -> None:
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)

    @property
    def manager(self) -> Optional[SessionManager]:
        return None if self.server is None else self.server.manager

    @property
    def http_port(self) -> Optional[int]:
        """The observability sidecar's bound port (None when disabled)."""
        return None if self.server is None else self.server.http_port

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv=None) -> None:
    """``python -m repro.server``: serve a fresh Database over TCP."""
    import argparse

    from repro.api import Database

    parser = argparse.ArgumentParser(
        prog="repro.server",
        description="Serve an in-memory repro database over "
        "newline-delimited JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7878)
    parser.add_argument(
        "--plan-cache",
        type=int,
        default=128,
        metavar="N",
        help="prepared-plan cache capacity (default 128)",
    )
    parser.add_argument(
        "--listings",
        action="store_true",
        help="preload the paper's Customers/Orders tables and setup views",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /healthz and /queries over HTTP on this "
        "port (0 picks a free port; omitted disables the sidecar)",
    )
    parser.add_argument(
        "--record",
        metavar="PATH",
        default=None,
        help="append every executed statement to a replayable journal at "
        "PATH (see python -m repro.history)",
    )
    args = parser.parse_args(argv)

    db = Database(telemetry=True)
    if args.listings:
        from repro.workloads.listings import SETUP
        from repro.workloads.paper_data import load_paper_tables

        load_paper_tables(db)
        for ddl in SETUP.values():
            db.execute(ddl)
    if args.record is not None:
        # Attached after the preload so the journal starts at the served
        # workload; the header's bootstrap field tells replay how to
        # rebuild the pre-recording state.
        from repro.history import JournalWriter

        db.recorder = JournalWriter(
            args.record, bootstrap="listings" if args.listings else None
        )
        print(f"recording workload to {args.record}")

    async def _serve() -> None:
        server = await QueryServer(
            db,
            host=args.host,
            port=args.port,
            plan_cache_capacity=args.plan_cache,
            http_port=args.http_port,
        ).start()
        print(f"repro server listening on {server.host}:{server.port}")
        if server.http_port is not None:
            print(
                f"observability endpoints on "
                f"http://{server.host}:{server.http_port}/metrics"
            )
        try:
            await server.serve_forever()
        finally:
            await server.stop()
            if db.recorder is not None:
                db.recorder.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":  # pragma: no cover
    main()
