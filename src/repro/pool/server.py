"""Asyncio streaming front door for the device pool.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` --
stdlib only, no frameworks -- speaking newline-delimited JSON:

``POST /jobs``
    The streaming submission channel.  Each request-body line is one
    submission, ``{"job": {...StreamJob dict...}, "tenant": "name"}``
    (a bare job object is also accepted); the body may trickle in over
    the life of the connection and ends with a half-close (client
    ``write_eof``) or after ``Content-Length`` bytes.  The response
    streams NDJSON lifecycle events for *this connection's* jobs
    (``submitted``, ``placed`` -- vPRRs granted, ``device`` still
    null --, ``bound``, ``running``, ``first_sample``, ``done``,
    ``failed``)
    plus pool-level telemetry (``device_lost``, ``quarantined``...),
    and finishes with one ``batch_done`` summary line once every
    submitted job is terminal.
``GET /healthz``
    Liveness: ``{"ok": true, "draining": false, "devices": N}``.
``GET /stats``
    The pool snapshot: the pool-wide grant bound and granted width,
    the ready and ungranted (``pool_pending``) counts, per-tenant ready
    depths, and each device's healthy PRRs and running job.
``GET /metrics``
    Prometheus text exposition of the pool's *live* metrics: its own
    gauges and counters plus the merged device-snapshot view
    (:meth:`~repro.pool.devices.DevicePool.live_metrics`).
``GET /events``
    NDJSON firehose of every pool event (all tenants) until the client
    disconnects or the server shuts down.
``POST /debug/flightrecorder``
    Dump every device's flight-recorder ring; returns the dumps as
    byte-stable JSON.
``POST /debug/lose-device?device=N``
    Force device loss (fault drills and the CI live-observability
    smoke test).
``POST /shutdown``
    Ask the server to drain and exit (same path as SIGTERM).

Shutdown is always graceful: the listener closes first (no new
tenants), the pool drains every accepted job, connected clients
receive their remaining events and ``batch_done``, and only then do
the device workers stop.  With ``obs_dir`` set, the drained pool's
trace shards (pool + per-device), the stitched trace and any flight
dumps are written there before the workers exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union
from urllib.parse import parse_qs

from repro.obs.export import dump_chrome_trace, prometheus_text
from repro.obs.live import dump_stitched_trace
from repro.pool.devices import DevicePool, PoolError
from repro.runtime.jobs import JobError, StreamJob

#: submission-reader -> event-forwarder control message (never leaves
#: the server process)
_SUBMISSIONS_DONE = {"event": "__submissions_done__"}

_MAX_HEADER_LINE = 64 * 1024
_MAX_BODY_LINE = 1024 * 1024


class ProtocolError(Exception):
    """Malformed HTTP request from a client."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str]]:
    line = await reader.readline()
    if not line:
        raise ProtocolError("empty request")
    try:
        method, path, _version = line.decode("ascii").split(None, 2)
    except ValueError:
        raise ProtocolError(f"bad request line {line!r}") from None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if len(line) > _MAX_HEADER_LINE:
            raise ProtocolError("header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


def _response(
    status: str, body: bytes, content_type: str = "application/json"
) -> bytes:
    return (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii") + body


def _json_response(status: str, payload: Dict) -> bytes:
    return _response(status, (json.dumps(payload) + "\n").encode("utf-8"))


class PoolServer:
    """The pool's network front door (one per pool)."""

    def __init__(
        self,
        pool: DevicePool,
        host: str = "127.0.0.1",
        port: int = 0,
        obs_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.pool = pool
        self.host = host
        self.port = port
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass

    async def run_until_shutdown(self) -> None:
        """Serve until SIGTERM//shutdown, then drain gracefully."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        await self.pool.drain()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        self._write_obs_artifacts()
        await self.pool.stop(drain=False)

    def _write_obs_artifacts(self) -> None:
        """Persist the drained pool's trace shards, the stitched trace
        and any flight-recorder dumps under ``obs_dir``."""
        if self.obs_dir is None:
            return
        self.obs_dir.mkdir(parents=True, exist_ok=True)
        dump_chrome_trace(
            self.pool.tracer.events,
            self.obs_dir / "pool-trace.json",
            process_name="pool",
        )
        for device_id, shard in self.pool.device_shards().items():
            dump_chrome_trace(
                shard,
                self.obs_dir / f"device{device_id}-trace.json",
                process_name=f"device{device_id}",
            )
        dump_stitched_trace(
            self.pool.stitched_trace(),
            self.obs_dir / "stitched-trace.json",
        )
        for index, dump in enumerate(self.pool.flight_dumps):
            payload = json.dumps(
                dump, sort_keys=True, separators=(",", ":")
            )
            (
                self.obs_dir / f"flightrecorder-{index:03d}.json"
            ).write_text(payload + "\n")

    async def aclose(self) -> None:
        """Immediate teardown for tests (no drain of pending clients)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        await self.pool.stop()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                method, path, headers = await _read_request(reader)
            except ProtocolError as exc:
                writer.write(_json_response("400 Bad Request",
                                            {"error": str(exc)}))
                return
            route, _, query = path.partition("?")
            if method == "GET" and route == "/healthz":
                writer.write(_json_response("200 OK", {
                    "ok": True,
                    "draining": self.pool.stats()["draining"],
                    "devices": len(self.pool.devices),
                }))
            elif method == "GET" and route == "/stats":
                writer.write(_json_response("200 OK", self.pool.stats()))
            elif method == "GET" and route == "/metrics":
                body = prometheus_text(
                    self.pool.live_metrics()
                ).encode("utf-8")
                writer.write(_response(
                    "200 OK", body, "text/plain; version=0.0.4"
                ))
            elif method == "GET" and route == "/events":
                await self._handle_events(writer)
            elif method == "POST" and route == "/debug/flightrecorder":
                dumps = self.pool.dump_all_flight("request")
                body = json.dumps(
                    dumps, sort_keys=True, separators=(",", ":")
                ) + "\n"
                writer.write(_response("200 OK", body.encode("utf-8")))
            elif method == "POST" and route == "/debug/lose-device":
                writer.write(self._lose_device(query))
            elif method == "POST" and route == "/shutdown":
                writer.write(_json_response("200 OK", {"ok": True}))
                await writer.drain()
                self.request_shutdown()
            elif method == "POST" and route == "/jobs":
                await self._handle_jobs(reader, writer, headers)
            else:
                writer.write(_json_response(
                    "404 Not Found",
                    {"error": f"no route for {method} {path}"},
                ))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _lose_device(self, query: str) -> bytes:
        params = parse_qs(query)
        values = params.get("device", [])
        try:
            device_id = int(values[0])
        except (IndexError, ValueError):
            return _json_response(
                "400 Bad Request",
                {"error": "need ?device=<id>"},
            )
        if not 0 <= device_id < len(self.pool.devices):
            return _json_response(
                "400 Bad Request",
                {"error": f"no device {device_id}"},
            )
        self.pool.mark_device_lost(device_id, reason="debug")
        return _json_response("200 OK", {
            "ok": True,
            "device": device_id,
            "lost": self.pool.devices[device_id].lost,
        })

    async def _handle_events(self, writer: asyncio.StreamWriter) -> None:
        """``GET /events``: stream every pool event as NDJSON.

        Waits on the subscription queue *and* the shutdown event so a
        connected firehose can never block a graceful drain.
        """
        events = self.pool.subscribe()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        shutdown_wait = loop.create_task(self._shutdown.wait())
        get_task: Optional[asyncio.Task] = None
        try:
            while True:
                get_task = loop.create_task(events.get())
                done, _ = await asyncio.wait(
                    {get_task, shutdown_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if get_task in done:
                    writer.write(
                        (json.dumps(get_task.result()) + "\n")
                        .encode("utf-8")
                    )
                    while not events.empty():
                        writer.write(
                            (json.dumps(events.get_nowait()) + "\n")
                            .encode("utf-8")
                        )
                    await writer.drain()
                    get_task = None
                if shutdown_wait in done:
                    break
        finally:
            for task in (get_task, shutdown_wait):
                if task is not None and not task.done():
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
            self.pool.unsubscribe(events)

    # ------------------------------------------------------------------
    async def _handle_jobs(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
    ) -> None:
        events = self.pool.subscribe()
        ids: Set[int] = set()
        open_ids: Set[int] = set()
        default_tenant = headers.get("x-tenant", "default")
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def read_submissions() -> None:
            remaining = None
            if "content-length" in headers:
                remaining = int(headers["content-length"])
            while remaining is None or remaining > 0:
                line = await reader.readline()
                if not line:
                    break
                if remaining is not None:
                    remaining -= len(line)
                if len(line) > _MAX_BODY_LINE:
                    events.put_nowait({
                        "event": "reject", "error": "submission too large",
                    })
                    continue
                if not line.strip():
                    continue
                self._submit_line(line, default_tenant, ids, open_ids,
                                  events)
            events.put_nowait(dict(_SUBMISSIONS_DONE))

        reader_task = asyncio.get_running_loop().create_task(
            read_submissions()
        )
        submissions_done = False
        try:
            while not (submissions_done and not open_ids):
                event = await events.get()
                if event.get("event") == _SUBMISSIONS_DONE["event"]:
                    submissions_done = True
                    continue
                job_id = event.get("id")
                if job_id is not None and job_id not in ids:
                    continue  # another tenant's job
                writer.write(
                    (json.dumps(event) + "\n").encode("utf-8")
                )
                await writer.drain()
                if event.get("event") in ("done", "failed"):
                    open_ids.discard(job_id)
            writer.write(
                (json.dumps(self._batch_summary(ids)) + "\n")
                .encode("utf-8")
            )
            await writer.drain()
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, ConnectionError):
                pass
            self.pool.unsubscribe(events)

    def _submit_line(
        self,
        line: bytes,
        default_tenant: str,
        ids: Set[int],
        open_ids: Set[int],
        events: asyncio.Queue,
    ) -> None:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            events.put_nowait({
                "event": "reject", "error": f"bad JSON: {exc}",
            })
            return
        if not isinstance(payload, dict):
            events.put_nowait({
                "event": "reject",
                "error": "submission must be a JSON object",
            })
            return
        job_data = payload.get("job", payload)
        tenant = payload.get("tenant", default_tenant)
        try:
            spec = StreamJob.from_dict(job_data)
            job = self.pool.submit(spec, tenant=tenant)
        except (JobError, PoolError) as exc:
            events.put_nowait({
                "event": "reject",
                "job": job_data.get("name") if isinstance(job_data, dict)
                else None,
                "error": str(exc),
            })
            return
        ids.add(job.id)
        if not job.terminal:
            open_ids.add(job.id)

    def _batch_summary(self, ids: Set[int]) -> Dict:
        states: Dict[str, int] = {}
        words_out = words_lost = 0
        failures = []
        for job_id in sorted(ids):
            job = self.pool.job(job_id)
            if job is None:
                continue
            states[job.state] = states.get(job.state, 0) + 1
            if job.report is not None:
                words_out += job.report.words_out
                words_lost += job.report.words_lost
            if job.state == "failed":
                failures.append(
                    {"job": job.spec.name, "reason": job.failure_reason}
                )
        return {
            "event": "batch_done",
            "jobs": len(ids),
            "states": states,
            "words_out": words_out,
            "words_lost": words_lost,
            "ok": not failures and states.get("done", 0) == len(ids),
            "failures": failures[:20],
        }
