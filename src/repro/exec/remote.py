"""Remote execution: worker daemons over TCP as scheduler lanes.

:class:`RemoteExecutor` is the multi-host sibling of
:class:`~repro.exec.supervise.SupervisedExecutor`: the same cost-packed
chunks under the same failure contract (:mod:`repro.exec.scheduler`),
but its lanes are connections to :class:`WorkerServer` daemons
(``scripts/worker.py``).  A :class:`~repro.exec.task.SimTask` is plain
fingerprinted data, so shipping it to another host cannot change what
it computes.  This module holds what only a socket adds:

* **Framing** — length-prefixed, CRC-checked pickled frames.  A frame
  that fails its magic, length bound, checksum or unpickling means the
  byte stream has desynced: the lane is reported lost, exactly like
  EOF.  Messages that decode but are not shaped like the protocol's
  are ignored before they reach the scheduler.
* **Sessions and replay** — a lost connection reconnects with
  exponential backoff under a resumable session id, and the daemon
  answers re-dispatched tasks from that session's result cache
  (:class:`WorkerServer`).  After ``max_reconnects`` consecutive
  failures the worker is written off as dead.
* **Graceful degradation** — zero reachable workers (at startup or
  mid-batch) falls back to a local
  :class:`~repro.exec.supervise.SupervisedExecutor` with a warning,
  never an error.
* **Wire faults** — the ``conn-drop`` / ``frame-corrupt`` /
  ``partition`` / ``delay`` kinds of :mod:`repro.exec.faults` fire at
  the daemon's send boundary (:meth:`WorkerServer._send`).

Security note: frames are pickled Python objects.  The checksum detects
*corruption*, not tampering — run workers only on hosts/networks you
trust, exactly like any other pickle-based RPC
(``multiprocessing.connection`` included).
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import threading
import time
import uuid
import warnings
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from . import faults
from .executors import ProcessPoolExecutor
from .scheduler import LOST, RetryPolicy, run_assignment
from .supervise import SupervisedExecutor
from .task import SimTask, SimTaskResult

__all__ = ["FrameError", "RemoteExecutor", "RemoteStats", "WorkerServer",
           "parse_workers", "recv_frame", "send_frame", "serve_worker"]

# ----------------------------------------------------------------------
# Wire format: 4-byte magic, big-endian (crc32, length) header, pickled
# payload.  The CRC covers the *uncorrupted* payload, so a frame whose
# bytes were damaged in flight (or by the frame-corrupt chaos fault)
# fails the checksum instead of unpickling garbage.

_MAGIC = b"RPX1"
_HEADER = struct.Struct(">4sII")
#: Refuse absurd frame lengths outright — a desynced or hostile stream
#: must not convince the client to buffer gigabytes.
_MAX_FRAME = 1 << 28


class FrameError(RuntimeError):
    """A frame failed its magic, length bound, or checksum.

    Always treated as a broken connection: once the byte stream has
    desynced there is no way to find the next frame boundary, so the
    peer is dropped and (client-side) the reconnect path takes over.
    """


class _DropConnection(Exception):
    """Internal: the conn-drop chaos fault — abandon this connection."""


def _corrupted(payload: bytes) -> bytes:
    """Flip the first bytes of ``payload`` (chaos: frame-corrupt)."""
    return bytes(b ^ 0xFF for b in payload[:16]) + payload[16:]


def send_frame(sock: socket.socket, obj, corrupt: bool = False) -> None:
    """Pickle ``obj`` and send it as one checksummed frame."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF,
                          len(payload))
    sock.sendall(header + (_corrupted(payload) if corrupt else payload))


def _open_header(header: bytes) -> Tuple[int, int]:
    """Check a frame header; return its ``(crc, payload length)``."""
    magic, crc, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > _MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds limit")
    return crc, length


def _open_payload(payload: bytes, crc: int):
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("frame checksum mismatch")
    return pickle.loads(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        data = sock.recv(n - len(buf))
        if not data:
            raise ConnectionError("connection closed mid-frame")
        buf.extend(data)
    return bytes(buf)


def recv_frame(sock: socket.socket):
    """Blocking read of one frame (daemon side / client handshake)."""
    crc, length = _open_header(_recv_exact(sock, _HEADER.size))
    return _open_payload(_recv_exact(sock, length), crc)


def _parse_frames(buf: bytearray) -> List:
    """Pop every complete frame off ``buf`` (client's per-conn buffer)."""
    out = []
    while len(buf) >= _HEADER.size:
        crc, length = _open_header(bytes(buf[:_HEADER.size]))
        end = _HEADER.size + length
        if len(buf) < end:
            break
        payload = bytes(buf[_HEADER.size:end])
        del buf[:end]
        out.append(_open_payload(payload, crc))
    return out


# ----------------------------------------------------------------------
# Worker daemon.


class _SessionCache:
    """One client session's results by task fingerprint, LRU-capped.

    Locked: after a reconnect the thread serving the old connection may
    still be finishing an assignment under the same session.
    """

    def __init__(self, size: int):
        self._size = size
        self._results: "OrderedDict[str, SimTaskResult]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[SimTaskResult]:
        with self._lock:
            result = self._results.get(key)
            if result is not None:
                self._results.move_to_end(key)
            return result

    def put(self, key: str, result: SimTaskResult) -> None:
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            while len(self._results) > self._size:
                self._results.popitem(last=False)


class WorkerServer:
    """A worker daemon serving :class:`RemoteExecutor` clients.

    Thread-per-connection; each connection carries one assignment at a
    time (mirroring one local worker process).  Results are cached per
    *session* keyed by task fingerprint, capped LRU at ``cache_size``
    entries — a client that reconnects under its session id and
    re-dispatches tasks whose results were lost in flight gets instant
    cache hits instead of recomputes.  A session lives until its client
    says ``bye``; a connection that merely drops keeps it, because that
    client may be about to resume.

    ``injector`` overrides fault injection explicitly (tests); when
    ``None``, the daemon uses :func:`repro.exec.faults.injector_from_env`
    — armed only in processes marked by
    :func:`~repro.exec.faults.mark_worker_process`, which
    :func:`serve_worker` (and so ``scripts/worker.py``) does.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 injector: Optional[faults.FaultInjector] = None,
                 cache_size: int = 4096):
        self.host = host
        self.port = port
        self.injector = injector
        self.cache_size = max(int(cache_size), 1)
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: Dict[str, _SessionCache] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Bind, listen, and serve in background threads; return the
        bound port (useful with ``port=0``)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(16)
        sock.settimeout(0.2)       # so the accept loop can see stop()
        self._sock = sock
        self.port = sock.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept",
            daemon=True)
        self._accept_thread.start()
        return self.port

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (or KeyboardInterrupt)."""
        if self._sock is None:
            self.start()
        try:
            while not self._stop.is_set():
                thread = self._accept_thread
                if thread is None or not thread.is_alive():
                    break
                thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            sock = self._sock
            if sock is None:
                return
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn,),
                             name="repro-worker-conn",
                             daemon=True).start()

    # -- per-connection protocol -------------------------------------------

    def _active_injector(self) -> Optional[faults.FaultInjector]:
        if self.injector is not None:
            return self.injector
        try:
            return faults.injector_from_env()
        except ValueError:
            return None

    def _serve_conn(self, sock: socket.socket) -> None:
        try:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            hello = recv_frame(sock)
            if not (isinstance(hello, tuple) and len(hello) >= 2
                    and hello[0] == "hello"):
                return
            sid = hello[1] or uuid.uuid4().hex
            with self._lock:
                cache = self._sessions.setdefault(
                    sid, _SessionCache(self.cache_size))
            send_frame(sock, ("welcome", sid))
            while not self._stop.is_set():
                msg = recv_frame(sock)
                kind = msg[0] if isinstance(msg, tuple) and msg else None
                if kind == "bye":
                    # The client has discarded the session id: it can
                    # never resume, so the cache is garbage.
                    with self._lock:
                        self._sessions.pop(sid, None)
                    return
                if kind == "ping":
                    send_frame(sock, ("pong",))
                elif kind == "run" and len(msg) == 5:
                    injector = self._active_injector()
                    attempt = msg[2]
                    try:
                        run_assignment(
                            msg[1:],
                            lambda message, key: self._send(
                                sock, injector, key, attempt, message),
                            injector, cache)
                    except OSError:
                        # The client stopped listening mid-assignment
                        # (say, it abandoned a stolen tail and closed).
                        # Its ``bye`` may be queued behind the failed
                        # send: keep reading — that, or EOF, ends this.
                        continue
        except (_DropConnection, FrameError, ConnectionError, OSError,
                EOFError, pickle.PickleError):
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _send(self, sock, injector, key: Optional[str], attempt: int,
              message) -> None:
        """Send one frame; on a result (``key`` set), apply any
        scheduled wire fault.

        Faults fire *after* the result is computed and cached, so the
        client's re-dispatch under the same session costs a round-trip,
        not a recompute.
        """
        kind = (injector.on_wire(key, attempt)
                if injector is not None and key is not None else None)
        if kind == "conn-drop":
            raise _DropConnection(key)
        if kind == "partition":
            time.sleep(injector.plan.partition_s)
        elif kind == "delay":
            time.sleep(injector.plan.delay_s)
        send_frame(sock, message, corrupt=(kind == "frame-corrupt"))


def serve_worker(host: str = "127.0.0.1", port: int = 0,
                 cache_size: int = 4096,
                 on_ready: Optional[Callable[[int], None]] = None) -> None:
    """Run one worker daemon in this process until interrupted.

    Marks the process as a worker first
    (:func:`~repro.exec.faults.mark_worker_process`), so a
    ``REPRO_FAULTS`` plan arms in-task and wire faults *here* — never in
    the dispatching client, whose serial-fallback runs must stay clean.
    ``on_ready`` (if given) receives the bound port once listening.
    """
    faults.mark_worker_process()
    server = WorkerServer(host=host, port=port, cache_size=cache_size)
    bound = server.start()
    if on_ready is not None:
        on_ready(bound)
    server.serve_forever()


# ----------------------------------------------------------------------
# Client.


@dataclass
class RemoteStats:
    """Cumulative counters, mostly for the chaos tests and logs."""

    conn_losses: int = 0        # connections dropped mid-assignment
    reconnects: int = 0         # successful session-resuming reconnects
    dead_workers: int = 0       # workers written off after max_reconnects
    lease_expiries: int = 0     # assignments whose heartbeat lease blew
    frame_errors: int = 0       # corrupt frames (checksum/magic/pickle)
    retries: int = 0            # single-task retries
    bisections: int = 0         # crash-triggered chunk splits
    resubmissions: int = 0      # assignments requeued after a crash
    steals: int = 0             # work-stealing re-packs of batch tails
    duplicates: int = 0         # tasks speculatively duplicated by steals
    serial_fallbacks: int = 0   # in-process last-resort executions
    quarantined: int = 0        # tasks finalized as failure results
    local_fallbacks: int = 0    # batches degraded to the local pool


class _Conn:
    """One worker address plus its connection state."""

    __slots__ = ("addr", "sock", "buf", "session", "state", "failures",
                 "retry_at")

    def __init__(self, addr: Tuple[str, int]):
        self.addr = addr
        self.sock: Optional[socket.socket] = None
        self.buf = bytearray()
        self.session: Optional[str] = None
        #: offline | idle | busy | backoff | dead
        self.state = "offline"
        self.failures = 0          # consecutive connect failures
        self.retry_at = 0.0


def _well_formed(msg) -> bool:
    """Shape check on a decoded frame before the scheduler indexes
    into it — the peer is another host, not a child of this process."""
    if not isinstance(msg, tuple) or len(msg) < 2:
        return False
    return msg[0] == "done" or (msg[0] in ("result", "failure")
                                and len(msg) >= 4)


def parse_workers(spec: Union[str, Sequence]) -> List[Tuple[str, int]]:
    """``"host:port,host:port"`` (or a sequence of strings / (host,
    port) pairs) -> a list of addresses.  Listing an address twice opens
    two lanes to that daemon — the unit of client-side parallelism is
    the connection."""
    if isinstance(spec, str):
        parts: List = [part.strip() for part in spec.split(",")
                       if part.strip()]
    else:
        parts = list(spec)
    addrs: List[Tuple[str, int]] = []
    for part in parts:
        if isinstance(part, (tuple, list)) and len(part) == 2:
            addrs.append((str(part[0]), int(part[1])))
            continue
        host, sep, port = str(part).rpartition(":")
        try:
            addrs.append((host, int(port)))
        except ValueError:
            sep = ""
        if not sep or not host:
            raise ValueError(
                f"worker address must be HOST:PORT, got {part!r}")
    return addrs


class RemoteExecutor(ProcessPoolExecutor):
    """Fan tasks out to remote worker daemons.

    A :class:`~repro.exec.executors.ProcessPoolExecutor` whose lanes
    are TCP connections to :class:`WorkerServer` daemons, one per
    listed address.  ``policy`` is the same
    :class:`~repro.exec.scheduler.RetryPolicy` the local supervised
    executor takes; ``steal`` lets an idle lane speculatively duplicate
    the tail of a busy one (first result wins).

    ``fallback_jobs`` sizes the local
    :class:`~repro.exec.supervise.SupervisedExecutor` used when zero
    workers are reachable (default: one per local core).  The fallback
    is created lazily and owned by this executor — ``close()`` releases
    it exactly once.
    """

    def __init__(self, workers: Union[str, Sequence],
                 chunk_size: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None,
                 fallback_jobs: Optional[int] = None,
                 connect_timeout_s: float = 5.0,
                 reconnect_base_s: float = 0.2,
                 reconnect_max_s: float = 5.0,
                 max_reconnects: int = 4,
                 steal: bool = True):
        addrs = parse_workers(workers)
        if not addrs:
            raise ValueError("RemoteExecutor needs at least one worker "
                             "address (HOST:PORT)")
        super().__init__(jobs=len(addrs), chunk_size=chunk_size,
                         policy=policy)
        self.addrs = addrs
        self.stats = RemoteStats()
        self.fallback_jobs = fallback_jobs
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_max_s = reconnect_max_s
        self.max_reconnects = max_reconnects
        self.steal = steal
        self._conns: List[_Conn] = []
        self._fallback: Optional[SupervisedExecutor] = None
        self._reachable = False    # some lane was open at batch start

    # -- connection lifecycle ---------------------------------------------

    def _backoff(self, conn: _Conn) -> None:
        conn.failures += 1
        if conn.failures > self.max_reconnects:
            conn.state = "dead"
            self.stats.dead_workers += 1
        else:
            conn.state = "backoff"
            conn.retry_at = time.monotonic() + min(
                self.reconnect_base_s * 2.0 ** (conn.failures - 1),
                self.reconnect_max_s)

    def _open(self, conn: _Conn) -> bool:
        """Connect + handshake; on failure schedule a backoff retry."""
        resuming = conn.session is not None
        try:
            sock = socket.create_connection(
                conn.addr, timeout=self.connect_timeout_s)
            try:
                sock.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
            except OSError:
                pass
            # Stay under a timeout permanently: sends that wedge (peer
            # gone but TCP hasn't noticed) surface as socket.timeout
            # instead of blocking the dispatch loop forever.
            sock.settimeout(self.connect_timeout_s)
            send_frame(sock, ("hello", conn.session))
            msg = recv_frame(sock)
            if not (isinstance(msg, tuple) and len(msg) >= 2
                    and msg[0] == "welcome"):
                sock.close()
                raise FrameError("bad handshake")
            conn.session = msg[1]
        except (OSError, FrameError, ConnectionError, EOFError,
                pickle.PickleError):
            self._backoff(conn)
            return False
        conn.sock = sock
        conn.buf = bytearray()
        conn.state = "idle"
        conn.failures = 0
        if resuming:
            self.stats.reconnects += 1
        return True

    def stranded(self, tasks: List[SimTask], positions: List[int]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        """Graceful degradation: run ``positions`` on the local
        supervised pool, warning (not erroring) about the downgrade."""
        warnings.warn(
            f"remote execution degraded (no reachable workers); running "
            f"{len(positions)} task(s) on the local supervised pool",
            RuntimeWarning, stacklevel=3)
        self.stats.local_fallbacks += 1
        if self._fallback is None:
            self._fallback = SupervisedExecutor(self.fallback_jobs,
                                                policy=self.policy)
        stream = self._fallback.run_iter([tasks[pos] for pos in positions])
        try:
            for j, result in stream:
                yield positions[j], result
        finally:
            # Deterministic teardown: if this generator is abandoned
            # mid-stream, close the inner one *now* so the fallback's
            # busy workers are reaped immediately, not at GC time.
            stream.close()

    # -- the scheduler's lanes --------------------------------------------

    def begin(self) -> None:
        if not self._conns:
            self._conns = [_Conn(addr) for addr in self.addrs]
        for conn in self._conns:
            if conn.state in ("offline", "backoff"):
                self._open(conn)
        # A cluster that is not there when the batch starts degrades at
        # once; one that was there is given its reconnect backoffs.
        self._reachable = any(c.state == "idle" for c in self._conns)

    def exhausted(self) -> bool:
        states = {conn.state for conn in self._conns}
        return not (states & {"idle", "busy"}
                    or self._reachable and "backoff" in states)

    def acquire(self) -> Optional[_Conn]:
        conn = next((c for c in self._conns if c.state == "idle"), None)
        if conn is not None:
            conn.state = "busy"
        return conn

    def launch(self, conn: _Conn, assignment: tuple) -> bool:
        try:
            send_frame(conn.sock, ("run",) + assignment)
        except (OSError, ConnectionError):
            return False
        return True

    def wait(self, timeout: float) -> List[Tuple[_Conn, object]]:
        now = time.monotonic()
        for conn in self._conns:
            if conn.state == "backoff" and now >= conn.retry_at:
                self._open(conn)
        by_sock = {conn.sock: conn for conn in self._conns
                   if conn.state in ("idle", "busy")}
        if not by_sock:
            time.sleep(timeout)
            return []
        try:
            readable, _, _ = select.select(list(by_sock), [], [], timeout)
        except (OSError, ValueError):
            readable = list(by_sock)
        events: List[Tuple[_Conn, object]] = []
        for sock in readable:
            conn = by_sock[sock]
            try:
                while True:
                    r, _, _ = select.select([sock], [], [], 0)
                    if not r:
                        break
                    data = sock.recv(1 << 16)
                    if not data:
                        raise ConnectionError("EOF")
                    conn.buf.extend(data)
                msgs = _parse_frames(conn.buf)
            except (ConnectionError, OSError):
                events.append((conn, LOST))
                continue
            except (FrameError, pickle.PickleError, EOFError,
                    AttributeError, ValueError, IndexError):
                self.stats.frame_errors += 1
                events.append((conn, LOST))
                continue
            events.extend((conn, msg) for msg in msgs
                          if _well_formed(msg))
        return events

    def release(self, conn: _Conn) -> None:
        conn.state = "idle"

    #: Nobody waits for the assignment any more, but the socket is
    #: healthy: keep it warm — late frames carry a stale assignment id
    #: and are discarded by the scheduler.
    abandon = release

    def drop(self, conn: _Conn, kind: str) -> None:
        if kind == "worker-death":
            self.stats.conn_losses += 1
        else:
            self.stats.lease_expiries += 1
        sock, conn.sock = conn.sock, None
        conn.buf = bytearray()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self._backoff(conn)

    def close(self) -> None:
        # Detach everything *first* (same discipline as the local
        # executor): a repeated close() — e.g. after a mid-batch
        # fallback already tore things down — is a clean no-op, and
        # the lazily-created fallback pool is released exactly once.
        conns, self._conns = self._conns, []
        fallback, self._fallback = self._fallback, None
        for conn in conns:
            sock, conn.sock = conn.sock, None
            if sock is not None:
                try:
                    send_frame(sock, ("bye",))
                except (OSError, ConnectionError):
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
        if fallback is not None:
            fallback.close()
