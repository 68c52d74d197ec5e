"""Threaded TCP front end: each request frame goes to ``Broker.handle``."""

from __future__ import annotations

import logging
import socket
import threading

from ..errors import MaliotError
from .core import Broker
from .protocol import OP_ERR, ProtocolError, encode_ack, encode_frame, read_frame

log = logging.getLogger(__name__)


class BrokerServer:
    """Accepts connections, one thread each, and hands their frames to
    ``Broker.handle``.  The broker core does the locking; handlers stay dumb."""

    def __init__(self, broker: Broker, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.host, self.port = self._sock.getsockname()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()  # open; close() shuts them down
        self._accept_thread: threading.Thread | None = None

    def start(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except OSError:
                break  # listening socket closed
            self._conns.add(conn)
            t = threading.Thread(
                target=self._serve_connection, args=(conn, addr), daemon=True
            )
            t.start()
            # keep only live threads, so a long-running broker stays bounded
            self._threads = [th for th in self._threads if th.is_alive()]
            self._threads.append(t)

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set():
                try:
                    opcode, body, _ = read_frame(conn)
                except ConnectionError:
                    return
                except ProtocolError as exc:
                    self._send_err(conn, exc)
                    return
                try:
                    frame = encode_ack(*self.broker.handle(opcode, body))
                except MaliotError as exc:
                    self._send_err(conn, exc)
                    continue
                except Exception:
                    log.exception("handler failure from %s", addr)
                    self._send_err(conn, MaliotError("internal error"))
                    continue
                try:
                    conn.sendall(frame)
                except OSError:
                    return
                frame = body = None  # not kept alive while the next request is awaited
        finally:
            self._conns.discard(conn)
            conn.close()

    def _send_err(self, conn, exc: Exception) -> None:
        body = {"error": type(exc).__name__, "message": str(exc)}
        try:
            conn.sendall(encode_frame(OP_ERR, body))
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        except OSError:
            pass
        self._sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        for conn in list(self._conns):
            try:
                conn.shutdown(socket.SHUT_RDWR)  # wakes a blocked read_frame
            except OSError:
                pass  # its thread closed it meanwhile
        self.broker.release_fetches()  # and a handler held in a fetch
        for t in self._threads:
            t.join(timeout=1.0)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.close()
