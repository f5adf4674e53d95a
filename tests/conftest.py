"""Shared fixtures and the acceptance-summary hook.

Acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook below re-prints them at the end of the run so the
pass/fail status of every criterion is visible in plain `pytest` output.
"""

import errno
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from popalign import io as pio
from popalign.parallel import blas_threads

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def session_blas_threads():
    return blas_threads()


@pytest.fixture(autouse=True)
def blas_threads_unchanged(session_blas_threads):
    """Fail any test that leaves numpy's OpenBLAS thread count changed.

    parallel.run_pair pins the count to one thread while a pair runs; a pin
    that leaked would silently slow every later product. Where the count
    cannot be read, there is no pin and nothing to check.
    """
    yield
    if session_blas_threads is not None:
        assert blas_threads() == session_blas_threads, "the OpenBLAS thread count leaked"


class _FullDisk:
    """A text file whose every write puts down half its text, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Calling the fixture's value with a path makes every file popalign.io
    creates beside that path fail part-way through its first write, as on a
    full disk; every other file opens as usual."""
    real_open = open

    def fail_beside(target):
        def fake_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh) if "x" in mode and str(file).startswith(str(target)) else fh

        monkeypatch.setattr(pio, "open", fake_open, raising=False)

    return fail_beside


@pytest.fixture
def counting_server():
    """Start local endpoints that answer every POST with one fixed reply.

    Calling the fixture's value with (status, body) returns the endpoint URL
    and a list that grows by one entry per POST received.
    """
    servers = []

    def start(status, body):
        posts = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                posts.append(self.path)
                payload = body.encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(
            target=lambda: httpd.serve_forever(poll_interval=0.02), daemon=True
        ).start()
        servers.append(httpd)
        return f"http://127.0.0.1:{httpd.server_port}/respond", posts

    yield start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()
