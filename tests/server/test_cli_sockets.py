"""``repro-serve --unix`` / ``--tcp``: the socket file, the announced
port and the bind errors.

A Unix server removes the socket file it bound when it stops -- on
``!shutdown``, SIGTERM or Ctrl-C -- so a restart on the same path works.
``--tcp HOST:0`` announces the port the OS picked.  A bind that fails
(the path or port is live) is one ``repro-serve: error:`` line and exit
status 2, a usage error, and the live server keeps serving.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.server import RaceDetectionService, ServiceConfig, serve_tcp
from repro.server.cli import main as serve_main
from tests.helpers import start_tcp_node


def talk(connect, text):
    """Send ``text`` on a fresh connection and return the first reply line."""
    with connect() as sock:
        sock.sendall(text.encode("utf-8"))
        return sock.makefile("r", encoding="utf-8").readline().strip()


def unix_connect(path):
    def connect():
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(10.0)
            sock.connect(path)
        except OSError:
            sock.close()
            raise
        return sock

    return connect


def start_unix_server(path):
    """``repro-serve --unix path`` in a thread; returns (thread, exit codes)
    once it accepts connections."""
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(serve_main(["--unix", path])), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while True:
        try:
            unix_connect(path)().close()
            return thread, codes
        except OSError:
            assert time.monotonic() < deadline, "the server never listened"
            time.sleep(0.01)


def test_a_restart_on_the_same_path_answers_ping(tmp_path, capsys):
    path = str(tmp_path / "serve.sock")
    for _ in range(2):
        thread, codes = start_unix_server(path)
        assert talk(unix_connect(path), "!ping\n") == "ok pong"
        assert talk(unix_connect(path), "!shutdown\n").startswith("ok shutdown")
        thread.join(timeout=10.0)
        assert codes == [0]
        assert not os.path.exists(path)
    assert "Traceback" not in capsys.readouterr().err


def test_a_second_server_on_a_live_path_exits_2(tmp_path, capsys):
    path = str(tmp_path / "serve.sock")
    thread, codes = start_unix_server(path)
    try:
        capsys.readouterr()
        assert serve_main(["--unix", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-serve: error: cannot listen on unix://{path}:")
        assert "Traceback" not in err
        assert os.path.exists(path)
        assert talk(unix_connect(path), "!ping\n") == "ok pong"
    finally:
        talk(unix_connect(path), "!shutdown\n")
        thread.join(timeout=10.0)
    assert codes == [0]


def test_a_second_server_on_a_live_port_exits_2(capsys):
    with RaceDetectionService(ServiceConfig()) as service:
        server = serve_tcp(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        port = server.server_address[1]
        try:
            assert serve_main(["--tcp", f"127.0.0.1:{port}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"repro-serve: error: cannot listen on tcp://127.0.0.1:{port}:"
            )
            assert "Traceback" not in err

            def connect():
                return socket.create_connection(("127.0.0.1", port), timeout=10.0)

            assert talk(connect, "!ping\n") == "ok pong"
        finally:
            server.shutdown()
            server.server_close()


def test_port_0_announces_the_port_it_bound():
    proc, port = start_tcp_node()
    try:
        assert port != 0

        def connect():
            return socket.create_connection(("127.0.0.1", port), timeout=10.0)

        assert talk(connect, "!ping\n") == "ok pong"
        assert talk(connect, "!shutdown\n").startswith("ok shutdown")
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.mark.parametrize(
    "signum, code",
    [(signal.SIGTERM, 128 + signal.SIGTERM), (signal.SIGINT, 0)],
    ids=["sigterm", "ctrl-c"],
)
def test_a_signalled_server_removes_its_socket_file(tmp_path, signum, code):
    """The SIGTERM handler raises SystemExit out of serve_forever, Ctrl-C a
    KeyboardInterrupt: the socket file goes either way."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = str(tmp_path / "serve.sock")
    with subprocess.Popen(
        [sys.executable, "-m", "repro.server.cli", "--unix", path],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            assert "listening" in proc.stderr.readline()
            assert talk(unix_connect(path), "!ping\n") == "ok pong"
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == code
        finally:
            proc.kill()
        assert "Traceback" not in proc.stderr.read()
    assert not os.path.exists(path)
