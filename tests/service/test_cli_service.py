"""CLI service verbs: ``repro serve`` and ``repro loadgen`` end to end."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.cli import main


@pytest.mark.parametrize("verb", ["serve", "loadgen"])
def test_help_exits_zero(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert verb in capsys.readouterr().out


def test_loadgen_spawn_round_trip(capsys):
    code = main(
        [
            "loadgen", "--spawn", "--requests", "8", "--clients", "2",
            "--mix-seed", "3", "--ns", "48,64", "--json", "-",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    # Summary lines plus the JSON accounting on stdout.
    assert "coalescing:" in out
    data = json.loads(out[out.index("{"):])
    assert data["requests"] == 8
    assert data["errors"] == 0
    assert data["coalesce_hits"] > 0


def test_serve_then_loadgen_then_shutdown(tmp_path, capsys):
    port_file = tmp_path / "port"
    rc: dict[str, int] = {}

    def serve():
        rc["serve"] = main(
            ["serve", "--port", "0", "--port-file", str(port_file), "--workers", "1"]
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    deadline = time.monotonic() + 15
    while not port_file.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert port_file.exists(), "server never wrote its port file"
    host, port = port_file.read_text().split()

    code = main(
        [
            "loadgen", "--host", host, "--port", port, "--requests", "6",
            "--clients", "2", "--ns", "48", "--mix-seed", "1", "--shutdown",
        ]
    )
    assert code == 0
    thread.join(timeout=15)
    assert not thread.is_alive(), "server did not stop after loadgen --shutdown"
    assert rc["serve"] == 0
    out = capsys.readouterr().out
    assert "listening on" in out
    assert "coalescing:" in out


def test_port_file_holds_the_address_once_it_exists(tmp_path, capsys):
    # A wrapper that polls for --port-file and reads it at once must never
    # see the file before "host port" is in it.  A tiny switch interval
    # lets the polling thread run between the serving thread's steps.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(3):
            port_file = tmp_path / f"port{trial}"
            thread = threading.Thread(
                target=main,
                args=(["serve", "--port", "0", "--port-file", str(port_file), "--workers", "1"],),
                daemon=True,
            )
            thread.start()
            deadline = time.monotonic() + 15
            while not port_file.exists() and time.monotonic() < deadline:
                pass
            fields = port_file.read_text().split()
            assert len(fields) == 2, f"port file read as {fields!r}"
            host, port = fields
            assert main(
                ["loadgen", "--host", host, "--port", port, "--requests", "1",
                 "--ns", "16", "--shutdown"]
            ) == 0
            thread.join(timeout=15)
            assert not thread.is_alive(), "server did not stop after loadgen --shutdown"
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()


def test_loadgen_max_inflight_is_a_cli_knob(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["loadgen", "--help"])
    assert exc.value.code == 0
    assert "--max-inflight" in capsys.readouterr().out
    # A 1-wide gate at an instantaneous schedule: the drive still serves
    # everything and reports the honest (scheduled-arrival) queue wait.
    code = main(
        [
            "loadgen", "--spawn", "--requests", "6", "--mode", "open",
            "--rate", "50000", "--max-inflight", "1",
            "--mix-seed", "3", "--ns", "48,64",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "6/6 ok" in out
    assert "queue wait (open-loop, scheduled-arrival basis)" in out


def test_loadgen_connection_refused_fails_cleanly(capsys):
    code = main(
        ["loadgen", "--host", "127.0.0.1", "--port", "1", "--requests", "2",
         "--timeout", "2"]
    )
    assert code == 1
    assert "cannot drive" in capsys.readouterr().err
