"""CLI service verbs + the byte-identity property.

The acceptance bar for the service: a job's stored output is
byte-identical to what the direct CLI command prints for the same
request.  The property test drives randomly drawn requests through both
paths — ``scaltool <cmd>`` inline vs submit-over-HTTP — and compares
the bytes.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.http import ServiceServer

from .conftest import WARM_COUNTS, WARM_S0

WARM_ARGS = ["synthetic", "--s0", str(WARM_S0), "--counts", ",".join(map(str, WARM_COUNTS))]


@pytest.fixture(scope="module")
def server(warm_root):
    srv = ServiceServer(ServiceConfig(cache_dir=warm_root, workers=2), port=0).start()
    yield srv
    srv.shutdown(drain_timeout=30)


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, f"scaltool {' '.join(argv)} exited {rc}"
    return buf.getvalue()


class TestCliVerbs:
    def test_submit_wait_prints_job_output(self, server, warm_root, capsys):
        rc = main(["submit", "analyze", *WARM_ARGS, "--wait", "--url", server.url])
        captured = capsys.readouterr()
        assert rc == 0
        assert "job j" in captured.err
        direct = cli_stdout(["analyze", *WARM_ARGS, "--cache-dir", str(warm_root)])
        assert captured.out == direct

    def test_submit_prints_job_id_without_wait(self, server, capsys):
        rc = main(["submit", "analyze", *WARM_ARGS, "--url", server.url])
        captured = capsys.readouterr()
        assert rc == 0
        job_id = captured.out.strip()
        assert job_id.startswith("j") and len(job_id) == 17

    def test_status_prints_json(self, server, capsys):
        main(["submit", "analyze", *WARM_ARGS, "--url", server.url])
        job_id = capsys.readouterr().out.strip()
        assert main(["status", job_id, "--url", server.url]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["id"] == job_id
        assert status["kind"] == "analyze"

    def test_result_waits_and_prints(self, server, warm_root, capsys):
        main(["submit", "analyze", *WARM_ARGS, "--url", server.url])
        job_id = capsys.readouterr().out.strip()
        assert main(["result", job_id, "--wait", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert out == cli_stdout(["analyze", *WARM_ARGS, "--cache-dir", str(warm_root)])

    def test_result_of_unknown_job_is_error(self, server, capsys):
        assert main(["result", "j" + "e" * 16, "--url", server.url]) == 1
        assert "error" in capsys.readouterr().err

    def test_submit_arg_flag_builds_payload(self, server, warm_root, capsys):
        rc = main(
            [
                "submit",
                "whatif",
                *WARM_ARGS,
                "--arg",
                "tm=0.5",
                "--wait",
                "--url",
                server.url,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        direct = cli_stdout(
            ["whatif", *WARM_ARGS, "--tm", "0.5", "--cache-dir", str(warm_root)]
        )
        assert captured.out == direct

    def test_submit_bad_arg_rejected(self, server, capsys):
        rc = main(["submit", "whatif", "synthetic", "--arg", "oops", "--url", server.url])
        assert rc == 1
        assert "bad --arg" in capsys.readouterr().err

    def test_unreachable_service_is_cli_error(self, capsys):
        rc = main(["status", "j" + "0" * 16, "--url", "http://127.0.0.1:9"])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err


class TestBlameByteIdentity:
    def test_blame_json_serial_vs_parallel_is_byte_identical(self, warm_root):
        base = ["blame", *WARM_ARGS, "--cache-dir", str(warm_root), "--json"]
        serial = cli_stdout(base + ["--jobs", "1"])
        parallel = cli_stdout(base + ["--jobs", "2"])
        assert serial == parallel


class TestByteIdentityProperty:
    """Service output == direct CLI output, for randomly drawn requests."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        t2=st.sampled_from([0.5, 1.0, 2.0]),
        tm=st.sampled_from([0.25, 1.0, 4.0]),
        tsyn=st.sampled_from([0.5, 1.0]),
    )
    def test_whatif_identical_over_http(self, server, warm_root, t2, tm, tsyn):
        client = ServiceClient(server.url, timeout=30)
        submitted = client.submit(
            "whatif",
            {
                "workload": "synthetic",
                "s0": WARM_S0,
                "counts": list(WARM_COUNTS),
                "t2": t2,
                "tm": tm,
                "tsyn": tsyn,
            },
        )
        view = client.wait(submitted["id"], timeout=120)
        assert view["state"] == "done", view.get("error")
        direct = cli_stdout(
            [
                "whatif",
                *WARM_ARGS,
                "--t2",
                str(t2),
                "--tm",
                str(tm),
                "--tsyn",
                str(tsyn),
                "--cache-dir",
                str(warm_root),
            ]
        )
        assert view["result"]["output"] == direct

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(markdown=st.booleans())
    def test_analyze_identical_over_http(self, server, warm_root, markdown):
        client = ServiceClient(server.url, timeout=30)
        submitted = client.submit(
            "analyze",
            {
                "workload": "synthetic",
                "s0": WARM_S0,
                "counts": list(WARM_COUNTS),
                "markdown": markdown,
            },
        )
        view = client.wait(submitted["id"], timeout=120)
        assert view["state"] == "done", view.get("error")
        argv = ["analyze", *WARM_ARGS, "--cache-dir", str(warm_root)]
        if markdown:
            argv.append("--markdown")
        assert view["result"]["output"] == cli_stdout(argv)
