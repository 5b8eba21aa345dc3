"""The ``models`` request kind end to end: byte-identity and lineage.

The model suite is a service citizen like every other kind: a ``models``
job on a live server must produce output and data byte-identical to the
direct CLI invocation over the same campaign, a dataset-mode job must
compile to zero run specs (nothing to execute — the curve came inline),
and serial vs ``--jobs N`` execution must not change a byte.
"""

from __future__ import annotations

import json

import pytest

from repro.models import SpeedupDataset, SpeedupPoint, usl_speedup
from repro.service import requests as req_mod
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.http import ServiceServer

from .test_cli_service import cli_stdout

# The warm conftest campaign stops at 2 counts; the model fits need >= 4.
MODELS_S0 = 163840
MODELS_COUNTS = (1, 2, 4, 8)
MODELS_PAYLOAD = {
    "workload": "synthetic",
    "s0": MODELS_S0,
    "counts": list(MODELS_COUNTS),
    "action": "compare",
}
MODELS_ARGS = [
    "synthetic", "--s0", str(MODELS_S0), "--counts", ",".join(map(str, MODELS_COUNTS)),
]


@pytest.fixture(scope="module")
def models_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("models-cache")
    req_mod.compile_request(
        "campaign", {k: MODELS_PAYLOAD[k] for k in ("workload", "s0", "counts")}
    ).execute(cache_root=root)
    return root


@pytest.fixture(scope="module")
def server(models_root):
    srv = ServiceServer(ServiceConfig(cache_dir=models_root, workers=2), port=0).start()
    yield srv
    srv.shutdown(drain_timeout=30)


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url, timeout=60)


@pytest.fixture(scope="module")
def compare_job(client):
    submitted = client.submit("models", MODELS_PAYLOAD)
    view = client.wait(submitted["id"], timeout=300)
    assert view["state"] == "done", view.get("error")
    return client.result(submitted["id"])["result"]


def external_curve() -> dict:
    points = [
        SpeedupPoint(n=n, speedup=usl_speedup(n, 0.05, 0.002))
        for n in (1, 2, 4, 8, 16)
    ]
    return SpeedupDataset(label="external", points=points).to_dict()


class TestModelsJobs:
    def test_registered_kind(self):
        assert "models" in req_mod.REQUEST_KINDS

    def test_job_output_matches_cli_bytes(self, compare_job, models_root):
        out = cli_stdout(
            ["models", "compare", *MODELS_ARGS, "--cache-dir", str(models_root)]
        )
        assert out == compare_job["output"]

    def test_job_data_matches_cli_json_bytes(self, compare_job, models_root):
        out = cli_stdout(
            ["models", "compare", *MODELS_ARGS, "--cache-dir", str(models_root), "--json"]
        )
        want = json.dumps(compare_job["data"], indent=2, sort_keys=True) + "\n"
        assert out == want

    def test_job_carries_lineage(self, compare_job):
        lineage = compare_job.get("lineage")
        assert lineage and lineage["kind"] == "models"
        assert len(lineage["specs"]) > 0

    def test_dataset_mode_compiles_to_zero_specs(self):
        request = req_mod.compile_request(
            "models", {"action": "fit", "dataset": external_curve()}
        )
        assert request.specs() == []

    def test_dataset_mode_job_runs_without_campaign(self, client):
        submitted = client.submit(
            "models", {"action": "compare", "dataset": external_curve()}
        )
        view = client.wait(submitted["id"], timeout=120)
        assert view["state"] == "done", view.get("error")
        data = client.result(submitted["id"])["result"]["data"]
        assert data["models"]["usl"]["params"]["sigma"] == pytest.approx(0.05, abs=1e-6)
        assert data["agreement"]["details"]["has_decomposition"] is False

    def test_repeat_execution_is_byte_identical(self, models_root):
        request = req_mod.compile_request("models", MODELS_PAYLOAD)
        first = request.execute(cache_root=models_root)
        second = req_mod.compile_request("models", MODELS_PAYLOAD).execute(
            cache_root=models_root
        )
        assert first.output == second.output
        assert json.dumps(first.data, sort_keys=True) == json.dumps(
            second.data, sort_keys=True
        )


class TestCliJobsByteIdentity:
    def test_serial_vs_jobs2(self, tmp_path):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        base = ["models", "compare", *MODELS_ARGS, "--json"]
        serial = cli_stdout(base + ["--cache-dir", str(serial_dir), "--jobs", "1"])
        parallel = cli_stdout(base + ["--cache-dir", str(parallel_dir), "--jobs", "2"])
        assert serial == parallel

    def test_predict_action_through_service(self, client, models_root):
        payload = dict(MODELS_PAYLOAD, action="predict", to=[16, 32])
        submitted = client.submit("models", payload)
        view = client.wait(submitted["id"], timeout=300)
        assert view["state"] == "done", view.get("error")
        result = client.result(submitted["id"])["result"]
        out = cli_stdout(
            [
                "models", "predict", *MODELS_ARGS,
                "--to", "16,32", "--cache-dir", str(models_root),
            ]
        )
        assert out == result["output"]
