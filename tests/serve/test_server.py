"""HTTP round-trip tests, including the byte-identical-to-CLI contract."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.runtime.metrics import MetricsRegistry
from repro.serve import ServeConfig, create_server

TINY_ARGS = {"workload": "spec.gzip", "intervals": 12, "seed": 7,
             "scale": "tiny", "k_max": 5}


@pytest.fixture()
def server(tmp_path):
    instance = create_server(
        ServeConfig(host="127.0.0.1", port=0,
                    cache_dir=tmp_path / "cache"),
        metrics=MetricsRegistry())
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(10)


def _get(server, path):
    with urllib.request.urlopen(server.address + path, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, body, raw: bytes | None = None):
    data = raw if raw is not None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        server.address + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestObservability:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["started_at_unix"] > 0

    def test_stats_round_trips_as_json(self, server):
        status, body = _get(server, "/stats")
        assert status == 200
        assert body["requests"]["total"] == 0

    def test_unknown_get_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404


class TestFraming:
    def test_invalid_json_is_400(self, server):
        status, body = _post(server, "/analyze", None, raw=b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_unknown_endpoint_is_404(self, server):
        status, _ = _post(server, "/nope", {})
        assert status == 404

    def test_protocol_error_is_400(self, server):
        status, body = _post(server, "/analyze", {"workload": "nope"})
        assert status == 400
        assert "unknown workload" in body["error"]


    @pytest.mark.parametrize("length", ["-1", "-5"])
    def test_negative_content_length_is_400(self, server, length):
        # -1 used to block the handler in rfile.read(-1) until the
        # client hung up; -5 raised and dropped the connection.
        conn = http.client.HTTPConnection(server.server_address[0],
                                          server.server_address[1],
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/analyze")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"] == "bad Content-Length"
        assert response.getheader("Connection") == "close"


class TestKeepAlive:
    def test_sequential_requests_do_not_stall(self, server):
        # Headers and body are two writes; with Nagle on, each
        # keep-alive response waited ~40 ms for the client's delayed ACK.
        conn = http.client.HTTPConnection(server.server_address[0],
                                          server.server_address[1],
                                          timeout=10)
        elapsed = []
        try:
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020, elapsed


class TestByteIdentity:
    """The tentpole contract: daemon reports == one-shot CLI stdout."""

    def test_analyze_report_equals_cli_stdout(self, server, capsys):
        status, body = _post(server, "/analyze", dict(TINY_ARGS))
        assert status == 200
        rc = main(["analyze", "spec.gzip", "--intervals", "12",
                   "--seed", "7", "--scale", "tiny", "--k-max", "5",
                   "--no-cache"])
        assert rc == 0
        assert capsys.readouterr().out == body["report"] + "\n"

    def test_census_report_equals_cli_stdout(self, server, capsys,
                                             tmp_path):
        status, body = _post(
            server, "/census",
            {"workloads": ["spec.gzip", "spec.art"], "k_max": 5})
        assert status == 200
        assert body["total"] == 2
        rc = main(["census", "spec.gzip", "spec.art", "--k-max", "5",
                   "--cache-dir", str(tmp_path / "cli-cache")])
        assert rc == 0
        assert capsys.readouterr().out == body["report"] + "\n"

    def test_profile_structure_is_deterministic(self, server):
        request = {"workloads": ["spec.gzip"], "intervals": 12,
                   "seed": 7, "scale": "tiny", "k_max": 5}
        status1, first = _post(server, "/profile", dict(request))
        status2, second = _post(server, "/profile", dict(request))
        assert status1 == status2 == 200
        # Structure is stable run to run; the measured seconds are not
        # (a profile that measured nothing real would be useless).
        assert first["stages"] == second["stages"]
        assert first["stages"][0] == "job"
        assert first["measured"]["total_wall_s"] > 0

    def test_warm_response_equals_cold_response(self, server):
        status1, cold = _post(server, "/analyze", dict(TINY_ARGS))
        status2, warm = _post(server, "/analyze", dict(TINY_ARGS))
        assert status1 == status2 == 200
        assert warm["served"]["cache_hit"] is True
        cold.pop("served")
        warm.pop("served")
        assert json.dumps(cold, sort_keys=True) == \
            json.dumps(warm, sort_keys=True)


class TestCLIWiring:
    def test_serve_subcommand_parses(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-inflight", "4",
             "--max-queue", "8", "--deadline", "30",
             "--cache-max-entries", "100"])
        assert args.port == 0
        assert args.max_inflight == 4
        assert args.max_queue == 8
        assert args.deadline == 30.0
        assert args.cache_max_entries == 100

    def test_serve_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8100
        assert args.no_cache is False
        assert args.census_jobs == 1


class TestShutdown:
    def test_no_cache_store_is_removed_at_server_close(self, tmp_path,
                                                       monkeypatch):
        import tempfile
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        instance = create_server(
            ServeConfig(host="127.0.0.1", port=0, no_cache=True),
            metrics=MetricsRegistry())
        thread = threading.Thread(target=instance.serve_forever,
                                  daemon=True)
        thread.start()
        root = instance.service.store.root
        try:
            status, _ = _post(instance, "/v1/analyze", TINY_ARGS)
            assert status == 200
            assert root.parent == tmp_path and root.is_dir()
        finally:
            instance.shutdown()
            instance.server_close()
            thread.join(10)
        assert not thread.is_alive()
        assert not root.exists()
