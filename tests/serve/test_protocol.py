"""Tests for request parsing and content-hashed request identities."""

import pytest

from repro.runtime.jobs import JobSpec
from repro.serve.protocol import (AnalyzeRequest, CensusRequest,
                                  ProfileRequest, ProtocolError,
                                  parse_request)


class TestAnalyzeRequest:
    def test_defaults_match_cli_normalization(self):
        request = AnalyzeRequest.from_body({"workload": "odbc"})
        assert request.n_intervals == 60
        assert request.seed == 11
        assert request.k_max == 50
        assert request.scale == "default"
        assert request.machine == "itanium2"

    def test_dss_interval_default_matches_cli(self):
        request = AnalyzeRequest.from_body({"workload": "odbh.q1"})
        assert request.n_intervals == 132

    def test_key_is_the_spec_key(self):
        request = AnalyzeRequest.from_body(
            {"workload": "spec.gzip", "intervals": 12, "seed": 7,
             "scale": "tiny", "k_max": 5})
        spec = JobSpec(workload="spec.gzip", n_intervals=12, seed=7,
                       scale="tiny", k_max=5)
        assert request.key == spec.key
        assert request.spec == spec

    def test_render_and_deadline_do_not_change_key(self):
        base = AnalyzeRequest.from_body({"workload": "odbc"})
        other = AnalyzeRequest.from_body(
            {"workload": "odbc", "render": False, "deadline_s": 5})
        assert base.key == other.key

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            AnalyzeRequest.from_body({"workload": "nope"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown field"):
            AnalyzeRequest.from_body({"workload": "odbc", "n_intervals": 9})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            AnalyzeRequest.from_body({"workload": "odbc", "seed": True})

    def test_bad_scale_and_machine_rejected(self):
        with pytest.raises(ProtocolError, match="'scale'"):
            AnalyzeRequest.from_body({"workload": "odbc", "scale": "huge"})
        with pytest.raises(ProtocolError, match="'machine'"):
            AnalyzeRequest.from_body({"workload": "odbc",
                                      "machine": "m68k"})

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ProtocolError, match="deadline_s"):
            AnalyzeRequest.from_body({"workload": "odbc", "deadline_s": 0})

    def test_body_must_be_object(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            AnalyzeRequest.from_body(["odbc"])


class TestCensusRequest:
    def test_empty_means_full_census(self):
        request = CensusRequest.from_body({})
        assert request.workloads == ()

    def test_key_excludes_render_and_deadline(self):
        base = CensusRequest.from_body({"workloads": ["odbc"]})
        other = CensusRequest.from_body(
            {"workloads": ["odbc"], "render": False, "deadline_s": 9})
        assert base.key == other.key

    def test_key_depends_on_workloads_and_seed(self):
        a = CensusRequest.from_body({"workloads": ["odbc"]})
        b = CensusRequest.from_body({"workloads": ["sjas"]})
        c = CensusRequest.from_body({"workloads": ["odbc"], "seed": 12})
        assert len({a.key, b.key, c.key}) == 3

    def test_workloads_must_be_a_list(self):
        with pytest.raises(ProtocolError, match="'workloads'"):
            CensusRequest.from_body({"workloads": "odbc"})


class TestProfileRequest:
    def test_requires_workloads(self):
        with pytest.raises(ProtocolError, match="'workloads'"):
            ProfileRequest.from_body({})

    def test_key_excludes_deadline_only(self):
        base = ProfileRequest.from_body({"workloads": ["odbc"]})
        same = ProfileRequest.from_body(
            {"workloads": ["odbc"], "deadline_s": 3})
        other = ProfileRequest.from_body({"workloads": ["odbc"], "top": 9})
        assert base.key == same.key
        assert base.key != other.key


class TestRouting:
    def test_known_endpoints_parse(self):
        request = parse_request("/analyze", {"workload": "odbc"})
        assert isinstance(request, AnalyzeRequest)
        assert isinstance(parse_request("/census", {}), CensusRequest)
        assert isinstance(parse_request("/profile",
                                        {"workloads": ["odbc"]}),
                          ProfileRequest)

    def test_unknown_endpoint_is_404(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("/nope", {})
        assert excinfo.value.status == 404

    def test_parse_errors_are_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("/analyze", {})
        assert excinfo.value.status == 400
