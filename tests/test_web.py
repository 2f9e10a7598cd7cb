"""Tests for the web interface (routing logic + live HTTP roundtrips)."""

import gzip
import http.client
import json
import urllib.request

import pytest

from repro.web import SiftWebApp, serve


@pytest.fixture(scope="module")
def app(mini_study):
    return SiftWebApp(mini_study)


class TestRouting:
    def test_index_html(self, app):
        status, content_type, body = app.handle_path("/")
        assert status == 200
        assert content_type.startswith("text/html")
        assert "SIFT" in body

    def test_geos(self, app):
        status, _, body = app.handle_path("/api/geos")
        assert status == 200
        geos = json.loads(body)
        assert "US-TX" in geos

    def test_timeline(self, app):
        status, _, body = app.handle_path("/api/timeline?geo=US-TX")
        assert status == 200
        payload = json.loads(body)
        assert payload["geo"] == "US-TX"
        assert payload["hours"] == len(payload["values"])

    def test_timeline_window(self, app):
        status, _, body = app.handle_path(
            "/api/timeline?geo=US-TX"
            "&start=2021-02-14T00:00:00&end=2021-02-21T00:00:00"
        )
        assert status == 200
        assert json.loads(body)["hours"] == 168

    def test_timeline_aggregates_match_values(self, app):
        _, _, body = app.handle_path(
            "/api/timeline?geo=US-TX"
            "&start=2021-02-14T00:00:00&end=2021-02-21T00:00:00"
        )
        payload = json.loads(body)
        values = payload["values"]
        assert payload["peak"] == pytest.approx(max(values), abs=1e-3)
        assert payload["mean"] == pytest.approx(
            sum(values) / len(values), abs=1e-2
        )
        assert payload["nonzero_hours"] == sum(1 for v in values if v > 0)

    def test_timeline_window_out_of_range_is_400(self, app):
        status, _, _ = app.handle_path(
            "/api/timeline?geo=US-TX&end=2030-01-01T00:00:00"
        )
        assert status == 400

    def test_spikes(self, app):
        status, _, body = app.handle_path("/api/spikes?geo=US-TX&min_hours=5")
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == len(payload["spikes"])
        assert all(s["geo"] == "US-TX" for s in payload["spikes"])

    def test_spikes_filter_matches_study(self, app, mini_study):
        _, _, body = app.handle_path("/api/spikes?geo=US-TX&min_hours=3")
        payload = json.loads(body)
        expected = [
            spike.to_dict()
            for spike in mini_study.spikes.in_state("US-TX")
            if spike.duration_hours >= 3
        ]
        assert payload["spikes"] == expected

    def test_outages(self, app):
        status, _, body = app.handle_path("/api/outages?min_states=2")
        assert status == 200
        payload = json.loads(body)
        assert all(o["footprint"] >= 2 for o in payload["outages"])

    def test_outages_chronological_and_complete(self, app, mini_study):
        _, _, body = app.handle_path("/api/outages")
        payload = json.loads(body)
        assert payload["count"] == len(mini_study.outages)
        assert [o["label"] for o in payload["outages"]] == [
            outage.label for outage in mini_study.outages
        ]

    def test_summary(self, app, mini_study):
        status, _, body = app.handle_path("/api/summary")
        assert status == 200
        payload = json.loads(body)
        assert payload["spike_count"] == mini_study.spike_count
        assert payload["outage_count"] == len(mini_study.outages)
        assert payload["fingerprint"] == mini_study.fingerprint()

    def test_missing_geo_is_400(self, app):
        status, _, body = app.handle_path("/api/timeline")
        assert status == 400
        assert "geo" in json.loads(body)["error"]

    def test_unknown_geo_is_400(self, app):
        status, _, _ = app.handle_path("/api/timeline?geo=US-ZZ")
        assert status == 400

    def test_unknown_path_is_404(self, app):
        status, _, _ = app.handle_path("/api/nonsense")
        assert status == 404

    def test_bad_parameter_is_400(self, app):
        status, _, _ = app.handle_path("/api/spikes?geo=US-TX&min_hours=soon")
        assert status == 400

    def test_duplicated_parameter_is_400(self, app):
        status, _, body = app.handle_path("/api/timeline?geo=US-TX&geo=US-CA")
        assert status == 400
        assert "duplicated" in json.loads(body)["error"]

    def test_unknown_parameter_is_400(self, app):
        status, _, body = app.handle_path("/api/outages?bogus=1")
        assert status == 400
        assert "bogus" in json.loads(body)["error"]

    def test_runtime_reports_reconstruction_backend(self, app, mini_study):
        status, _, body = app.handle_path("/api/runtime")
        assert status == 200
        reconstruction = json.loads(body)["reconstruction"]
        assert set(reconstruction) == {"per_geo"}
        per_geo = reconstruction["per_geo"]
        assert set(per_geo) == set(mini_study.states)
        for geo, summary in per_geo.items():
            report = mini_study.states[geo].averaging.stitch_report
            assert summary["frames"] == report.frames >= 1
            assert summary["carried_ratios"] == report.carried_ratios
            assert summary["carried_positions"] == list(report.carried_positions)
            assert summary["ratio_spread"] >= 1.0


class TestEncoding:
    def test_compact_by_default(self, app):
        _, _, body = app.handle_path("/api/outages")
        assert "\n" not in body
        assert '": ' not in body

    def test_pretty_opt_in(self, app):
        _, _, compact = app.handle_path("/api/outages")
        _, _, pretty = app.handle_path("/api/outages?pretty=1")
        assert "\n" in pretty
        assert json.loads(pretty) == json.loads(compact)

    def test_gzip_negotiated(self, app):
        identity = app.handle_request("/api/timeline?geo=US-TX")
        zipped = app.handle_request(
            "/api/timeline?geo=US-TX", headers={"Accept-Encoding": "gzip, br"}
        )
        assert zipped.header("Content-Encoding") == "gzip"
        assert gzip.decompress(zipped.body) == identity.body
        assert zipped.header("ETag") != identity.header("ETag")

    def test_small_bodies_skip_gzip(self, app):
        response = app.handle_request(
            "/api/geos", headers={"Accept-Encoding": "gzip"}
        )
        assert response.header("Content-Encoding") is None


class TestLiveServer:
    @pytest.fixture(scope="class")
    def server(self, mini_study):
        server, _thread = serve(mini_study, port=0)
        yield server
        server.shutdown()

    def _connection(self, server):
        host, port = server.server_address[:2]
        return http.client.HTTPConnection(host, port, timeout=5)

    def test_http_roundtrip(self, server):
        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/api/geos", timeout=5
        ) as response:
            assert response.status == 200
            geos = json.loads(response.read())
            assert "US-TX" in geos

    def test_content_length_on_success_and_errors(self, server):
        connection = self._connection(server)
        for path, expected_status in (
            ("/api/geos", 200),
            ("/api/nonsense", 404),
            ("/api/timeline", 400),
        ):
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            assert response.status == expected_status
            assert int(response.headers["Content-Length"]) == len(body)
            if expected_status != 200:
                assert response.headers["Content-Type"] == "application/json"
                assert "error" in json.loads(body)
        connection.close()

    def test_head_matches_get(self, server):
        connection = self._connection(server)
        connection.request("GET", "/api/timeline?geo=US-TX")
        get_response = connection.getresponse()
        get_body = get_response.read()
        connection.request("HEAD", "/api/timeline?geo=US-TX")
        head_response = connection.getresponse()
        head_body = head_response.read()
        assert head_response.status == 200
        assert head_body == b""
        assert int(head_response.headers["Content-Length"]) == len(get_body)
        assert head_response.headers["ETag"] == get_response.headers["ETag"]
        connection.close()

    def test_etag_roundtrip_over_http(self, server):
        connection = self._connection(server)
        connection.request("GET", "/api/outages")
        first = connection.getresponse()
        body = first.read()
        etag = first.headers["ETag"]
        assert etag and body
        connection.request("GET", "/api/outages", headers={"If-None-Match": etag})
        second = connection.getresponse()
        assert second.status == 304
        assert second.read() == b""
        assert second.headers["ETag"] == etag
        connection.close()

    def test_gzip_over_http(self, server):
        connection = self._connection(server)
        connection.request("GET", "/api/timeline?geo=US-TX")
        plain = connection.getresponse().read()
        connection.request(
            "GET",
            "/api/timeline?geo=US-TX",
            headers={"Accept-Encoding": "gzip"},
        )
        response = connection.getresponse()
        assert response.headers["Content-Encoding"] == "gzip"
        assert gzip.decompress(response.read()) == plain
        connection.close()
