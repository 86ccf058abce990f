"""REST flow-endpoint tests: contract, validation, transport equivalence."""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException

import pytest

from flowplane.core import Core, CoreConfig, FlowModRequest
from flowplane.fabric import Fabric
from flowplane.rest import RestApiError, RestFlowClient, RestServer
from flowplane.topology import build_linear
from flowplane.wire import Action, ActionKind, MacAddr, Match

H2 = MacAddr.host(2)


@pytest.fixture
def served():
    fabric = Fabric(build_linear(2))
    core = Core(CoreConfig(rest_listen=("127.0.0.1", 0)))
    core.adopt(fabric)
    fabric.start()
    core.start()
    fabric.quiesce()
    yield core, fabric
    core.stop()
    fabric.stop()


def raw_request(address, method, path, body=None):
    conn = HTTPConnection(address[0], address[1], timeout=5)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else None
    finally:
        conn.close()


def valid_body(**kw):
    body = {
        "dpid": 1,
        "priority": 100,
        "match": {"eth_dst": str(H2)},
        "actions": [{"kind": "OUTPUT", "port": 1}],
        "hard_timeout_s": 10,
    }
    body.update(kw)
    return body


class TestContract:
    def test_post_returns_201_with_rule_id(self, served):
        core, _ = served
        status, payload = raw_request(core.rest_address, "POST", "/flows", valid_body())
        assert status == 201
        assert isinstance(payload["rule_id"], int)

    def test_get_lists_installed_rules(self, served):
        core, _ = served
        _, created = raw_request(core.rest_address, "POST", "/flows", valid_body())
        status, payload = raw_request(core.rest_address, "GET", "/flows/1")
        assert status == 200
        (rule,) = payload["rules"]
        assert rule["rule_id"] == created["rule_id"]
        assert rule["match"] == {"eth_dst": str(H2)}
        assert rule["actions"] == [{"kind": "OUTPUT", "port": 1}]
        assert rule["hard_timeout_s"] == 10
        assert rule["packet_count"] == 0
        assert rule["byte_count"] == 0

    def test_delete_returns_204(self, served):
        core, _ = served
        _, created = raw_request(core.rest_address, "POST", "/flows", valid_body())
        status, _ = raw_request(
            core.rest_address, "DELETE", f"/flows/1/{created['rule_id']}"
        )
        assert status == 204
        _, payload = raw_request(core.rest_address, "GET", "/flows/1")
        assert payload["rules"] == []

    def test_flood_action_json(self, served):
        core, _ = served
        status, _ = raw_request(
            core.rest_address, "POST", "/flows", valid_body(actions=[{"kind": "FLOOD"}])
        )
        assert status == 201


class TestValidation:
    def test_negative_priority_is_400(self, served):
        core, _ = served
        status, payload = raw_request(
            core.rest_address, "POST", "/flows", valid_body(priority=-1)
        )
        assert status == 400
        assert "priority" in payload["error"]

    def test_malformed_json_is_400(self, served):
        core, _ = served
        conn = HTTPConnection(*core.rest_address, timeout=5)
        conn.request("POST", "/flows", body="{not json")
        assert conn.getresponse().status == 400
        conn.close()

    def test_unknown_dpid_is_404(self, served):
        core, _ = served
        status, _ = raw_request(core.rest_address, "POST", "/flows", valid_body(dpid=42))
        assert status == 404
        status, _ = raw_request(core.rest_address, "GET", "/flows/42")
        assert status == 404

    def test_unknown_rule_delete_is_404(self, served):
        core, _ = served
        status, _ = raw_request(core.rest_address, "DELETE", "/flows/1/999")
        assert status == 404

    def test_unknown_action_kind_is_400(self, served):
        core, _ = served
        status, _ = raw_request(
            core.rest_address, "POST", "/flows", valid_body(actions=[{"kind": "TELEPORT"}])
        )
        assert status == 400

    def test_bad_mac_is_400(self, served):
        core, _ = served
        status, _ = raw_request(
            core.rest_address, "POST", "/flows", valid_body(match={"eth_dst": "zz:zz"})
        )
        assert status == 400

    def test_unknown_path_is_404(self, served):
        core, _ = served
        status, _ = raw_request(core.rest_address, "GET", "/nonsense")
        assert status == 404

    def test_output_to_missing_port_is_400(self, served):
        core, _ = served
        status, _ = raw_request(
            core.rest_address,
            "POST",
            "/flows",
            valid_body(actions=[{"kind": "OUTPUT", "port": 99}]),
        )
        assert status == 400


class TestTransportEquivalence:
    def test_rest_and_direct_install_reach_identical_state(self, served):
        core, fabric = served
        request = FlowModRequest(
            dpid=1,
            priority=100,
            match=Match(eth_dst=H2),
            actions=(Action(ActionKind.OUTPUT, 1),),
            hard_timeout_s=30,
        )
        client = RestFlowClient(core.rest_address)
        rest_id = client.install(request)
        direct_id = core.flow_mod(request)
        fabric.quiesce()

        def normalized(rule):
            return (rule.priority, rule.match, rule.actions, rule.hard_timeout_s)

        rules = {r.rule_id: r for r in core.flows(1)}
        assert normalized(rules[rest_id]) == normalized(rules[direct_id])

    def test_client_raises_typed_error(self, served):
        core, _ = served
        client = RestFlowClient(core.rest_address)
        with pytest.raises(RestApiError) as err:
            client.delete(1, 12345)
        assert err.value.status == 404

    def test_client_list(self, served):
        core, _ = served
        client = RestFlowClient(core.rest_address)
        rule_id = client.install(
            FlowModRequest(dpid=2, priority=5, actions=(Action(ActionKind.DROP),))
        )
        rules = client.list_rules(2)
        assert [r["rule_id"] for r in rules] == [rule_id]
        assert rules[0]["match"] == {}


class TestStop:
    def test_stop_closes_an_established_keep_alive_connection(self):
        core = Core()
        server = RestServer(core).start()
        conn = HTTPConnection(*server.address, timeout=5)
        try:
            conn.request("GET", "/flows/1")
            assert conn.getresponse().read()  # 404: no such switch, connection kept
            server.stop()
            with pytest.raises((OSError, HTTPException)):
                conn.request("GET", "/flows/1")
                conn.getresponse().read()
        finally:
            conn.close()
