"""HTTP flow-programming channel for the controller core.

Endpoints (JSON over HTTP/1.1):

    POST   /flows                 install a rule -> 201 {"rule_id": n}
    GET    /flows/{dpid}          list a switch's rules -> 200 {"rules": [...]}
    DELETE /flows/{dpid}/{rule_id}  remove a rule -> 204

The POST body carries {"dpid", "priority", "match", "actions",
"hard_timeout_s"}; match fields are optional and MACs are written
"xx:xx:xx:xx:xx:xx". Malformed bodies get 400, unknown dpids/rules get 404.

``RestFlowClient`` is the matching client; it opens a fresh connection per
request, so installs through it carry genuine HTTP round-trip cost.
"""

from __future__ import annotations

import json
import logging
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler

from .core import (
    CoreError,
    FlowModRequest,
    UnknownDatapathError,
    UnknownPortError,
    UnknownRuleError,
)
from .framing import ServerThread, TcpServer
from .wire import Action, ActionKind, FlowModOp, FlowRule, MacAddr, Match

log = logging.getLogger(__name__)


class ValidationError(ValueError):
    pass


# -- JSON <-> domain ---------------------------------------------------------

def match_to_json(match: Match) -> dict:
    out: dict = {}
    if match.in_port is not None:
        out["in_port"] = match.in_port
    if match.eth_src is not None:
        out["eth_src"] = str(match.eth_src)
    if match.eth_dst is not None:
        out["eth_dst"] = str(match.eth_dst)
    if match.ethertype is not None:
        out["ethertype"] = match.ethertype
    return out


def _require_int(value, name: str, lo: int, hi: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
        raise ValidationError(f"{name} must be an integer in [{lo}, {hi}]")
    return value


def _parse_mac(value, name: str) -> MacAddr:
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a MAC string")
    try:
        return MacAddr.from_str(value)
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def json_to_match(obj) -> Match:
    if obj is None:
        return Match()
    if not isinstance(obj, dict):
        raise ValidationError("match must be an object")
    unknown = set(obj) - {"in_port", "eth_src", "eth_dst", "ethertype"}
    if unknown:
        raise ValidationError(f"unknown match fields {sorted(unknown)}")
    return Match(
        in_port=_require_int(obj["in_port"], "in_port", 0, 0xFFFF) if "in_port" in obj else None,
        eth_src=_parse_mac(obj["eth_src"], "eth_src") if "eth_src" in obj else None,
        eth_dst=_parse_mac(obj["eth_dst"], "eth_dst") if "eth_dst" in obj else None,
        ethertype=_require_int(obj["ethertype"], "ethertype", 0, 0xFFFF)
        if "ethertype" in obj
        else None,
    )


def actions_to_json(actions: tuple[Action, ...]) -> list[dict]:
    out = []
    for a in actions:
        if a.kind is ActionKind.OUTPUT:
            out.append({"kind": "OUTPUT", "port": a.port})
        else:
            out.append({"kind": a.kind.name})
    return out


def json_to_actions(obj) -> tuple[Action, ...]:
    if not isinstance(obj, list):
        raise ValidationError("actions must be a list")
    actions = []
    for item in obj:
        if not isinstance(item, dict) or "kind" not in item:
            raise ValidationError("each action needs a kind")
        kind_name = item["kind"]
        if kind_name == "OUTPUT":
            if "port" not in item:
                raise ValidationError("OUTPUT action needs a port")
            actions.append(Action(ActionKind.OUTPUT, _require_int(item["port"], "port", 0, 0xFFFD)))
        elif kind_name in ("FLOOD", "DROP", "CONTROLLER"):
            if set(item) - {"kind"}:
                raise ValidationError(f"{kind_name} action takes no extra fields")
            actions.append(Action(ActionKind[kind_name]))
        else:
            raise ValidationError(f"unknown action kind {kind_name!r}")
    return tuple(actions)


def rule_to_json(rule: FlowRule) -> dict:
    return {
        "rule_id": rule.rule_id,
        "priority": rule.priority,
        "match": match_to_json(rule.match),
        "actions": actions_to_json(rule.actions),
        "hard_timeout_s": rule.hard_timeout_s,
        "packet_count": rule.packet_count,
        "byte_count": rule.byte_count,
    }


def json_to_request(obj) -> FlowModRequest:
    if not isinstance(obj, dict):
        raise ValidationError("body must be a JSON object")
    unknown = set(obj) - {"dpid", "priority", "match", "actions", "hard_timeout_s"}
    if unknown:
        raise ValidationError(f"unknown fields {sorted(unknown)}")
    if "dpid" not in obj or "priority" not in obj or "actions" not in obj:
        raise ValidationError("dpid, priority and actions are required")
    return FlowModRequest(
        dpid=_require_int(obj["dpid"], "dpid", 0, 2**64 - 1),
        op=FlowModOp.ADD,
        priority=_require_int(obj["priority"], "priority", 0, 0xFFFF),
        match=json_to_match(obj.get("match")),
        actions=json_to_actions(obj["actions"]),
        hard_timeout_s=_require_int(obj.get("hard_timeout_s", 0), "hard_timeout_s", 0, 2**32 - 1),
    )


# -- server --------------------------------------------------------------------

class _RestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # quiet the default stderr chatter
        log.debug("rest: " + fmt, *args)

    def _reply(self, status: int, payload: dict | None = None) -> None:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def do_POST(self) -> None:
        core = self.server.core  # type: ignore[attr-defined]
        if self.path.rstrip("/") != "/flows":
            self._reply(404, {"error": "no such resource"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length))
            req = json_to_request(payload)
        except (json.JSONDecodeError, ValidationError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        try:
            rule_id = core.flow_mod(req)
        except (UnknownDatapathError, UnknownRuleError) as exc:
            self._reply(404, {"error": str(exc)})
            return
        except (UnknownPortError, CoreError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(201, {"rule_id": rule_id})

    def do_GET(self) -> None:
        core = self.server.core  # type: ignore[attr-defined]
        parts = [p for p in self.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "flows" or not parts[1].isdigit():
            self._reply(404, {"error": "no such resource"})
            return
        try:
            rules = core.flows(int(parts[1]))
        except UnknownDatapathError as exc:
            self._reply(404, {"error": str(exc)})
            return
        self._reply(200, {"rules": [rule_to_json(r) for r in rules]})

    def do_DELETE(self) -> None:
        core = self.server.core  # type: ignore[attr-defined]
        parts = [p for p in self.path.split("/") if p]
        if len(parts) != 3 or parts[0] != "flows" or not all(p.isdigit() for p in parts[1:]):
            self._reply(404, {"error": "no such resource"})
            return
        dpid, rule_id = int(parts[1]), int(parts[2])
        try:
            core.flow_mod(FlowModRequest(dpid=dpid, op=FlowModOp.REMOVE, rule_id=rule_id))
        except (UnknownDatapathError, UnknownRuleError) as exc:
            self._reply(404, {"error": str(exc)})
            return
        self._reply(204)


class RestServer(ServerThread):
    """Threaded HTTP listener bound to the given address (port 0 = ephemeral);
    stopping it also closes its established keep-alive connections."""

    def __init__(self, core, host: str = "127.0.0.1", port: int = 0):
        super().__init__(TcpServer((host, port), _RestHandler), "rest-server")
        self._server.core = core  # type: ignore[attr-defined]


# -- client --------------------------------------------------------------------

class RestApiError(CoreError):
    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class RestFlowClient:
    """Flow programming over the REST endpoint, one connection per request."""

    def __init__(self, address: tuple[str, int], timeout: float = 10.0):
        self.address = address
        self.timeout = timeout

    def _request(self, method: str, path: str, body: dict | None = None):
        conn = HTTPConnection(self.address[0], self.address[1], timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            if resp.status >= 400:
                try:
                    message = json.loads(raw)["error"]
                except Exception:
                    message = raw.decode("utf-8", "replace")
                raise RestApiError(resp.status, message)
            return json.loads(raw) if raw else None
        finally:
            conn.close()

    def install(self, req: FlowModRequest) -> int:
        body = {
            "dpid": req.dpid,
            "priority": req.priority,
            "match": match_to_json(req.match),
            "actions": actions_to_json(req.actions),
            "hard_timeout_s": req.hard_timeout_s,
        }
        return self._request("POST", "/flows", body)["rule_id"]

    def delete(self, dpid: int, rule_id: int) -> None:
        self._request("DELETE", f"/flows/{dpid}/{rule_id}")

    def list_rules(self, dpid: int) -> list[dict]:
        return self._request("GET", f"/flows/{dpid}")["rules"]
