"""Flow-table state machine for a single simulated switch.

Pure logic, no threads: callers pass in the current monotonic time and get
back a list of effects to carry out (frames to transmit, packets to punt to
the controller, rules that just expired). The table is kept ordered by
(priority descending, rule_id ascending); rule_id breaks ties between
equal-priority overlapping rules, so the oldest installed rule wins.
"""

from __future__ import annotations

import logging
import math
from bisect import insort
from dataclasses import dataclass, replace
from typing import Union

from .wire import Action, ActionKind, FLOOD_PORT, FlowRule, Frame

log = logging.getLogger(__name__)

FRAME_HEADER_BYTES = 14  # dst + src + ethertype


def frame_len(frame: Frame) -> int:
    return FRAME_HEADER_BYTES + len(frame.payload)


@dataclass(frozen=True)
class TxFrame:
    """Send ``frame`` out of ``out_port``."""

    out_port: int
    frame: Frame


@dataclass(frozen=True)
class ToController:
    """Punt ``frame`` to the controller as a packet-in."""

    in_port: int
    frame: Frame


@dataclass(frozen=True)
class RuleExpiry:
    """Rules that hit their hard timeout and left the table."""

    rules: tuple[FlowRule, ...]


Effect = Union[TxFrame, ToController, RuleExpiry]

_FLOOD = (Action(ActionKind.FLOOD),)
# Rounding margin: ``installed_at + hard_timeout_s`` may round above the time
# at which ``FlowRule.expired`` first holds, so a deadline is kept this early.
_DEADLINE_MARGIN_S = 1e-6


def _deadline(rule: FlowRule) -> float:
    if rule.hard_timeout_s <= 0:
        return math.inf
    return rule.installed_at + rule.hard_timeout_s - _DEADLINE_MARGIN_S


class SwitchState:
    """Datapath state: port liveness and the ordered flow table."""

    def __init__(self, dpid: int, ports: list[int] | range):
        self.dpid = dpid
        self.ports: dict[int, bool] = {p: True for p in ports}
        self._table: list[FlowRule] = []
        # no rule expires before this time; it may be early, never late
        self._next_deadline = math.inf

    # -- ports ------------------------------------------------------------

    def port_up(self, port: int) -> bool:
        return self.ports.get(port, False)

    def set_port(self, port: int, up: bool) -> None:
        if port not in self.ports:
            raise KeyError(f"switch {self.dpid} has no port {port}")
        self.ports[port] = up

    def up_ports(self) -> list[int]:
        return sorted(p for p, up in self.ports.items() if up)

    # -- table ------------------------------------------------------------

    @staticmethod
    def _order(rule: FlowRule) -> tuple[int, int]:
        return (-rule.priority, rule.rule_id)

    def install(self, rule: FlowRule, now: float) -> FlowRule:
        rule.installed_at = now
        insort(self._table, rule, key=self._order)
        self._next_deadline = min(self._next_deadline, _deadline(rule))
        return rule

    def remove(self, rule_id: int) -> FlowRule | None:
        for i, rule in enumerate(self._table):
            if rule.rule_id == rule_id:
                return self._table.pop(i)
        return None

    def modify(self, updated: FlowRule, now: float) -> FlowRule | None:
        """Replace an existing rule's fields, keeping its counters."""
        current = self.remove(updated.rule_id)
        if current is None:
            return None
        updated.packet_count = current.packet_count
        updated.byte_count = current.byte_count
        self.install(updated, now)
        return updated

    def expire(self, now: float) -> list[FlowRule]:
        """Drop every rule whose hard timeout has elapsed and return them."""
        if now < self._next_deadline:
            return []
        expired = [r for r in self._table if r.expired(now)]
        if expired:
            self._table = [r for r in self._table if not r.expired(now)]
        self._next_deadline = min(map(_deadline, self._table), default=math.inf)
        return expired

    def lookup(self, frame: Frame, in_port: int, now: float) -> FlowRule | None:
        """Highest-priority live rule matching the frame (oldest wins on ties)."""
        due = now >= self._next_deadline
        for rule in self._table:
            if due and rule.expired(now):
                continue
            if rule.match.matches(frame, in_port):
                return rule
        return None

    def rules(self, now: float | None = None) -> list[FlowRule]:
        """Snapshot copies of the live table, in table order."""
        return [
            replace(r)
            for r in self._table
            if now is None or not r.expired(now)
        ]

    def __len__(self) -> int:
        return len(self._table)


def apply_actions(
    state: SwitchState, actions: tuple[Action, ...], in_port: int | None, frame: Frame
) -> list[Effect]:
    """Carry out an action list; FLOOD never echoes out the ingress port."""
    effects: list[Effect] = []
    for action in actions:
        if action.kind is ActionKind.OUTPUT:
            effects += _output(state, action.port, frame)
        elif action.kind is ActionKind.FLOOD:
            for port in state.up_ports():
                if port != in_port:
                    effects.append(TxFrame(port, frame))
        elif action.kind is ActionKind.CONTROLLER:
            effects.append(ToController(in_port if in_port is not None else 0, frame))
        # DROP emits nothing
    return effects


def _output(state: SwitchState, port: int, frame: Frame) -> list[Effect]:
    if state.port_up(port):
        return [TxFrame(port, frame)]
    log.warning("switch %d: OUTPUT to missing/down port %s dropped", state.dpid, port)
    return []


def switch_rx(state: SwitchState, in_port: int, frame: Frame, now: float) -> list[Effect]:
    """Handle a frame arriving on ``in_port`` at time ``now``.

    Expired rules are purged first (and reported), then the best matching
    rule's actions are applied with its counters bumped; a table miss punts
    the frame to the controller.
    """
    effects: list[Effect] = []
    expired = state.expire(now)
    if expired:
        effects.append(RuleExpiry(tuple(expired)))
    if in_port not in state.ports:
        raise KeyError(f"switch {state.dpid} has no port {in_port}")
    if not state.ports[in_port]:
        return effects  # frame arrived on a downed port: dropped
    rule = state.lookup(frame, in_port, now)
    if rule is None:
        effects.append(ToController(in_port, frame))
        return effects
    rule.packet_count += 1
    rule.byte_count += frame_len(frame)
    effects.extend(apply_actions(state, rule.actions, in_port, frame))
    return effects


def apply_packet_out(state: SwitchState, out_port: int, frame: Frame) -> list[Effect]:
    """Controller-directed send: no table lookup, no counter updates."""
    if out_port == FLOOD_PORT:
        return apply_actions(state, _FLOOD, None, frame)
    return _output(state, out_port, frame)
