"""The graph analyses and the ring-counter encoders as they stood before
`amp.core` gained its one graph-analysis section, kept as a test-only
reference: verbatim but for absolute imports, for the two
`StateMachine` methods, which take the machine as `self`, and for
`fer_violation`, which reads channel labels as the library's does.  The
configuration graph they read is the string-named one that
`walker_reference.build_config_graph` builds.

`test_graph_analyses.py` runs these next to the library and requires
equal sets, verdicts, witnesses and machines.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from amp.core import (PAIR, RECV, SEND, StateMachine, Word, maximal_capable,
                      pair, recv, send)
from amp.csm import Csm, is_final_config
from amp.encoding import ChannelParticipant

from .compiled_reference import merge_immediate_pairs
from .semantics import _counter_state
from .walker_reference import ConfigGraph


# -- amp.core -------------------------------------------------------------


def has_pure_eps_cycle(self: StateMachine) -> bool:
    """Detect a cycle consisting solely of epsilon transitions."""
    colour: dict[str, int] = {}

    def visit(q: str) -> bool:
        colour[q] = 1
        for ev, dst in self._out[q]:
            if ev is not None:
                continue
            c = colour.get(dst, 0)
            if c == 1 or (c == 0 and visit(dst)):
                return True
        colour[q] = 2
        return False

    return any(visit(q) for q in self.states if colour.get(q, 0) == 0)


def useful_states(self: StateMachine) -> frozenset[str]:
    """States from which some maximal run exists (a final, or a cycle)."""
    on_cycle = _states_on_cycles(self)
    good = set(self.finals) | on_cycle
    incoming: dict[str, set[str]] = {q: set() for q in self.states}
    for src, _, dst in self.transitions:
        incoming[dst].add(src)
    stack = list(good)
    while stack:
        q = stack.pop()
        for p in incoming[q]:
            if p not in good:
                good.add(p)
                stack.append(p)
    return frozenset(good)


def _states_on_cycles(m: StateMachine) -> set[str]:
    """States lying on some cycle (Tarjan SCCs plus self loops)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    result: set[str] = set()

    def strongconnect(v: str) -> None:
        work = [(v, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            outs = m.out(node)
            while i < len(outs):
                _, w = outs[i]
                i += 1
                if w not in index:
                    work.append((node, i))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if recurse:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    result.update(comp)
                elif any(d == node for _, d in m.out(node)):
                    result.add(node)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for q in m.states:
        if q not in index:
            strongconnect(q)
    return result


def fer_violation(pending, out, nodes, finals):
    """`amp.core.fer_violation` before it searched the triples last first
    and remembered what each search found: one search per triple, first
    to last, on edges labelled as the library's are."""
    capable = maximal_capable(nodes, out, finals)
    for node, channel, backlog in pending:
        seen = {(node, 0)}
        work = [(node, 0)]
        while work:
            v, consumed = work.pop()
            if consumed == backlog:
                if v in capable:
                    break
                continue
            for label, w in out(v):
                if label == channel:
                    succ = (w, consumed + 1)
                else:
                    succ = (w, consumed)
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        else:
            return node
    return None


# -- amp.psm --------------------------------------------------------------


def _maximal_capable(graph: ConfigGraph) -> set[int]:
    """Nodes from which a maximal run exists: reach a final node or a cycle."""
    finals = {i for i, (states, _) in enumerate(graph.nodes)
              if states & graph.machine.finals}
    on_cycle: set[int] = set()
    colour: dict[int, int] = {}

    def visit(v: int) -> None:
        stack = [(v, 0)]
        path: list[int] = []
        on_path: set[int] = set()
        while stack:
            node, i = stack.pop()
            if i == 0:
                colour[node] = 1
                path.append(node)
                on_path.add(node)
            succs = graph.edges.get(node, ())
            advanced = False
            while i < len(succs):
                _, w = succs[i]
                i += 1
                if colour.get(w, 0) == 0:
                    stack.append((node, i))
                    stack.append((w, 0))
                    advanced = True
                    break
                if w in on_path or w == node:
                    on_cycle.add(w)
            if advanced:
                continue
            colour[node] = 2
            path.pop()
            on_path.discard(node)

    for v in range(len(graph.nodes)):
        if colour.get(v, 0) == 0:
            visit(v)

    good = finals | on_cycle
    incoming: dict[int, set[int]] = {i: set() for i in range(len(graph.nodes))}
    for src, succs in graph.edges.items():
        for _, dst in succs:
            incoming[dst].add(src)
    work = list(good)
    while work:
        v = work.pop()
        for p in incoming[v]:
            if p not in good:
                good.add(p)
                work.append(p)
    return good


def check_fer(graph: ConfigGraph) -> tuple[bool, Optional[Word]]:
    """Feasible eventual reception on the configuration graph.

    From every node with pending messages, each channel's backlog must be
    fully consumable along some continuation that still extends to a
    maximal run.  Returns a witness word reaching the stuck send if not.
    """
    capable = _maximal_capable(graph)
    for node_id, (_, queues) in enumerate(graph.nodes):
        for channel, content in queues:
            need = len(content)
            seen = {(node_id, 0)}
            stack = [(node_id, 0)]
            found = False
            while stack and not found:
                v, consumed = stack.pop()
                if consumed == need:
                    if v in capable:
                        found = True
                    continue
                for ev, w in graph.edges.get(v, ()):
                    c2 = consumed + (1 if ev.kind == RECV and ev.channel == channel
                                     else 0)
                    c2 = min(c2, need)
                    if c2 == need and w in capable:
                        found = True
                        break
                    if (w, c2) not in seen:
                        seen.add((w, c2))
                        stack.append((w, c2))
            if not found:
                return False, graph.word_to(node_id)
    return True, None


# -- amp.typecheck --------------------------------------------------------


def _csm_fer(csm: Csm, report) -> bool:
    configs = report.configs
    nodes = range(len(configs))
    edges = {i: tuple((ev, j) for ev, j in report.out(i) if j in nodes)
             for i in nodes}
    capable = _capable_nodes(csm, configs, edges)
    for i, config in enumerate(configs):
        for channel, content in config.channels:
            need = len(content)
            if not need:
                continue
            seen = {(i, 0)}
            stack = [(i, 0)]
            found = False
            while stack and not found:
                v, consumed = stack.pop()
                if consumed >= need and v in capable:
                    found = True
                    break
                for ev, w in edges.get(v, ()):
                    c2 = consumed + (1 if ev is not None and ev.kind == RECV
                                     and ev.channel == channel else 0)
                    c2 = min(c2, need)
                    if (w, c2) not in seen:
                        seen.add((w, c2))
                        stack.append((w, c2))
            if not found:
                return False
    return True


def _capable_nodes(csm: Csm, configs, edges) -> set[int]:
    finals = {i for i, c in enumerate(configs) if is_final_config(csm, c)}
    n = len(configs)
    on_cycle: set[int] = set()
    colour = [0] * n

    def visit(v: int) -> None:
        stack = [(v, 0)]
        on_path: set[int] = set()
        while stack:
            node, i = stack.pop()
            if i == 0:
                colour[node] = 1
                on_path.add(node)
            succs = edges.get(node, ())
            advanced = False
            while i < len(succs):
                _, w = succs[i]
                i += 1
                if colour[w] == 0:
                    stack.append((node, i))
                    stack.append((w, 0))
                    advanced = True
                    break
                if w in on_path:
                    on_cycle.add(w)
            if advanced:
                continue
            colour[node] = 2
            on_path.discard(node)

    for v in range(n):
        if colour[v] == 0:
            visit(v)
    good = finals | on_cycle
    incoming: dict[int, set[int]] = {i: set() for i in range(n)}
    for src, succs in edges.items():
        for _, dst in succs:
            incoming[dst].add(src)
    work = list(good)
    while work:
        v = work.pop()
        for p in incoming[v]:
            if p not in good:
                good.add(p)
                work.append(p)
    return good


# -- amp.transform --------------------------------------------------------


def _states_reaching(machine: StateMachine, targets: frozenset) -> set[str]:
    incoming: dict[str, set[str]] = {q: set() for q in machine.states}
    for src, _, dst in machine.transitions:
        incoming[dst].add(src)
    reached = set(targets)
    work = list(targets)
    while work:
        q = work.pop()
        for p in incoming[q]:
            if p not in reached:
                reached.add(p)
                work.append(p)
    return reached


# -- amp.encoding ---------------------------------------------------------


def encode_psm(machine: StateMachine, bounds: dict) -> StateMachine:
    """Encode a protocol machine into one over the extended alphabet.

    States carry ring counters for each bounded channel; transitions on
    bounded channels become paired exchanges with the forwarder at the
    current counter.  With empty bounds this is the identity.
    """
    machine = merge_immediate_pairs(machine, bounds)
    # Rings of size one have a constant counter; no need to track them.
    channels = tuple(sorted(ch for ch, b in bounds.items() if b >= 2))
    zero = tuple((ch, 0) for ch in channels)
    start = (machine.initial, zero, zero)
    index = {start: _counter_state(machine.initial, zero, zero)}
    frontier = deque([start])
    transitions = []
    finals = set()
    while frontier:
        node = frontier.popleft()
        q, snd, rcv_ = node
        name = index[node]
        if q in machine.finals and snd == zero and rcv_ == zero:
            finals.add(name)
        for ev, dst in machine.out(q):
            if ev is None:
                succ = (dst, snd, rcv_)
                label = None
            elif ev.kind == PAIR:
                succ = (dst, snd, rcv_)
                label = ev
            elif ev.kind == SEND:
                idx = dict(snd).get(ev.channel, 0)
                cp = ChannelParticipant(*ev.channel, idx).name
                label = pair(ev.sender, cp, ev.label, ev.payload)
                snd2 = tuple((ch, (v + 1) % bounds[ch] if ch == ev.channel else v)
                             for ch, v in snd)
                succ = (dst, snd2, rcv_)
            else:
                idx = dict(rcv_).get(ev.channel, 0)
                cp = ChannelParticipant(*ev.channel, idx).name
                label = pair(cp, ev.receiver, ev.label, ev.payload)
                rcv2 = tuple((ch, (v + 1) % bounds[ch] if ch == ev.channel else v)
                             for ch, v in rcv_)
                succ = (dst, snd, rcv2)
            if succ not in index:
                index[succ] = _counter_state(*succ)
                frontier.append(succ)
            transitions.append((name, label, index[succ]))
    return StateMachine(set(index.values()), index[start], finals, transitions)


def encode_fsm(machine: StateMachine, participant: str, bounds: dict) -> StateMachine:
    """Thread ring counters through a participant's local machine."""
    out_channels = tuple(sorted(ch for ch in bounds
                                if ch[0] == participant and bounds[ch] >= 2))
    in_channels = tuple(sorted(ch for ch in bounds
                               if ch[1] == participant and bounds[ch] >= 2))
    zero_out = tuple((ch, 0) for ch in out_channels)
    zero_in = tuple((ch, 0) for ch in in_channels)
    start = (machine.initial, zero_out, zero_in)
    index = {start: _counter_state(machine.initial, zero_out, zero_in)}
    frontier = deque([start])
    transitions = []
    finals = set()
    while frontier:
        node = frontier.popleft()
        q, snd, rcv_ = node
        name = index[node]
        if q in machine.finals and snd == zero_out and rcv_ == zero_in:
            finals.add(name)
        for ev, dst in machine.out(q):
            if ev is None or ev.channel not in bounds:
                label, succ = ev, (dst, snd, rcv_)
            elif ev.kind == SEND:
                idx = dict(snd).get(ev.channel, 0)
                cp = ChannelParticipant(*ev.channel, idx).name
                label = send(participant, cp, ev.label, ev.payload)
                snd2 = tuple((ch, (v + 1) % bounds[ch] if ch == ev.channel else v)
                             for ch, v in snd)
                succ = (dst, snd2, rcv_)
            else:
                idx = dict(rcv_).get(ev.channel, 0)
                cp = ChannelParticipant(*ev.channel, idx).name
                label = recv(cp, participant, ev.label, ev.payload)
                rcv2 = tuple((ch, (v + 1) % bounds[ch] if ch == ev.channel else v)
                             for ch, v in rcv_)
                succ = (dst, snd, rcv2)
            if succ not in index:
                index[succ] = _counter_state(*succ)
                frontier.append(succ)
            transitions.append((name, label, index[succ]))
    return StateMachine(set(index.values()), index[start], finals, transitions)
