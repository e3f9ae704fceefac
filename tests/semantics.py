"""The paper's word-level semantics, kept as test-only checks.

The library first followed the paper word by word.  The command-line
path has since replaced each of these definitions with a graph or
vector algorithm, and only tests call them now.  They are the library's
code verbatim but for absolute imports.  Each checks the library code
named next to it:

`amp.core`
- `complete_traces`, `extendable_traces`, `languages_equal_upto`: the
  bounded languages of `core.maximal_traces_upto`; check that
  `projection.minimize`, `project_tame`, the encoding and the type
  transforms keep a machine's language.
- `machine_isomorphic`: a backtracking state renaming; checks the
  machines that `project_tame`, `encode_psm` and `decode_fsm` build
  against hand-drawn ones, up to state names.
- `rename`: a machine with its states renamed, as the method
  `StateMachine.rename` did before only tests called it; builds the
  copies that `machine_isomorphic` and the reference `canonical_names`
  of `projection_reference.py` read.

`amp.csm`
- `initial_config`, `is_final_sink_config`: the start configuration and
  the test for a final sink; they drive the old exploration in
  `csm_reference.py`, which checks `csm.explore` and `csm.step`.

`amp.encoding`
- `encode_word`, `decode_word`: the forwarder encoding of one word;
  check that `encode_psm` encodes a protocol's language word by word.
- `encode_fsm`: the encoding of one participant's machine, built on
  `_thread_counters` and `_counter_state`, the ring-counter product on
  state names that `encoding.encode_psm` walked before it ran on the
  compiled form; checks `decode_fsm`, and `graph_reference.py` keeps
  its older copy.
- `channel_participant_machine`, `is_forwarding` with `FORWARDING`,
  `ALMOST` and `NO`: a forwarder's machine and words; check
  `projection_reference.machine_is_forwarding`, which the string-machine
  amicability reference `named_is_amicable` uses.
- `is_channel_ordered`: forwarder hops of one word in ring order;
  checks `encode_psm`, and the trace-bounded `is_amicable` of
  `projection_reference.py` is built on it.

`amp.fifo`
- `match_report`, `MatchReport`,
  `check_feasible_eventual_reception_language`: feasible eventual
  reception on a sample of words, the paper's definition that
  `psm.check_fer` decides on the configuration graph.
- `is_b_bounded`: the messages in flight along one word; checks the
  bounds that `psm.infer_channel_bounds` certifies.
- `equivalent`: swap equivalence of two words, through
  `fifo.closure_upto`; checks the closure and the word encoding up to
  reordering.
- `parse_word`: the `p>q!m`, `p>q?m` and `p->q:m` literals that tests
  write words in.

`amp.transform`
- `regex_lang_upto`: the words of an expression by structural
  enumeration; checks `psm_to_regex`, `regex_to_psm` and `brz_deriv`.
- `mark`, `unmark`, `regex_choice_class`, `regex_choice_class_bounded`
  and their helpers: the choice classes of Glushkov-marked expressions;
  check that `brz_deriv` keeps a sender-driven expression
  sender-driven, and `walker_reference.py` keeps their older copies.
- `psm_deriv`, `psm_deriv_rooted`: the paper's machine derivative of a
  tree-shaped machine, the machine-side counterpart of `brz_deriv`,
  which `regex_to_psm` uses.
- `is_ancestor_recursive`, `is_non_merging`,
  `is_intermediate_recursion_free`, `is_tree_shaped`: the tree-shape
  predicates; check that `global_to_psm` and `regex_to_psm` build
  tree-shaped machines.

`amp.typecheck`
- `context_reduce`: one-step reductions of typing contexts; checks that
  a `StateRegistry`'s transitions reach only the configurations that
  `csm.explore` finds.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from amp.core import (Event, PAIR, RECV, SEND, StateMachine, TraceFlags,
                      TraceSet, Word, maximal_traces_upto, payload_key,
                      reachable, recv, send, walk)
from amp.csm import Configuration, Csm, is_final_config
from amp.encoding import (Channel, ChannelParticipant,
                          parse_channel_participant)
from amp.fifo import DEFAULT_CLOSURE_CAP, VIOLATION, closure_upto, is_fifo
from amp.transform import (RAlt, RCat, REmpty, REps, RLetter, RStar, Regex,
                           first_letters, nullable)
from amp.typecheck import Endpoint, StateRegistry

from .compiled_reference import is_dense


# -- amp.core: trace languages and isomorphism --------------------------------


def complete_traces(traces: TraceSet) -> frozenset[Word]:
    return frozenset(w for w, f in traces.items() if f.complete)


def extendable_traces(traces: TraceSet) -> frozenset[Word]:
    return frozenset(w for w, f in traces.items() if f.extendable)


def languages_equal_upto(a: StateMachine, b: StateMachine, k: int) -> bool:
    """Compare complete-trace sets and extendable-prefix sets up to k."""
    ta = maximal_traces_upto(a, k)
    tb = maximal_traces_upto(b, k)
    return (complete_traces(ta) == complete_traces(tb)
            and extendable_traces(ta) == extendable_traces(tb))


def rename(machine: StateMachine, mapping: Mapping[str, str]) -> StateMachine:
    def m(q: str) -> str:
        return mapping.get(q, q)

    return StateMachine({m(q) for q in machine.states}, m(machine.initial),
                        {m(q) for q in machine.finals},
                        [(m(s), e, m(d)) for s, e, d in machine.transitions])


def machine_isomorphic(a: StateMachine, b: StateMachine) -> Optional[dict[str, str]]:
    """Find a state renaming turning `a` into `b`, or None.

    Backtracking search seeded at the initial states; adequate for the
    small machines this library manipulates.
    """
    if (len(a.states) != len(b.states) or len(a.finals) != len(b.finals)
            or len(a.transitions) != len(b.transitions)):
        return None

    def signature(m: StateMachine, q: str):
        labels = tuple(sorted((() if ev is None else ev.sort_key())
                              for ev, _ in m.out(q)))
        return (q in m.finals, labels)

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(qa: str, qb: str) -> bool:
        if qa in mapping:
            return mapping[qa] == qb
        if qb in used or signature(a, qa) != signature(b, qb):
            return False
        mapping[qa] = qb
        used.add(qb)
        outs_a = a.out(qa)
        outs_b = b.out(qb)
        by_label: dict = {}
        for ev, dst in outs_b:
            key = None if ev is None else ev.sort_key()
            by_label.setdefault(key, []).append(dst)

        def assign(i: int) -> bool:
            if i == len(outs_a):
                return True
            ev, dst = outs_a[i]
            key = None if ev is None else ev.sort_key()
            for cand in by_label.get(key, []):
                snapshot = dict(mapping), set(used)
                if extend(dst, cand) and assign(i + 1):
                    return True
                mapping.clear()
                mapping.update(snapshot[0])
                used.clear()
                used.update(snapshot[1])
            return False

        if assign(0):
            return True
        del mapping[qa]
        used.discard(qb)
        return False

    if extend(a.initial, b.initial) and len(mapping) == len(a.states):
        return dict(mapping)
    return None


# -- amp.csm: configurations --------------------------------------------------


def initial_config(csm: Csm) -> Configuration:
    return Configuration(
        tuple((p, m.initial) for p, m in csm.components.items()), ())


def is_final_sink_config(csm: Csm, config: Configuration) -> bool:
    return is_final_config(csm, config) and all(
        csm.components[p].is_sink(q) for p, q in config.states)


# -- amp.encoding: words and forwarders ---------------------------------------


def is_channel_ordered(word: Word, bounds: dict) -> bool:
    """Forwarder hops are used in ring order for every bounded channel."""
    families: dict[tuple, list[int]] = {}
    for ev in word:
        for e in ev.letters():
            cp = parse_channel_participant(e.receiver)
            if cp is not None and (cp.source, cp.target) in bounds:
                families.setdefault((cp.source, cp.target, e.kind, "in"),
                                    []).append(cp.index)
            cp = parse_channel_participant(e.sender)
            if cp is not None and (cp.source, cp.target) in bounds:
                families.setdefault((cp.source, cp.target, e.kind, "out"),
                                    []).append(cp.index)
    for (src, dst, _, _), indices in families.items():
        b = bounds[(src, dst)]
        if any(idx != i % b for i, idx in enumerate(indices)):
            return False
    return True


def encode_word(word: Word, bounds: dict) -> Word:
    """Reroute each bounded-channel event through its ring forwarder.

    The i-th send on a bounded channel (p,q) becomes the exchange
    p -> (p,q)_{i mod B}; the i-th receive becomes (p,q)_{i mod B} -> q.
    Events on unbounded channels pass through unchanged.
    """
    sends: dict[Channel, int] = {}
    recvs: dict[Channel, int] = {}
    out: list[Event] = []
    for ev in word:
        if ev.kind == PAIR:
            raise ValueError("encode_word takes send/receive letters")
        channel = ev.channel
        if channel not in bounds:
            out.append(ev)
            continue
        b = bounds[channel]
        if ev.kind == SEND:
            idx = sends.get(channel, 0)
            if idx - recvs.get(channel, 0) >= b:
                raise ValueError(f"word exceeds bound {b} on channel {channel}")
            cp = ChannelParticipant(*channel, idx % b).name
            out.append(send(ev.sender, cp, ev.label, ev.payload))
            out.append(recv(ev.sender, cp, ev.label, ev.payload))
            sends[channel] = idx + 1
        else:
            idx = recvs.get(channel, 0)
            cp = ChannelParticipant(*channel, idx % b).name
            out.append(send(cp, ev.receiver, ev.label, ev.payload))
            out.append(recv(cp, ev.receiver, ev.label, ev.payload))
            recvs[channel] = idx + 1
    return tuple(out)


def decode_word(word: Word) -> Word:
    """Inverse of encode_word on words made of the paired forwarder hops."""
    out: list[Event] = []
    i = 0
    while i < len(word):
        ev = word[i]
        cp_recv = parse_channel_participant(ev.receiver)
        cp_send = parse_channel_participant(ev.sender)
        if ev.kind == SEND and (cp_recv or cp_send):
            if i + 1 >= len(word) or word[i + 1] != recv(
                    ev.sender, ev.receiver, ev.label, ev.payload):
                raise ValueError(f"unpaired encoded event at position {i + 1}")
            if cp_recv is not None:
                out.append(send(cp_recv.source, cp_recv.target, ev.label, ev.payload))
            else:
                out.append(recv(cp_send.source, cp_send.target, ev.label, ev.payload))
            i += 2
        else:
            out.append(ev)
            i += 1
    return tuple(out)


def _counter_state(q: str, snd: tuple, rcv_: tuple) -> str:
    def fmt(tag: str, items: tuple) -> str:
        return tag + ",".join(f"({p},{r})={v}" for (p, r), v in items)

    parts = [q]
    if snd:
        parts.append(fmt("s:", snd))
    if rcv_:
        parts.append(fmt("r:", rcv_))
    return "|".join(parts)


def _thread_counters(machine: StateMachine, bounds: dict, out_channels: tuple,
                     in_channels: tuple, hop) -> StateMachine:
    """Breadth-first product of `machine` with ring counters.

    Each state carries a send counter per channel in `out_channels` and a
    receive counter per channel in `in_channels`.  `hop(ev, cp)` gives the
    exchange with forwarder `cp`, the one at the current counter, that
    replaces the send or receive `ev` and advances its counter, or None to
    keep `ev` and the counters as they are.  Only states with every counter
    at zero stay final.
    """
    moves: dict = {}  # node -> its (label, successor) moves

    def successors(node):
        q, snd, rcv_ = node
        out = moves[node] = []
        for ev, dst in machine.out(q):
            label, succ = ev, (dst, snd, rcv_)
            if ev is not None:
                sending = ev.kind == SEND
                counters = snd if sending else rcv_
                idx = dict(counters).get(ev.channel, 0)
                rerouted = hop(ev, ChannelParticipant(*ev.channel, idx).name)
                if rerouted is not None:
                    label = rerouted
                    ticked = tuple(
                        (ch, (v + 1) % bounds[ch] if ch == ev.channel else v)
                        for ch, v in counters)
                    succ = (dst, ticked, rcv_) if sending else (dst, snd, ticked)
            out.append((label, succ))
        return [succ for _, succ in out]

    zero_out = tuple((ch, 0) for ch in out_channels)
    zero_in = tuple((ch, 0) for ch in in_channels)
    start = (machine.initial, zero_out, zero_in)
    name = {node: _counter_state(*node) for node in walk((start,), successors)}
    finals = [n for (q, snd, rcv_), n in name.items()
              if q in machine.finals and snd == zero_out and rcv_ == zero_in]
    return StateMachine(name.values(), name[start], finals,
                        [(name[node], label, name[succ])
                         for node, out in moves.items() for label, succ in out])


def encode_fsm(machine: StateMachine, participant: str, bounds: dict) -> StateMachine:
    """Thread ring counters through a participant's local machine."""
    out_channels = tuple(sorted(ch for ch in bounds
                                if ch[0] == participant and bounds[ch] >= 2))
    in_channels = tuple(sorted(ch for ch in bounds
                               if ch[1] == participant and bounds[ch] >= 2))

    def hop(ev: Event, cp: str) -> Optional[Event]:
        if ev.channel not in bounds:
            return None
        if ev.kind == SEND:
            return send(participant, cp, ev.label, ev.payload)
        return recv(cp, participant, ev.label, ev.payload)

    return _thread_counters(machine, bounds, out_channels, in_channels, hop)


def channel_participant_machine(cp: ChannelParticipant,
                                messages: Iterable) -> StateMachine:
    """The forwarding hub: receive a message from the source, pass it on.

    `messages` holds (label, payload) pairs or bare labels.
    """
    hub = "idle"
    states = {hub}
    transitions = []
    for msg in sorted(messages, key=str):
        label, payload = msg if isinstance(msg, tuple) else (msg, None)
        hold = f"hold_{label}" if payload is None else f"hold_{label}_{payload}"
        states.add(hold)
        transitions.append((hub, recv(cp.source, cp.name, label, payload), hold))
        transitions.append((hold, send(cp.name, cp.target, label, payload), hub))
    return StateMachine(states, hub, {hub}, transitions)


FORWARDING = "forwarding"
ALMOST = "almost"
NO = "no"


def is_forwarding(word: Word, cp: ChannelParticipant) -> str:
    """A forwarder's word alternates receive-from-source, send-to-target
    of the same message; `almost` allows one trailing unanswered receive."""
    for j in range(0, len(word) - 1, 2):
        ev, nxt = word[j], word[j + 1]
        if not (ev.kind == RECV and ev.sender == cp.source
                and ev.receiver == cp.name):
            return NO
        if nxt != send(cp.name, cp.target, ev.label, ev.payload):
            return NO
    if len(word) % 2 == 1:
        last = word[-1]
        if last.kind == RECV and last.sender == cp.source \
                and last.receiver == cp.name:
            return ALMOST
        return NO
    return FORWARDING


# -- amp.fifo: matching, boundedness and word literals ------------------------


@dataclass(frozen=True)
class MatchReport:
    matched: Mapping[int, int]
    unmatched: frozenset[int]


def match_report(word: Word) -> MatchReport:
    """Pair each send position with its FIFO-matching receive position."""
    pending: dict[tuple[str, str], list[int]] = {}
    matched: dict[int, int] = {}
    unmatched: set[int] = set()
    for i, ev in enumerate(word):
        if ev.kind == SEND:
            pending.setdefault(ev.channel, []).append(i)
        elif ev.kind == RECV:
            queue = pending.get(ev.channel, [])
            if queue and word[queue[0]].message() == ev.message():
                matched[queue.pop(0)] = i
            else:
                # Receive with no matching head; callers detect this via is_fifo.
                unmatched.add(i)
    for queue in pending.values():
        unmatched.update(queue)
    return MatchReport(matched, frozenset(unmatched))


def is_b_bounded(word: Word, bound: int, mode: str = "per-channel") -> bool:
    """Check that no prefix leaves more than `bound` messages in flight.

    ``per-channel`` bounds each channel separately; ``sum`` bounds the
    total across channels.  Rejects non-FIFO input.
    """
    if mode not in ("per-channel", "sum"):
        raise ValueError(f"unknown mode {mode!r}")
    if is_fifo(word).status == VIOLATION:
        raise ValueError("is_b_bounded requires a FIFO word")
    counts: dict[tuple[str, str], int] = {}
    total = 0
    for ev in word:
        if ev.kind == SEND:
            counts[ev.channel] = counts.get(ev.channel, 0) + 1
            total += 1
        else:
            counts[ev.channel] -= 1
            total -= 1
        if mode == "per-channel" and counts[ev.channel] > bound:
            return False
        if mode == "sum" and total > bound:
            return False
    return True


def equivalent(u: Word, v: Word, cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """Whether u and v are reachable from each other under swaps."""
    if sorted(ev.sort_key() for ev in u) != sorted(ev.sort_key() for ev in v):
        return False
    return v in closure_upto([u], cap)


def check_feasible_eventual_reception_language(
        sample: Mapping[Word, TraceFlags]) -> bool:
    """Every sampled word with an unmatched send has a sampled extension
    in which that send is matched.

    Sound only relative to the sample: the sample must be prefix-closed,
    and the answer says nothing about extensions beyond it.  Runs in one
    pass: each word discharges the pending sends of all its sampled
    prefixes.
    """
    words = set(sample)
    unresolved: dict[Word, set[int]] = {}
    for w in words:
        report = match_report(w)
        unresolved[w] = {i for i in report.unmatched if w[i].kind == SEND}
    for u in words:
        matched = set(match_report(u).matched)
        if not matched:
            continue
        for k in range(len(u)):
            w = u[:k]
            pending = unresolved.get(w)
            if pending:
                pending -= matched
    return not any(unresolved.values())


_SEND_RE = re.compile(r"^(?P<s>[^>!?]+)>(?P<r>[^>!?]+)!(?P<l>[^!?]+)$")
_RECV_RE = re.compile(r"^(?P<s>[^>!?]+)>(?P<r>[^>!?]+)\?(?P<l>[^!?]+)$")
_PAIR_RE = re.compile(r"^(?P<s>[^>!?:]+)->(?P<r>[^>!?:]+):(?P<l>[^:]+)$")


def parse_word(text: str) -> Word:
    """Parse the literal syntax: `p>q!m` send, `p>q?m` receive, and
    `p->q:m` for the send/receive pair; tokens split on whitespace or dots.
    """
    events: list[Event] = []
    for token in re.split(r"[\s.]+", text.strip()):
        if not token:
            continue
        m = _PAIR_RE.match(token)
        if m:
            events.append(send(m["s"], m["r"], m["l"]))
            events.append(recv(m["s"], m["r"], m["l"]))
            continue
        m = _SEND_RE.match(token)
        if m:
            events.append(send(m["s"], m["r"], m["l"]))
            continue
        m = _RECV_RE.match(token)
        if m:
            events.append(recv(m["s"], m["r"], m["l"]))
            continue
        raise ValueError(f"bad event literal {token!r}")
    return tuple(events)


# -- amp.transform: languages, choice classes, derivatives and tree shape -----


def regex_lang_upto(r: Regex, k: int) -> frozenset[Word]:
    """All finite words of the expression's language with <= k letters.

    Direct structural enumeration, independent of the derivative and
    machine constructions it serves as an oracle for.
    """
    def lang(r: Regex) -> frozenset[Word]:
        if isinstance(r, REmpty):
            return frozenset()
        if isinstance(r, REps):
            return frozenset({()})
        if isinstance(r, RLetter):
            return frozenset({tuple(r.event.letters())}) \
                if len(r.event.letters()) <= k else frozenset()
        if isinstance(r, RAlt):
            return lang(r.left) | lang(r.right)
        if isinstance(r, RCat):
            left, right = lang(r.left), lang(r.right)
            return frozenset(u + v for u in left for v in right
                             if len(u) + len(v) <= k)
        inner = lang(r.inner)
        words = {()}
        frontier = {()}
        while frontier:
            nxt = set()
            for u in frontier:
                for v in inner:
                    w = u + v
                    if v and len(w) <= k and w not in words:
                        words.add(w)
                        nxt.add(w)
            frontier = nxt
        return frozenset(words)

    return frozenset(w for w in lang(r) if len(w) <= k)


def _positions(r: Regex, counter) -> "Regex":
    """Subscript every letter with a distinct index (Glushkov marking)."""
    if isinstance(r, RLetter):
        return RLetter(Event(r.event.kind, r.event.sender, r.event.receiver,
                             f"{r.event.label}#{next(counter)}", r.event.payload))
    if isinstance(r, RAlt):
        return RAlt(_positions(r.left, counter), _positions(r.right, counter))
    if isinstance(r, RCat):
        return RCat(_positions(r.left, counter), _positions(r.right, counter))
    if isinstance(r, RStar):
        return RStar(_positions(r.inner, counter))
    return r


def mark(r: Regex) -> Regex:
    return _positions(r, itertools.count(1))


def unmark(ev: Event) -> Event:
    label = ev.label.split("#")[0]
    return Event(ev.kind, ev.sender, ev.receiver, label, ev.payload)


def _last_letters(r: Regex) -> frozenset[Event]:
    if isinstance(r, (REmpty, REps)):
        return frozenset()
    if isinstance(r, RLetter):
        return frozenset({r.event})
    if isinstance(r, RAlt):
        return _last_letters(r.left) | _last_letters(r.right)
    if isinstance(r, RCat):
        lasts = _last_letters(r.right)
        if nullable(r.right):
            lasts |= _last_letters(r.left)
        return lasts
    return _last_letters(r.inner)


def _follow_sets(r: Regex) -> dict[Event, frozenset[Event]]:
    """Glushkov follow sets of a marked expression."""
    follow: dict[Event, set[Event]] = {}

    def visit(r: Regex) -> None:
        if isinstance(r, RAlt):
            visit(r.left)
            visit(r.right)
        elif isinstance(r, RCat):
            visit(r.left)
            visit(r.right)
            for a in _last_letters(r.left):
                follow.setdefault(a, set()).update(first_letters(r.right))
        elif isinstance(r, RStar):
            visit(r.inner)
            for a in _last_letters(r.inner):
                follow.setdefault(a, set()).update(first_letters(r.inner))

    visit(r)
    return {a: frozenset(s) for a, s in follow.items()}


def regex_choice_class(r: Regex) -> str:
    """Classify a marked expression's branching via first/follow sets.

    At every decision point (the first letters, and each letter's follow
    set) distinct marked letters must stay distinct after unmarking; for
    sender-driven choice the alternatives must further be sends by one
    participant, and for directed choice share the receiver too.
    """
    marked = mark(r)
    decision_points = [first_letters(marked)]
    decision_points.extend(_follow_sets(marked).values())
    return _classify_decision_points(decision_points)


def _classify_decision_points(decision_points: Iterable) -> str:
    """The choice class of a marked expression's decision points: sets
    of marked letters that may come next at one point of a run."""
    from amp.psm import DIRECTED, MIXED, NON_DETERMINISTIC, SENDER_DRIVEN
    directed = True
    sender_driven = True
    for letters in decision_points:
        if len(letters) <= 1:
            continue
        unmarked = [unmark(a) for a in sorted(letters, key=Event.sort_key)]
        if len(set(unmarked)) != len(unmarked):
            return NON_DETERMINISTIC
        if any(ev.kind == RECV for ev in unmarked) \
                or len({ev.sender for ev in unmarked}) != 1:
            sender_driven = directed = False
        elif len({ev.receiver for ev in unmarked}) != 1:
            directed = False
    if directed:
        return DIRECTED
    if sender_driven:
        return SENDER_DRIVEN
    return MIXED


def regex_choice_class_bounded(r: Regex, k: int) -> str:
    """The prefix-based classification, bounded to words of length <= k.

    Enumerates prefixes of the marked language and inspects which marked
    letters can follow each prefix; agrees with the first/follow
    characterisation on star-free-enough samples.
    """
    marked = mark(r)
    words = regex_lang_upto(marked, k)
    prefixes: dict[Word, set[Event]] = {}
    for w in words:
        for i in range(len(w)):
            prefixes.setdefault(w[:i], set()).add(w[i])
    return _classify_decision_points(prefixes.values())


def psm_deriv(a: Event, machine: StateMachine) -> StateMachine:
    """The machine derivative for tree-shaped sink-final machines.

    The a-successor of the root becomes the new root with its subtree;
    every kept back edge to the removed root is replaced by a fresh copy
    of the whole machine, unrolling the loop once.
    """
    machine = machine.trim()
    root = machine.initial
    targets = [dst for ev, dst in machine.out(root) if ev == a]
    if not targets:
        raise ValueError(f"{a} is not a first letter of the machine")
    if len(targets) > 1:
        parts = [psm_deriv_rooted(machine, t) for t in targets]
        return _union_at_root(parts)
    return psm_deriv_rooted(machine, targets[0])


def psm_deriv_rooted(machine: StateMachine, new_root: str) -> StateMachine:
    root = machine.initial
    # Descendants of the new root along forward (labelled) edges;
    # epsilon transitions are the back edges.
    keep = reachable((new_root,), lambda q: [
        dst for ev, dst in machine.out(q) if ev is not None])

    copies = itertools.count(1)
    states = set(keep)
    finals = set(machine.finals & keep)
    transitions: list = []
    for s, e, d in machine.transitions:
        if s not in keep:
            continue
        if e is None and d == root:
            # Back edge to the removed root: splice in a copy of the machine.
            suffix = f"^{next(copies)}"
            renamed = rename(machine, {q: q + suffix for q in machine.states})
            states |= renamed.states
            finals |= renamed.finals
            transitions.extend(renamed.transitions)
            transitions.append((s, None, renamed.initial))
        elif d in keep:
            transitions.append((s, e, d))
    if new_root == root:  # the a-edge looped straight back
        suffix = f"^{next(copies)}"
        renamed = rename(machine, {q: q + suffix for q in machine.states})
        return renamed
    return StateMachine(states, new_root, finals, transitions).trim()


def _union_at_root(machines: list[StateMachine]) -> StateMachine:
    root = "u0"
    states = {root}
    finals: set[str] = set()
    transitions: list = []
    is_final = False
    for i, m in enumerate(machines):
        renamed = rename(m, {q: f"{q}@{i}" for q in m.states})
        states |= renamed.states
        finals |= set(renamed.finals)
        transitions.extend(renamed.transitions)
        for ev, dst in renamed.out(renamed.initial):
            transitions.append((root, ev, dst))
        if renamed.initial in renamed.finals:
            is_final = True
    if is_final:
        finals.add(root)
    return StateMachine(states, root, finals, transitions).trim()


def _forward_levels(machine: StateMachine) -> Optional[dict]:
    """A level function decreasing along labelled transitions, if any."""
    levels: dict[str, int] = {}
    order: list[str] = []
    visiting: set[str] = set()

    def visit(q: str) -> bool:
        visiting.add(q)
        for ev, dst in machine.out(q):
            if ev is None:
                continue
            if dst in visiting:
                return False  # a labelled cycle admits no level function
            if dst not in levels:
                if not visit(dst):
                    return False
        visiting.discard(q)
        levels[q] = len(order)
        order.append(q)
        return True

    for q in sorted(machine.states):
        if q not in levels and not visit(q):
            return None
    return levels


def is_ancestor_recursive(machine: StateMachine) -> bool:
    """Labelled transitions descend a level function; epsilon transitions
    climb back to a state that can reach their source again."""
    machine = machine.trim()
    levels = _forward_levels(machine)
    if levels is None:
        return False
    for src, ev, dst in machine.transitions:
        if ev is not None:
            continue
        # dst must be an ancestor: reachable from the initial state
        # without src, and able to reach src again.
        if src not in reachable((dst,), lambda q: [
                d for _, d in machine.out(q)]):
            return False
    return True


def is_non_merging(machine: StateMachine) -> bool:
    """Every state has at most one incoming labelled transition."""
    machine = machine.trim()
    incoming: dict[str, int] = {}
    for _, ev, dst in machine.transitions:
        if ev is not None:
            incoming[dst] = incoming.get(dst, 0) + 1
    return all(count <= 1 for count in incoming.values())


def is_intermediate_recursion_free(machine: StateMachine) -> bool:
    """Branching states have labelled transitions only; epsilon back
    edges sit on their own single-exit states."""
    machine = machine.trim()
    for q in machine.states:
        outs = machine.out(q)
        if len(outs) > 1 and any(ev is None for ev, _ in outs):
            return False
    return True


def is_tree_shaped(machine: StateMachine) -> bool:
    return (is_dense(machine.trim()) and is_ancestor_recursive(machine)
            and is_non_merging(machine)
            and is_intermediate_recursion_free(machine))


# -- amp.typecheck: typing-context reductions ---------------------------------


def context_reduce(registry: StateRegistry, gamma: Mapping, delta: Mapping
                   ) -> list[tuple[dict, dict]]:
    """One-step reductions of the typing contexts, mirroring the machine.

    A send binding appends its message type to the sender's queue entry;
    a receive binding pops a matching head from the peer's entry.
    """
    successors = []
    for ref, state in sorted(gamma.items(), key=lambda kv: str(kv[0])):
        if not isinstance(ref, Endpoint) or not registry.is_state(state):
            continue
        for ev, target in registry.transitions(state):
            if ev is None:
                continue
            msg = (ev.label, payload_key(ev.payload))
            key = (ref.session, ev.sender, ev.receiver)
            entry = delta.get(key)
            if ev.kind == SEND and entry is not None:
                entry += (msg,)
            elif ev.kind == RECV and entry and entry[0] == msg:
                entry = entry[1:]
            else:
                continue
            successors.append(({**gamma, ref: target}, {**delta, key: entry}))
    return successors
