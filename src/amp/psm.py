"""Protocol state machine validation: buffer bounds, density, feasible
eventual reception, choice classification, channel-bound inference.

Validation reads a word-level configuration graph: each node holds the
set of machine states a word can reach together with the word's channel
contents.  Because channel contents are a function of the word alone,
this determinised view answers language-level questions exactly.

`validate` reads a protocol's `core.Compiled` form, as loaded, and keeps
it in the `Psm` it returns.  A form that receives each send at once, as every
global type does, is its own graph, certified by one scan; any other
form (a bounded channel, a receive behind an epsilon move, a choice
between equal letters) is walked (`build_config_graph`, which measures
the bounds as it goes): the walk and `check_fer` read only ints, and
`check_fer` hands `core.fer_violation` edges labelled with the channel
they receive on.  The form's one branching scan, `choice_report`, gives
`is_tame` and `projection.project_tame` sink-finality, the choice
class and the first state that branches on a receive or on two
senders, and `detected_channels` reads the form too.
"""

from __future__ import annotations

from typing import Optional

from .core import (Compiled, Event, RECV, Record, SEND, StateMachine, Word,
                   expand_pairs, fer_violation, nodes_on_cycles, parent_word,
                   reachable, strongly_connected_components, walk)

DEFAULT_CONFIG_CAP = 1_000_000

Channel = tuple[str, str]


class PsmError(Exception):
    """A validation diagnostic, carrying a witness where one exists."""

    def __init__(self, message: str, witness: Optional[Word] = None):
        super().__init__(message)
        self.witness = witness


class NotDense(PsmError):
    pass


class NonFifo(PsmError):
    pass


class UnboundedChannel(PsmError):
    pass


class ConfigCapExceeded(UnboundedChannel):
    """The configuration graph outgrew its cap, a resource limit."""


class FerViolation(PsmError):
    pass


class UnboundedLoop(PsmError):
    """Channel-bound inference failed on a loop with no return traffic."""


class Psm:
    """A validated protocol machine with its certified buffer bounds:
    `compiled` is the machine's integer form, and `machine` the machine
    trimmed, each pair split into its send and its receive, built from
    the form's `source` when first read: only bound inference's loop
    check, on a form with a cycle, and the bounded oracle
    (`csm.check_projection`) read it."""

    def __init__(self, compiled: Compiled, bound_total: int,
                 bound_by_channel: dict):
        self.compiled = compiled
        self._machine = None
        self.bound_total, self.bound_by_channel = bound_total, bound_by_channel

    @property
    def machine(self) -> StateMachine:
        if self._machine is None:
            self._machine = expand_pairs(self.compiled.source)
            if len(self.compiled.keep) < len(self.compiled.moves):
                self._machine = self._machine.trim()
            self._machine._trimmed = True
        return self._machine

    @property
    def sum_one(self) -> bool:
        return self.bound_total <= 1


class ConfigGraph:
    """Reachable configurations of a machine compiled to integers.

    States are numbered as `core.Compiled` numbers them, and letter r is
    `letters[r]`, letters ranked in `Event.sort_key` order.  Node i is
    `nodes[i]`: (the frozenset of states a word reaches, and per channel
    of the sorted `channels` the tuple of the ranks of the sends queued
    on it).  `moves[i]` lists node i's (rank, successor) moves by rank,
    `parent` maps each later node to (the node it was first reached from,
    the rank between) and `finals` holds the final states.  `bound` is the
    most messages a node queues and `longest[c]` the longest queue on
    channel c, read off each node as the walk makes it.  `validate`
    walks only forms that are not immediate (`_immediate_configs`): those
    that queue two messages, keep one past an epsilon move, reach two
    states on one word or break FIFO order.
    """

    __slots__ = ("letters", "channels", "finals", "nodes", "moves", "parent",
                 "bound", "longest")

    def word_to(self, node_id: int) -> Word:
        return tuple(self.letters[r]
                     for r in parent_word(self.parent, node_id))


def build_config_graph(form: Compiled, *,
                       config_cap: int = DEFAULT_CONFIG_CAP,
                       queue_cap: Optional[int] = None) -> ConfigGraph:
    """Explore the word-level configuration graph of a compiled machine,
    trimmed, checking FIFO discipline.

    Raises NonFifo on a receive that cannot consume its channel head, or
    on a complete trace with unmatched sends; raises UnboundedChannel
    when exploration outgrows the caps.
    """
    if queue_cap is None:
        queue_cap = max(4, 2 * len(form.keep))
    graph = ConfigGraph()
    graph.letters = letters = form.letters
    graph.channels = channels = sorted({ev.channel for ev in letters})
    lane = {ch: c for c, ch in enumerate(channels)}
    # per rank: its channel, and the send rank a receive needs at the head
    # of that channel (-1 when no send matches; None for a send)
    lanes = [lane[ev.channel] for ev in letters]
    heads = [None if ev.kind == SEND else -1 for ev in letters]
    for r, received in enumerate(form.receive):
        if received >= 0:
            heads[received] = r
    eps, out = form.eps, form.moves
    closure = [frozenset(reachable((q,), eps.__getitem__)) if eps[q]
               else frozenset((q,)) for q in range(len(out))]
    graph.finals = finals = form.finals
    start = (closure[form.initial], ((),) * len(channels))
    graph.nodes = nodes = [start]
    graph.moves = moves = []
    graph.parent = parent = {}
    graph.longest = longest = [0] * len(channels)
    sizes = [0]  # per node, the messages it queues
    index = {start: 0}
    for node_id, (stateset, queues) in enumerate(nodes):
        if any(queues) and not finals.isdisjoint(stateset):
            raise NonFifo("complete trace leaves unmatched sends",
                          graph.word_to(node_id))
        step: dict = {}
        for q in stateset:
            for r, t in out[q]:
                step[r] = step[r] | closure[t] if r in step else closure[t]
        row = []
        for r in sorted(step):
            c = lanes[r]
            content = queues[c]
            if heads[r] is None:
                if len(content) >= queue_cap:
                    raise UnboundedChannel(
                        f"channel {channels[c]} exceeded queue cap "
                        f"{queue_cap}",
                        graph.word_to(node_id) + (letters[r],))
                content += (r,)
            elif not content or content[0] != heads[r]:
                raise NonFifo(
                    f"receive {letters[r]} does not match the channel head",
                    graph.word_to(node_id) + (letters[r],))
            else:
                content = content[1:]
            succ = (step[r], queues[:c] + (content,) + queues[c + 1:])
            j = index.get(succ)
            if j is None:
                j = index[succ] = len(nodes)
                nodes.append(succ)
                parent[j] = (node_id, r)
                sizes.append(sizes[node_id] + len(content) - len(queues[c]))
                longest[c] = max(longest[c], len(content))
                if len(nodes) > config_cap:
                    raise ConfigCapExceeded(
                        f"exploration exceeded {config_cap} configurations")
            row.append((r, j))
        moves.append(row)
    graph.bound = max(sizes)
    return graph


def check_fer(graph: ConfigGraph) -> tuple[bool, Optional[Word]]:
    """Feasible eventual reception on the configuration graph.

    From every node with pending messages, each channel's backlog must be
    fully consumable along some continuation that still extends to a
    maximal run.  Returns a witness word reaching the stuck send if not.
    """
    nodes = range(len(graph.nodes))
    lane = {ch: c for c, ch in enumerate(graph.channels)}
    label = [lane[ev.channel] if ev.kind == RECV else None
             for ev in graph.letters]
    edges = [[(label[r], j) for r, j in row] for row in graph.moves]
    finals = [i for i, (states, _) in enumerate(graph.nodes)
              if not graph.finals.isdisjoint(states)]
    pending = ((i, c, len(content))
               for i, (_, queues) in enumerate(graph.nodes) if any(queues)
               for c, content in enumerate(queues) if content)
    stuck = fer_violation(pending, edges.__getitem__, nodes, finals)
    if stuck is not None:
        return False, graph.word_to(stuck)
    return True, None


def _immediate_configs(form: Compiled) -> int:
    """The configurations `build_config_graph` makes of an immediate
    form, or 0 for any other.  Immediate: each kept row moves on distinct
    ranks; a send's target, a middle state, is not initial or final and
    moves only on the send's receive (so, the form being dense, on no
    epsilon); only sends enter a middle state, and only middle states
    receive."""
    moves, receive = form.moves, form.receive
    sends = [ev.kind == SEND for ev in form.letters]
    middles = {d for q in form.keep for r, d in moves[q] if sends[r]}
    if form.initial in middles or not middles.isdisjoint(form.finals):
        return 0
    configs = {form.initial}
    for q in form.keep:
        row, eps = moves[q], form.eps[q]
        if eps and eps[0] in middles \
                or len(row) > 1 and len({r for r, _ in row}) < len(row):
            return 0
        for r, d in row:
            if not sends[r]:
                if q not in middles:
                    return 0
                configs.add(d)
            elif len(moves[d]) != 1 or moves[d][0][0] != receive[r] \
                    or moves[d][0][1] in middles:
                return 0
    return len(configs | middles)


def validate(machine: StateMachine | Compiled, *,
             config_cap: int = DEFAULT_CONFIG_CAP) -> Psm:
    """Certify a machine, or its compiled form, as a protocol state
    machine.

    Compiles a machine, checks density syntactically, then reads the
    configuration graph to certify the least buffer bounds and feasible
    eventual reception.  The first violated condition is raised with a
    witness path.

    An immediate form (`_immediate_configs`) is certified without the
    walk: each word reaches one state's epsilon closure with at most the
    message just sent queued, so the walk would make one node per kept
    state that is initial or a move target, raise nothing, measure bound
    1 on each channel sent on, and end each FER search after one receive
    in a kept state, which can reach a maximal run.
    """
    form = machine if isinstance(machine, Compiled) else Compiled(machine)
    if not form.dense:
        raise NotDense("a state with an epsilon transition has other exits")
    if form.eps_cycle:
        raise NotDense("machine contains a cycle of epsilon transitions")
    configs = _immediate_configs(form)
    # the walk checks the cap as it adds a node: never on a graph of one
    if configs > max(config_cap, 1):
        raise ConfigCapExceeded(
            f"exploration exceeded {config_cap} configurations")
    if configs:
        channels = sorted({ev.channel for ev in form.letters
                           if ev.kind == SEND})
        return Psm(form, min(len(channels), 1), dict.fromkeys(channels, 1))
    graph = build_config_graph(form, config_cap=config_cap)
    ok, witness = check_fer(graph)
    if not ok:
        raise FerViolation("a pending send can never be received", witness)
    return Psm(form, graph.bound, {ch: n for ch, n in zip(
        graph.channels, graph.longest) if n})


# -- choice classification -----------------------------------------------

DIRECTED = "directed"
SENDER_DRIVEN = "sender-driven"
MIXED = "mixed"
NON_DETERMINISTIC = "non-deterministic"


def choice_report(form: Compiled) -> tuple[bool, str, Optional[str]]:
    """How a compiled machine, trimmed, branches: whether it is
    sink-final, its choice class, and the first state in name order
    that branches on a receive or on two senders (None if none does).

    The classes run directed < sender-driven < mixed < non-deterministic.
    Sender-driven means the machine is deterministic and every branching
    state offers only sends by a single participant; directed
    additionally has no receive move and fixes the receiver at each
    branching state; mixed requires determinism only.  The branching
    state is read on nondeterministic machines too: it is the structural
    half of tameness, and projection rejects duplicated actions later
    with a semantic witness instead.
    """
    letters, moves, eps, finals = (form.letters, form.moves, form.eps,
                                   form.finals)
    sink_final = all((q in finals) != bool(moves[q] or eps[q])
                     for q in form.keep)
    # The letters are those of the kept moves, so a receive anywhere
    # rules directed choice out.
    receives = [ev.kind == RECV for ev in letters]
    # In a dense form a state with an epsilon move has no other exit.
    deterministic = form.dense or max(map(len, eps), default=0) < 2
    directed, branching = not any(receives), None
    # States are numbered in name order, and a pair's middle state,
    # numbered after the named ones, has one exit.
    for q, row in enumerate(moves):
        if len(row) < 2:
            continue
        events = [letters[r] for r, _ in row]
        if len({r for r, _ in row}) < len(row):
            deterministic = False
        if any(receives[r] for r, _ in row) \
                or len({ev.sender for ev in events}) != 1:
            directed = False
            if branching is None:
                branching = form.names[q]
        elif len({ev.receiver for ev in events}) != 1:
            directed = False
    choice = (NON_DETERMINISTIC if not deterministic else DIRECTED if directed
              else SENDER_DRIVEN if branching is None else MIXED)
    return sink_final, choice, branching


# -- channel-bound inference ----------------------------------------------


def detected_channels(form: Compiled) -> frozenset[Channel]:
    """Channels where some send of the compiled machine, trimmed, is not
    immediately followed by its unique matching receive: the only exit
    of the state it leads to."""
    letters, moves, receive = form.letters, form.moves, form.receive
    return frozenset(letters[r].channel for row in moves for r, d in row
                     if letters[r].kind == SEND and (form.eps[d] or [
                         rank for rank, _ in moves[d]] != [receive[r]]))


def _simple_cycles(machine: StateMachine):
    """Yield simple cycles as lists of (src, event, dst) transitions.

    Each cycle comes once, from its smallest state, and the walk from a
    root stays inside the root's strongly connected component, where all
    of its cycles lie.
    """
    component = {q: i for i, comp in enumerate(
        strongly_connected_components(machine.states, machine.out))
        for q in comp}
    for root in sorted(machine.states):
        path: list = []
        on_path = {root}
        stack = [(root, iter(machine.out(root)))]
        while stack:
            q, edges = stack[-1]
            for ev, dst in edges:
                if dst == root:
                    yield path + [(q, ev, dst)]
                elif (dst > root and dst not in on_path
                      and component[dst] == component[root]):
                    on_path.add(dst)
                    path.append((q, ev, dst))
                    stack.append((dst, iter(machine.out(dst))))
                    break
            else:
                stack.pop()
                if path:
                    on_path.discard(path.pop()[2])


def _has_return_chain(events: list[Event], start: str, goal: str) -> bool:
    """A chain of completed message hops from `start` back to `goal`.

    Looks for a subsequence snd(c0,c1,m1) rcv(c0,c1,m1) ... snd(ck,goal,mk)
    rcv(ck,goal,mk) with c0 = start.
    """
    n = len(events)

    def hops(node):
        """The (position after the receive, new holder) of each hop the
        holder can start at or after `pos`."""
        pos, holder = node
        for i in range(pos, n):
            ev = events[i]
            if ev.kind != SEND or ev.sender != holder:
                continue
            for j in range(i + 1, n):
                ev2 = events[j]
                if (ev2.kind == RECV and ev2.channel == ev.channel
                        and ev2.message() == ev.message()):
                    yield j + 1, ev.receiver
                    break

    return any(pos and holder == goal
               for pos, holder in walk(((0, start),), hops))


def infer_channel_bounds(psm: Psm) -> dict:
    """Infer per-channel buffer bounds in three phases.

    Detect channels needing a bound; reject loops that send on a detected
    channel without a completed message chain from the receiver back to
    the sender; then bound each detected channel by its maximum backlog
    over the configuration graph that `validate` explored.  Validation
    leaves every loop with no net effect on any channel, so this is the
    maximum over loop-free paths from the initial state.  The loops are
    listed on the string machine only when the compiled form has one.
    """
    form = psm.compiled
    detected = detected_channels(form)
    if not detected:
        return {}

    cycles = list(_simple_cycles(psm.machine)) if nodes_on_cycles(
        form.keep, lambda q: form.moves[q] + [(None, d) for d in form.eps[q]]
    ) else []
    for p, q in sorted(detected):
        for cycle in cycles:
            events = [ev for _, ev, _ in cycle if ev is not None]
            if not any(ev.kind == SEND and ev.channel == (p, q) for ev in events):
                continue
            rotations = [events[i:] + events[:i] for i in range(len(events))]
            if not any(_has_return_chain(rot, q, p) for rot in rotations):
                witness = tuple(events)
                raise UnboundedLoop(
                    f"loop sends on channel {(p, q)} with no message chain "
                    f"from {q} back to {p}", witness)

    return {ch: psm.bound_by_channel.get(ch, 0) for ch in sorted(detected)}


class TameReport(Record):
    __slots__ = ("tame", "sink_final", "choice", "bounds")
    def __init__(self, tame: bool, sink_final: bool, choice: str, bounds):
        self.tame, self.sink_final = tame, sink_final
        self.choice = choice  # the `choice_report` class
        self.bounds = bounds  # None when no bounds can be inferred


def is_tame(psm: Psm) -> TameReport:
    """Sender-driven, sink-final, and respecting inferable channel bounds."""
    sink_final, choice, _ = choice_report(psm.compiled)
    try:
        bounds = infer_channel_bounds(psm)
    except UnboundedLoop:
        bounds = None
    tame = (sink_final and choice in (SENDER_DRIVEN, DIRECTED)
            and bounds is not None)
    return TameReport(tame, sink_final, choice, bounds)
