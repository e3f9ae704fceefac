"""Seeded input families for the `scaling` and `concurrent` workloads.

The generators write plain JSON and global-type text and never import
amp, so every expected answer below follows from the construction and
not from the program under test.  A seed only renames labels; the shape
of each instance, and so its expected answers and its cost, depends on
the size arguments alone.
"""

from __future__ import annotations

import json
import random

LABEL_STEMS = ("ack", "bid", "cut", "del", "end", "fix", "get", "hop",
               "inc", "jot", "key", "log", "map", "nap", "opt", "put")


def labels(rng: random.Random, count: int) -> list[str]:
    """`count` distinct labels; the seed picks the stems."""
    return [f"{rng.choice(LABEL_STEMS)}{i}" for i in range(count)]


def _event(kind: str, sender: str, receiver: str, label: str) -> dict:
    return {"kind": kind, "sender": sender, "receiver": receiver,
            "label": label, "payload": None}


def _machine(states, initial: str, finals, transitions) -> dict:
    return {
        "states": sorted(states),
        "initial": initial,
        "finals": sorted(finals),
        "transitions": [{"from": src, "event": ev, "to": dst}
                        for src, ev, dst in transitions],
    }


def dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- linear protocols: chain(n), n-message global types, pairs(n, m) ------

def chain_messages(n: int, rng: random.Random) -> list[tuple[str, str, str]]:
    """n exchanges rotating p->q, q->r, r->p: each message is sent by the
    previous receiver, so at most one message is ever in flight.  Each
    channel repeats one label, so every participant's projection is a
    long run of the same few letters."""
    ring = ("p", "q", "r")
    stems = rng.sample(LABEL_STEMS, 3)
    return [(ring[i % 3], ring[(i + 1) % 3], stems[i % 3]) for i in range(n)]


def global_text(messages) -> str:
    """The global type `s->r:l . ... . 0`, spelt as amp prints it."""
    return " . ".join(f"{s}->{r}:{l}" for s, r, l in messages) + " . 0"


def linear_psm(messages) -> dict:
    """A protocol machine that performs `messages` in order, each send
    immediately followed by its receive."""
    states = [f"s{i}" for i in range(len(messages) + 1)]
    transitions = []
    for i, (s, r, l) in enumerate(messages):
        mid = f"s{i}m"
        states.append(mid)
        transitions.append((f"s{i}", _event("send", s, r, l), mid))
        transitions.append((mid, _event("recv", s, r, l), f"s{i + 1}"))
    return _machine(states, "s0", [f"s{len(messages)}"], transitions)


def linear_word(messages) -> list[str]:
    """The single complete trace of `linear_psm(messages)`."""
    word = []
    for s, r, l in messages:
        word += [f"{s}>{r}!{l}", f"{s}>{r}?{l}"]
    return word


def local_words(messages) -> dict[str, list[str]]:
    """Each participant's part of the linear protocol, as event strings."""
    words: dict[str, list[str]] = {}
    for s, r, l in messages:
        words.setdefault(s, []).append(f"{s}>{r}!{l}")
        words.setdefault(r, []).append(f"{s}>{r}?{l}")
    return words


# -- buffered protocols: diamonds(d), burst(b) ------------------------------

def diamonds(d: int, rng: random.Random) -> dict:
    """d two-way branches in sequence.  In each, p picks one of two labels
    and sends it to q and to r before either receives, so both channels
    p>q and p>r hold one message at most: bounds {p>q: 1, p>r: 1}.  The
    seed picks the labels and which channel goes first; receives follow
    the send order, so no send is immediately followed by its receive."""
    names = labels(rng, 2 * d)
    states = [f"d{i}" for i in range(d + 1)]
    transitions = []
    for i in range(d):
        first, second = rng.choice((("q", "r"), ("r", "q")))
        for branch, label in zip("ab", names[2 * i:2 * i + 2]):
            a, b, c = (f"d{i}{branch}{j}" for j in range(1, 4))
            states += [a, b, c]
            transitions += [
                (f"d{i}", _event("send", "p", first, label), a),
                (a, _event("send", "p", second, label), b),
                (b, _event("recv", "p", first, label), c),
                (c, _event("recv", "p", second, label), f"d{i + 1}"),
            ]
    return _machine(states, "d0", [f"d{d}"], transitions)


def burst(b: int, rng: random.Random) -> dict:
    """p sends b messages to q before q receives any: bound b on p>q for
    b >= 2 (a burst of one is an immediate exchange and needs no bound)."""
    names = labels(rng, b)
    states = [f"w{i}" for i in range(b + 1)] + [f"r{i}" for i in range(1, b + 1)]
    transitions = [(f"w{i}", _event("send", "p", "q", l), f"w{i + 1}")
                   for i, l in enumerate(names)]
    reads = [f"w{b}"] + [f"r{i}" for i in range(1, b + 1)]
    transitions += [(reads[i], _event("recv", "p", "q", l), reads[i + 1])
                    for i, l in enumerate(names)]
    return _machine(states, "w0", [reads[-1]], transitions)


# -- concurrent pairs: pairs(n, m) ------------------------------------------

def pairs_messages(n: int, m: int, rng: random.Random):
    """n disjoint pairs p<i> -> q<i>, each exchanging m messages, one pair
    after another in the global order."""
    return [(f"p{i}", f"q{i}", label)
            for i in range(1, n + 1) for label in labels(rng, m)]


def pairs_csm(messages, wrong: bool = False) -> dict:
    """The per-participant machines of a pairs protocol, written by hand.

    With `wrong`, the first receiver expects its labels in reverse order,
    so it can never take the message at the head of its queue and the
    system deadlocks.  With one message per pair reversal changes
    nothing, so that receiver instead expects a label nobody sends."""
    per_pair: dict[tuple[str, str], list[str]] = {}
    for s, r, l in messages:
        per_pair.setdefault((s, r), []).append(l)
    components = {}
    for index, ((s, r), sent) in enumerate(sorted(per_pair.items())):
        received = list(sent)
        if wrong and index == 0:
            received = received[::-1] if len(sent) > 1 else ["never"]
        components[s] = _line(s, [_event("send", s, r, l) for l in sent])
        components[r] = _line(r, [_event("recv", s, r, l) for l in received])
    return components


def _line(owner: str, events) -> dict:
    states = [f"{owner}_{i}" for i in range(len(events) + 1)]
    return _machine(states, states[0], [states[-1]],
                    [(states[i], ev, states[i + 1])
                     for i, ev in enumerate(events)])


def pairs_configs(n: int, m: int, wrong: bool = False) -> int:
    """Reachable configurations of the pairs CSM under a queue cap >= m.

    One pair's sender has sent s and its receiver taken r messages, with
    0 <= r <= s <= m: (m+1)(m+2)/2 configurations, independent across
    pairs.  A wrong pair's receiver never moves: m+1 configurations."""
    per_pair = (m + 1) * (m + 2) // 2
    if wrong:
        return (m + 1) * per_pair ** (n - 1)
    return per_pair ** n
