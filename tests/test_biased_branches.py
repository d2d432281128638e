"""q-mode verdicts on circuits whose measurement outcomes are not equally likely.

``random_dqc`` draws Clifford+T circuits on basis inputs, so its outcomes
are uniform or certain.  Here each ancilla is rotated by ``H; P(theta); H``,
which gives outcomes of probability cos^2(theta/2) and sin^2(theta/2).  The
branch maps of such a circuit differ in weight; q-equivalence asks only
that they be proportional to one common map, as ``oracle_q_eq`` does.
"""

import math
import random

from tddeq.equivalence import check
from tddeq.oracle import oracle_q_eq
from tddeq.textfmt import parse

PAIRS = 200

# a round's entangling gate and the correction on q its outcome steers; the
# first, third and sixth leave the branch maps proportional, the others not
ROUNDS = [(None, None), (None, "S"), ("CZ q {a}", "Z"), ("CZ q {a}", None),
          ("CZ q {a}", "S"), ("CX {a} q", "X"), ("CX {a} q", "Z"), ("CX q {a}", None)]
WEIGHTS = [6, 1, 5, 1, 1, 4, 1, 1]


def _theta(rng):
    """A rotation that keeps both outcomes of probability at least 0.02."""
    return rng.choice((1, -1)) * rng.uniform(0.3, math.pi - 0.3)


def _biased_lines(rng):
    """Body lines of one circuit on principal qubit q and 1-3 ancillas."""
    ancillas = [f"a{k}" for k in range(rng.randint(1, 3))]
    head = ["qubits q " + " ".join(ancillas), "inputs q", "outputs q"]
    head += [f"init {a}=0" for a in ancillas]
    body = []
    for r in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            body.append(f"gate {rng.choice(['H', 'S', 'T', 'X'])} q")
        a = rng.choice(ancillas)
        entangle, fix = rng.choices(ROUNDS, WEIGHTS)[0]
        body += [f"gate H {a}", f"gate P({_theta(rng)!r}) {a}", f"gate H {a}"]
        if entangle:
            body.append("gate " + entangle.format(a=a))
        body.append(f"measure {a} -> c{r}")
        if fix:
            body.append(f"ifc c{r} apply {fix} q")
        body.append(f"ifc c{r} apply X {a}")     # reset the ancilla to 0
    return head, body


def _biased_pair(rng):
    """A circuit and a copy that carries one extra Z, S or T on q, or none."""
    head, body = _biased_lines(rng)
    other = list(body)
    if rng.random() < 0.4:
        other.insert(rng.randint(0, len(other)), f"gate {rng.choice('ZST')} q")
    return ("\n".join(head + body) + "\n", "\n".join(head + other) + "\n")


def test_biased_pairs_are_decided_as_the_oracle_decides():
    rng = random.Random(2106)
    verdicts = {True: 0, False: 0}
    disagreements = []
    for k in range(PAIRS):
        ta, tb = _biased_pair(rng)
        a, b = parse(ta), parse(tb)
        want = oracle_q_eq(a, b)
        verdicts[want] += 1
        v, _ = check(a, b, "q")
        if v.status != ("equivalent" if want else "not-equivalent"):
            disagreements.append((k, v.status, ta, tb))
    assert not disagreements, disagreements[:3]
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts

