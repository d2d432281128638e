"""Line-oriented circuit text format.

Header lines declare the register and the wrapper; body lines are gates,
measurements, classically controlled gates and dispatches::

    qubits q q1 q2
    inputs q
    outputs q2
    init q1=0
    init q2=0
    gate H q2
    gate CX q2 q1
    measure q -> c0
    measure q1 -> c1
    dispatch c0, c1 { 0: skip 1: fix_x 2: fix_z 3: fix_zx }
    subcircuit fix_x {
      gate X q2
    }

Control expressions use bits, ``!``, ``&``, ``|``, ``^`` and parentheses;
``ifc <expr> apply NAME(params) q...`` guards one gate, with an optional
``== 0|1`` comparison.  A ``dispatch`` consumes the immediately preceding
``measure`` lines of the bits it mentions.

The parser turns each control expression straight into a BDD by apply over
its syntax tree (``== 0`` negates), so a control's cost grows with its
BDD, not with the 2^n assignments of its bits.  Each distinct gate token
and control expression is parsed (and lifted to its BDD) once per process;
no error is cached, and every use checks that its bits are measured.  The
printer writes the expression text kept from parsing, or else one product
of literals per path to 1 in the BDD.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import logic
from .circuits import (Branch, CircuitSpec, CondGate, Conventional, Measure,
                       MeasureStep, flatten, gate, seq)
from .logic import BoolFunc
from .tdd import DENSE_CACHE


class ParseError(Exception):
    def __init__(self, msg, line=0, col=0):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line
        self.col = col


# -- control expressions -------------------------------------------------------


_TOKEN = re.compile(r"\s*(=>|[()!&|^]|[A-Za-z_][A-Za-z_0-9]*|[01])")
_BIT = re.compile(r"[A-Za-z_]")


def _tokenize(s: str):
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"bad control expression near {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    """exprs:  or := xor ('|' xor)*;  xor := and ('^' and)*;
    and := atom ('&' atom)*;  atom := '!' atom | '(' or ')' | bit | 0 | 1

    A chain of one operator is one n-ary node ``(op, operand, ...)``, so no
    walk of the tree recurses once per operand."""

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0
        self.bits: list[str] = []

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        node = self.or_()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens in control expression: {self.peek()!r}")
        return node

    def chain(self, op, sym, operand):
        nodes = [operand()]
        while self.peek() == sym:
            self.take()
            nodes.append(operand())
        return nodes[0] if len(nodes) == 1 else (op, *nodes)

    def or_(self):
        return self.chain("or", "|", self.xor_)

    def xor_(self):
        return self.chain("xor", "^", self.and_)

    def and_(self):
        return self.chain("and", "&", self.atom)

    def atom(self):
        t = self.take()
        if t == "!":
            return ("not", self.atom())
        if t == "(":
            node = self.or_()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return node
        if t in ("0", "1"):
            return ("const", int(t))
        if t is None or not _BIT.match(t):
            raise ParseError(f"unexpected token {t!r} in control expression")
        if t not in self.bits:
            self.bits.append(t)
        return ("bit", t)


@lru_cache(maxsize=DENSE_CACHE)
def _parsed_expr(text: str):
    p = _ExprParser(_tokenize(text))
    node = p.parse()
    return tuple(p.bits), node


def _expr_ast(text: str, known_bits=None):
    """(bits in order of appearance, AST) of one control expression."""
    bits, node = _parsed_expr(text)
    if known_bits is not None:
        for b in bits:
            if b not in known_bits:
                raise ParseError(f"control references unmeasured bit {b!r}")
    return bits, node


def _bdd(node, pos: dict):
    """BDD of an AST over the input positions ``pos`` of its bits."""
    op = node[0]
    if op == "bit":
        return logic.var(pos[node[1]])
    if op == "const":
        return logic.TRUE if node[1] else logic.FALSE
    if op == "not":
        return logic.negate(_bdd(node[1], pos))
    # fold pairwise: a left fold re-walks the whole BDD built so far per operand
    acc = [_bdd(operand, pos) for operand in node[1:]]
    while len(acc) > 1:
        acc = [logic.apply(op, acc[k], acc[k + 1]) if k + 1 < len(acc) else acc[k]
               for k in range(0, len(acc), 2)]
    return acc[0]


def _control_func(bits, nodes) -> BoolFunc:
    pos = {b: k for k, b in enumerate(bits)}
    try:
        return BoolFunc(len(bits), tuple(_bdd(node, pos) for node in nodes))
    except RecursionError:    # logic.apply recurses once per BDD level
        raise ParseError(f"control expression over {len(bits)} bits: building "
                         "its BDD exceeds the recursion limit") from None


def parse_expr(text: str, known_bits=None):
    """(bits-in-use, BoolFunc over them, normalized text) for one control
    expression."""
    _expr_ast(text, known_bits)
    return _lifted_expr(text)


@lru_cache(maxsize=DENSE_CACHE)
def _lifted_expr(text: str):
    bits, node = _parsed_expr(text)
    return bits, _control_func(bits, (node,)), _fmt_node(node)


def _fmt_node(node, prec=0):
    op = node[0]
    if op == "bit":
        return node[1]
    if op == "const":
        return str(node[1])
    if op == "not":
        return "!" + _fmt_node(node[1], 3)
    sym, mine = {"and": ("&", 3), "xor": ("^", 2), "or": ("|", 1)}[op]
    s = sym.join(_fmt_node(operand, mine) for operand in node[1:])
    return f"({s})" if mine < prec else s


def expr_from_func(bits, func: BoolFunc) -> str:
    """Sum-of-products text of a single-output control function: one
    product of literals per path to 1 in its BDD, low branches first."""
    terms = []
    stack = [(func.roots[0], ())]
    while stack:
        node, lits = stack.pop()
        if node is logic.TRUE:
            terms.append("&".join(lits) or "1")
        elif node is not logic.FALSE:
            b = bits[node.var]
            stack.append((node.hi, lits + (b,)))
            stack.append((node.lo, lits + (f"!{b}",)))
    if not terms:
        return "0"
    return "|".join(f"({t})" if len(terms) > 1 and "&" in t else t for t in terms)


# -- gate line helpers ------------------------------------------------------------


_GATE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\(([^)]*)\))?$")


def _parse_gate_token(tok: str, qubits, line):
    try:
        return _token_gate(tok, tuple(qubits))
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


@lru_cache(maxsize=DENSE_CACHE)
def _token_gate(tok: str, qubits: tuple[str, ...]):
    m = _GATE_RE.match(tok)
    if not m:
        raise ValueError(f"bad gate token {tok!r}")
    params = []
    if m.group(2):
        try:    # float("") raises, so an empty slot, as in P(1,), is refused
            params = [float(p) for p in m.group(2).split(",")]
        except ValueError:
            raise ValueError(f"bad gate parameters in {tok!r}") from None
    return gate(m.group(1), qubits, params)


def _at(line: int, fn, *args):
    """``fn(*args)``, a ParseError it raises placed at ``line``."""
    try:
        return fn(*args)
    except ParseError as exc:
        raise ParseError(str(exc), line) from None


def _fmt_gate(g) -> str:
    return f"{g.label()} {' '.join(g.qubits)}"


# -- parser ----------------------------------------------------------------------


_SUBCIRCUIT = re.compile(r"subcircuit\s+([A-Za-z_][\w]*)\s*\{\s*$")
_INIT = re.compile(r"init\s+([\w]+)\s*=\s*([01+])\s*$")
_MEASURE = re.compile(r"measure\s+([\w]+)\s*->\s*([\w]+)\s*$")
_IFC = re.compile(r"ifc\s+(.+?)(?:\s*==\s*([01]))?\s+apply\s+(\S+)\s+(.+)$")
_DISPATCH = re.compile(r"dispatch\s+(.+?)\s*\{(.*)\}\s*$")
_TABLE_ITEM = re.compile(r"(\d+)\s*:\s*([A-Za-z_][\w]*)")


def parse(text: str) -> CircuitSpec:
    """Parse circuit text; raises ParseError with the offending line number."""
    if not isinstance(text, str):
        try:
            text = bytes(text).decode("utf-8")
        except Exception as exc:
            raise ParseError(f"undecodable input: {exc}")
    lines = text.splitlines()
    subs: dict[str, list[tuple[int, str]]] = {}
    main: list[tuple[int, str]] = []
    current = None
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("subcircuit"):
            m = _SUBCIRCUIT.match(line)
            if not m:
                raise ParseError("bad subcircuit header", no)
            if current is not None:
                raise ParseError("nested subcircuit", no)
            current = m.group(1)
            if current in subs:
                raise ParseError(f"duplicate subcircuit {current!r}", no)
            subs[current] = []
            continue
        if line == "}":
            if current is None:
                raise ParseError("unmatched closing brace", no)
            current = None
            continue
        (subs[current] if current is not None else main).append((no, line))
    if current is not None:
        raise ParseError(f"unclosed subcircuit {current!r}")

    header = {"qubits": [], "inputs": [], "outputs": [], "outbits": []}
    init: dict[str, str] = {}
    body: list[tuple[int, str]] = []
    for no, line in main:
        head = line.split(None, 1)[0]
        if head in header:
            header[head] = line.split()[1:]
        elif head == "init":
            m = _INIT.match(line)
            if not m:
                raise ParseError("bad init line (want `init q=0|1|+`)", no)
            if m.group(1) in init:
                raise ParseError(f"qubit {m.group(1)!r} initialised twice", no)
            init[m.group(1)] = m.group(2)
        else:
            body.append((no, line))
    qubits = tuple(header["qubits"])
    if not qubits:
        raise ParseError("missing `qubits` declaration")
    if len(set(qubits)) != len(qubits):
        raise ParseError("duplicate qubit in declaration")

    try:
        steps, measured = _parse_body(body, qubits, subs, set())
    except RecursionError:
        # chains are flat and _control_func reports a deep BDD: only nesting
        raise ParseError("control expression nested too deeply") from None
    return CircuitSpec(qubits=qubits, circuit=seq(*steps), fixed_init=init,
                       inputs=tuple(header["inputs"]),
                       outputs=tuple(header["outputs"]),
                       output_bits=tuple(header["outbits"]))


def _parse_body(body, qubits, subs, measured):
    steps = []
    pending_meas: list[tuple[str, str]] = []   # consecutive measure lines

    def flush_meas():
        for q, b in pending_meas:
            steps.append(Measure(MeasureStep((q,), (b,))))
        pending_meas.clear()

    for no, line in body:
        head = line.split(None, 1)[0]
        if head == "gate":
            flush_meas()
            toks = line.split()
            if len(toks) < 3:
                raise ParseError("gate line needs a gate and qubits", no)
            for q in toks[2:]:
                if q not in qubits:
                    raise ParseError(f"undeclared qubit {q!r}", no)
            steps.append(Conventional((_parse_gate_token(toks[1], toks[2:], no),)))
        elif head == "measure":
            m = _MEASURE.match(line)
            if not m:
                raise ParseError("bad measure line (want `measure q -> c`)", no)
            q, b = m.group(1), m.group(2)
            if q not in qubits:
                raise ParseError(f"undeclared qubit {q!r}", no)
            if b in measured:
                raise ParseError(f"bit {b!r} measured twice", no)
            measured.add(b)
            pending_meas.append((q, b))
        elif head == "ifc":
            m = _IFC.match(line)
            if not m:
                raise ParseError("bad ifc line (want `ifc expr [== k] apply G q...`)", no)
            flush_meas()
            expr_text, cmp_val, gtok, qlist = m.groups()
            bits, func, norm = _at(no, parse_expr, expr_text, measured)
            if not bits:
                raise ParseError("control expression uses no bits", no)
            if cmp_val == "0":
                func = ~func
                norm = f"!({norm})"
            qs = qlist.split()
            for q in qs:
                if q not in qubits:
                    raise ParseError(f"undeclared qubit {q!r}", no)
            steps.append(CondGate(_parse_gate_token(gtok, qs, no), bits, func,
                                  expr=norm))
        elif head == "dispatch":
            m = _DISPATCH.match(line)
            if not m:
                raise ParseError("bad dispatch line", no)
            exprs_text, table_text = m.groups()
            exprs = [e.strip() for e in exprs_text.split(",") if e.strip()]
            if not exprs:
                raise ParseError("dispatch needs at least one expression", no)
            parsed = [_at(no, _expr_ast, e, measured) for e in exprs]
            used_bits = {b for bits, _ in parsed for b in bits}
            pend_bits = [b for _, b in pending_meas]
            if used_bits - set(pend_bits):
                raise ParseError("dispatch references bits without directly "
                                 "preceding measure lines", no)
            r_qubits = tuple(q for q, _ in pending_meas)
            r_bits = tuple(pend_bits)
            pending_meas.clear()
            t = len(parsed)
            branch_names = {}
            for item in _TABLE_ITEM.findall(table_text):
                branch_names[int(item[0])] = item[1]
            if sorted(branch_names) != list(range(1 << t)):
                raise ParseError(f"dispatch table must name branches 0..{(1 << t) - 1}", no)
            func = _at(no, _control_func, r_bits, [node for _, node in parsed])
            branches = []
            for i in range(1 << t):
                name = branch_names[i]
                if name not in subs:
                    raise ParseError(f"unknown subcircuit {name!r}", no)
                sub_steps, _ = _parse_body(subs[name], qubits, {}, set(measured))
                branches.append(seq(*sub_steps))
            steps.append(Branch(MeasureStep(r_qubits, r_bits), func,
                                tuple(branches),
                                exprs=tuple(_fmt_node(node) for _, node in parsed)))
        else:
            raise ParseError(f"unknown directive {head!r}", no)
    flush_meas()
    return steps, measured


# -- printer -----------------------------------------------------------------------


def print_spec(spec: CircuitSpec) -> str:
    """Canonical text of a spec; parse(print_spec(s)) reproduces s."""
    out = ["qubits " + " ".join(spec.qubits)]
    if spec.inputs:
        out.append("inputs " + " ".join(spec.inputs))
    if spec.outputs:
        out.append("outputs " + " ".join(spec.outputs))
    if spec.output_bits:
        out.append("outbits " + " ".join(spec.output_bits))
    for q in spec.qubits:
        if q in spec.fixed_init:
            out.append(f"init {q}={spec.fixed_init[q]}")
    subs: list[str] = []
    counter = [0]
    for st in flatten(spec.circuit):
        out.extend(_print_step(st, subs, counter))
    out.extend(subs)
    return "\n".join(out) + "\n"


def _print_step(st, subs, counter) -> list[str]:
    if isinstance(st, Conventional):
        return [f"gate {_fmt_gate(g)}" for g in st.gates]
    if isinstance(st, Measure):
        return [f"measure {q} -> {b}"
                for q, b in zip(st.step.qubits, st.step.bits)]
    if isinstance(st, CondGate):
        expr = st.expr or expr_from_func(st.bits, st.func)
        return [f"ifc {expr} apply {_fmt_gate(st.gate)}"]
    if isinstance(st, Branch):
        lines = [f"measure {q} -> {b}"
                 for q, b in zip(st.measure.qubits, st.measure.bits)]
        if st.exprs:
            exprs = list(st.exprs)
        else:
            exprs = [expr_from_func(st.measure.bits, st.func.output_bit(b))
                     for b in range(st.func.outputs)]
        names = []
        for i, body in enumerate(st.branches):
            name = f"sub{counter[0]}"
            counter[0] += 1
            names.append(name)
            block = [f"subcircuit {name} {{"]
            nested: list[str] = []
            for sub_st in flatten(body):
                for ln in _print_step(sub_st, nested, counter):
                    block.append("  " + ln)
            if nested:
                raise ValueError("nested dispatch inside a branch body is not printable")
            block.append("}")
            subs.extend(block)
        table = " ".join(f"{i}: {names[i]}" for i in range(len(names)))
        lines.append(f"dispatch {', '.join(exprs)} {{ {table} }}")
        return lines
    raise TypeError(f"not a printable step: {st!r}")
