"""Litmus-test DSL: parser, address binding, and final-state conditions.

A litmus file is line oriented and starts with the format header::

    i2e-litmus v1
    name: dekker
    init:
      a = 0
      b = 0
    thread P1:
      St a 1
      Commit
      Reconcile
      r1 = Ld b
    thread P2:
      St b 1
      Commit
      Reconcile
      r2 = Ld a
    check forbidden: r1 = 0 & r2 = 0

Instruction forms::

    rN = <expr>          arithmetic over registers, literals, address names
    rN = Ld <expr>       load from a computed address
    St <expr> <expr>     store a value to a computed address
    Commit               fence: blocks until the store buffer drains
    Reconcile            fence: drops stale values the thread could still read
    beqz rN <label>      branch if register is zero
    bnez rN <label>      branch if register is non-zero
    exit                 finish the thread early
    <label>:             branch target

Names of the form ``r<digits>`` are registers and are local to their
thread; every other name appearing in an expression is a symbolic
address.  ``#`` starts a comment.

Final-state conditions combine atoms with ``&``, ``|``, ``!`` and
parentheses.  Atoms are ``r1 = 0`` (optionally thread-qualified as
``P1:r1 = 0``) and ``m[a] = 2``.  The right-hand side of an atom may
also be an address name; `bind` resolves it to the bound location.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Union

FORMAT_HEADER = "i2e-litmus v1"

# Distinct symbolic names bind to bases this far apart, so small offset
# arithmetic (|offset| < stride) can never alias another named location.
ADDRESS_STRIDE = 1024

_SIGN_BIT = 1 << 63
_WORD = 1 << 64


def wrap64(value: int) -> int:
    """Clamp to a 64-bit two's-complement signed integer."""
    value &= _WORD - 1
    return value - _WORD if value & _SIGN_BIT else value


class LitmusError(Exception):
    """Base class for everything this module raises."""


class LitmusParseError(LitmusError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(where + message)
        self.line = line
        self.col = col


class LitmusBindError(LitmusError):
    """A parsed test cannot be bound to concrete locations/threads."""


class ConditionEvalError(LitmusError):
    """A condition mentions a register or location the outcome lacks."""


_REGISTER_RE = re.compile(r"r\d+\Z")


def is_register(name: str) -> bool:
    return bool(_REGISTER_RE.match(name))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _same_record(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def record(cls):
    """Give a NamedTuple class value equality within the class only: a
    record never equals a plain tuple, nor a record of another class
    whose fields are equal (a `Load` is no `Assign`).  `object.__ne__`
    negates `__eq__`; tuple's own would compare the bare fields."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _same_record, object.__ne__, tuple.__hash__
    return cls


class Unit:
    """Base of the records with no fields: all instances of one class are
    equal and truthy, and equal nothing else."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@record
class Expr(NamedTuple):
    """A sum of signed terms; each term is a literal, register, or address name."""

    terms: tuple[tuple[int, str, object], ...]  # (sign, kind, payload); kind in const/reg/sym

    def registers(self) -> tuple[str, ...]:
        return tuple(p for _, kind, p in self.terms if kind == "reg")

    def symbols(self) -> tuple[str, ...]:
        return tuple(p for _, kind, p in self.terms if kind == "sym")

    def evaluate(self, getreg: Callable[[str], int], addr_map: Mapping[str, int]) -> int:
        total = 0
        for sign, kind, payload in self.terms:
            if kind == "const":
                total += sign * payload
            elif kind == "reg":
                total += sign * getreg(payload)
            else:
                total += sign * addr_map[payload]
        return wrap64(total)

    def render(self) -> str:
        parts = []
        for n, (sign, kind, payload) in enumerate(self.terms):
            text = str(payload)
            if n == 0:
                parts.append(("-" if sign < 0 else "") + text)
            else:
                parts.append(("- " if sign < 0 else "+ ") + text)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Surface instructions
# ---------------------------------------------------------------------------

@record
class Assign(NamedTuple):
    dst: str
    expr: Expr


@record
class Load(NamedTuple):
    dst: str
    addr: Expr


@record
class Store(NamedTuple):
    addr: Expr
    value: Expr


@record
class Fence(NamedTuple):
    kind: str  # "Commit" or "Reconcile"


@record
class Branch(NamedTuple):
    cond: str  # "eqz" or "nez"
    reg: str
    target: str
    target_index: int = -1  # resolved when the thread is finalized


class Exit(Unit):
    __slots__ = ()


SurfaceInstr = Union[Assign, Load, Store, Fence, Branch, Exit]


@record
class Thread(NamedTuple):
    name: str
    instrs: tuple[SurfaceInstr, ...]
    labels: tuple[tuple[str, int], ...] = ()

    def registers(self) -> frozenset[str]:
        regs: set[str] = set()
        for ins in self.instrs:
            if isinstance(ins, Assign):
                regs.add(ins.dst)
                regs.update(ins.expr.registers())
            elif isinstance(ins, Load):
                regs.add(ins.dst)
                regs.update(ins.addr.registers())
            elif isinstance(ins, Store):
                regs.update(ins.addr.registers())
                regs.update(ins.value.registers())
            elif isinstance(ins, Branch):
                regs.add(ins.reg)
        return frozenset(regs)


# ---------------------------------------------------------------------------
# Final-state conditions
# ---------------------------------------------------------------------------

@record
class RegEquals(NamedTuple):
    reg: str
    value: object  # int, or a symbolic address name until bound
    thread: Optional[str] = None


@record
class MemEquals(NamedTuple):
    loc: str
    value: object


@record
class Not(NamedTuple):
    item: "Condition"


@record
class And(NamedTuple):
    items: tuple["Condition", ...]


@record
class Or(NamedTuple):
    items: tuple["Condition", ...]


Condition = Union[RegEquals, MemEquals, Not, And, Or]


@record
class Check(NamedTuple):
    polarity: str  # "allowed" or "forbidden"
    cond: Condition


def condition_atoms(cond: Condition) -> Iterator[Union[RegEquals, MemEquals]]:
    if isinstance(cond, (RegEquals, MemEquals)):
        yield cond
    elif isinstance(cond, Not):
        yield from condition_atoms(cond.item)
    else:
        for item in cond.items:
            yield from condition_atoms(item)


def render_condition(cond: Condition) -> str:
    def go(c: Condition, prec: int) -> str:
        if isinstance(c, RegEquals):
            lhs = c.reg if c.thread is None else f"{c.thread}:{c.reg}"
            return f"{lhs} = {c.value}"
        if isinstance(c, MemEquals):
            return f"m[{c.loc}] = {c.value}"
        if isinstance(c, Not):
            inner = go(c.item, 3)
            if isinstance(c.item, (And, Or)):
                inner = f"({inner})"
            return f"!{inner}"
        if isinstance(c, And):
            parts = [f"({go(i, 2)})" if isinstance(i, Or) else go(i, 2) for i in c.items]
            text = " & ".join(parts)
            return text
        parts = [go(i, 1) for i in c.items]
        text = " | ".join(parts)
        return f"({text})" if prec > 1 else text

    return go(cond, 0)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@record
class Outcome(NamedTuple):
    """A terminal snapshot: observed registers plus named memory locations."""

    regs: tuple[tuple[tuple[str, str], int], ...]  # ((thread, reg), value), sorted
    mem: tuple[tuple[str, int], ...]               # (location, value), sorted

    def reg(self, thread: str, name: str) -> int:
        for key, value in self.regs:
            if key == (thread, name):
                return value
        raise ConditionEvalError(f"outcome has no register {thread}:{name}")

    def loc(self, name: str) -> int:
        for key, value in self.mem:
            if key == name:
                return value
        raise ConditionEvalError(f"outcome has no location {name}")

    def as_dict(self) -> dict:
        return {
            "regs": {f"{t}:{r}": v for (t, r), v in self.regs},
            "mem": {loc: v for loc, v in self.mem},
        }


def eval_condition(cond: Condition, outcome: Outcome) -> bool:
    """Evaluate a bound condition against a terminal outcome."""
    if isinstance(cond, RegEquals):
        if cond.thread is None or not isinstance(cond.value, int):
            raise ConditionEvalError(f"unbound atom: {render_condition(cond)}")
        return outcome.reg(cond.thread, cond.reg) == cond.value
    if isinstance(cond, MemEquals):
        if not isinstance(cond.value, int):
            raise ConditionEvalError(f"unbound atom: {render_condition(cond)}")
        return outcome.loc(cond.loc) == cond.value
    if isinstance(cond, Not):
        return not eval_condition(cond.item, outcome)
    if isinstance(cond, And):
        return all(eval_condition(i, outcome) for i in cond.items)
    if isinstance(cond, Or):
        return any(eval_condition(i, outcome) for i in cond.items)
    raise ConditionEvalError(f"not a condition: {cond!r}")


# ---------------------------------------------------------------------------
# The test itself
# ---------------------------------------------------------------------------

@record
class LitmusTest(NamedTuple):
    name: str
    model_hint: Optional[str]
    init: tuple[tuple[str, int], ...]
    threads: tuple[Thread, ...]
    checks: tuple[Check, ...]

    def instruction_count(self) -> int:
        return sum(len(th.instrs) for th in self.threads)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<punct>[()\[\]:=&|!+\-])"
)


def _tokenize(text: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LitmusParseError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos + 1))
        pos = match.end()
    return tokens


_MAX_NESTING = 100  # parentheses and unary operators, so that no recursion runs out


class _Tokens:
    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0
        self.depth = 0  # parentheses and unary operators open around pos

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise LitmusParseError("unexpected end of line", self.lineno)
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[1] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        tok = self.peek()
        if tok is None or tok[1] != value:
            got = "end of line" if tok is None else repr(tok[1])
            raise LitmusParseError(f"expected {value!r}, got {got}", self.lineno,
                                   tok[2] if tok else None)
        self.pos += 1

    def expect_kind(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            got = "end of line" if tok is None else repr(tok[1])
            raise LitmusParseError(f"expected {what}, got {got}", self.lineno,
                                   tok[2] if tok else None)
        self.pos += 1
        return tok

    def expect_done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise LitmusParseError(f"trailing input {tok[1]!r}", self.lineno, tok[2])

    def nest(self) -> None:
        """Take an opening parenthesis or a unary operator, one level deeper;
        the caller decrements `depth` once the nested part is parsed."""
        tok = self.take()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise LitmusParseError(f"nested more than {_MAX_NESTING} deep", self.lineno, tok[2])

    def integer(self, tok: tuple[str, str, int]) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise LitmusParseError(f"integer of {len(tok[1])} digits is too long",
                                   self.lineno, tok[2]) from None


# ---------------------------------------------------------------------------
# Expression / condition parsing
# ---------------------------------------------------------------------------

def _parse_primary(toks: _Tokens, sign: int) -> list[tuple[int, str, object]]:
    tok = toks.peek()
    if tok is None:
        raise LitmusParseError("expected expression", toks.lineno)
    if tok[1] == "-" or tok[1] == "(":
        toks.nest()
        if tok[1] == "-":
            terms = _parse_primary(toks, -sign)
        else:
            terms = [(sign * s, k, p) for s, k, p in _parse_expr_terms(toks)]
            toks.expect(")")
        toks.depth -= 1
        return terms
    if tok[0] == "int":
        toks.take()
        return [(sign, "const", toks.integer(tok))]
    if tok[0] == "name":
        toks.take()
        kind = "reg" if is_register(tok[1]) else "sym"
        return [(sign, kind, tok[1])]
    raise LitmusParseError(f"expected expression, got {tok[1]!r}", toks.lineno, tok[2])


def _parse_expr_terms(toks: _Tokens) -> list[tuple[int, str, object]]:
    terms = _parse_primary(toks, 1)
    while True:
        tok = toks.peek()
        if tok is None or tok[1] not in "+-":
            return terms
        toks.take()
        terms.extend(_parse_primary(toks, 1 if tok[1] == "+" else -1))


def _parse_expr(toks: _Tokens) -> Expr:
    return Expr(tuple(_parse_expr_terms(toks)))


def _parse_atom_value(toks: _Tokens) -> object:
    tok = toks.take()
    if tok[1] == "-":
        return -toks.integer(toks.expect_kind("int", "an integer"))
    if tok[0] == "int":
        return toks.integer(tok)
    if tok[0] == "name" and not is_register(tok[1]):
        return tok[1]  # symbolic address, resolved at bind time
    raise LitmusParseError(f"expected integer or address name, got {tok[1]!r}",
                           toks.lineno, tok[2])


def _parse_condition(toks: _Tokens) -> Condition:
    def parse_or() -> Condition:
        items = [parse_and()]
        while toks.accept("|"):
            items.append(parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and() -> Condition:
        items = [parse_not()]
        while toks.accept("&"):
            items.append(parse_not())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_not() -> Condition:
        tok = toks.peek()
        if tok is None or (tok[1] != "!" and tok[1] != "("):
            return parse_atom()
        toks.nest()
        if tok[1] == "!":
            cond = Not(parse_not())
        else:
            cond = parse_or()
            toks.expect(")")
        toks.depth -= 1
        return cond

    def parse_atom() -> Condition:
        tok = toks.expect_kind("name", "a register or m[...]")
        if tok[1] == "m" and toks.accept("["):
            loc = toks.expect_kind("name", "a location name")
            if is_register(loc[1]):
                raise LitmusParseError("m[...] takes an address name", toks.lineno, loc[2])
            toks.expect("]")
            toks.expect("=")
            return MemEquals(loc[1], _parse_atom_value(toks))
        thread = None
        reg = tok[1]
        if toks.accept(":"):
            thread = tok[1]
            reg = toks.expect_kind("name", "a register")[1]
        if not is_register(reg):
            raise LitmusParseError(f"{reg!r} is not a register", toks.lineno, tok[2])
        toks.expect("=")
        return RegEquals(reg, _parse_atom_value(toks), thread)

    cond = parse_or()
    toks.expect_done()
    return cond


# ---------------------------------------------------------------------------
# Instruction parsing
# ---------------------------------------------------------------------------

_FENCES = ("Commit", "Reconcile")
_BRANCHES = {"beqz": "eqz", "bnez": "nez"}


def _parse_instr_line(toks: _Tokens) -> Union[SurfaceInstr, str]:
    """Parse one thread-body line: an instruction, or a label's name."""
    tok = toks.take()
    if tok[0] != "name":
        raise LitmusParseError(f"expected an instruction, got {tok[1]!r}", toks.lineno, tok[2])
    word = tok[1]
    if word == "St":
        addr = _parse_expr(toks)
        value = _parse_expr(toks)
        toks.expect_done()
        return Store(addr, value)
    if word in _FENCES:
        toks.expect_done()
        return Fence(word)
    if word in _BRANCHES:
        reg = toks.expect_kind("name", "a register")
        if not is_register(reg[1]):
            raise LitmusParseError(f"{reg[1]!r} is not a register", toks.lineno, reg[2])
        target = toks.expect_kind("name", "a label")
        toks.expect_done()
        return Branch(_BRANCHES[word], reg[1], target[1])
    if word == "exit":
        toks.expect_done()
        return Exit()
    if toks.accept(":"):
        toks.expect_done()
        return word
    if is_register(word):
        toks.expect("=")
        nxt = toks.peek()
        if nxt is not None and nxt[1] == "Ld":
            toks.take()
            addr = _parse_expr(toks)
            toks.expect_done()
            return Load(word, addr)
        expr = _parse_expr(toks)
        toks.expect_done()
        return Assign(word, expr)
    raise LitmusParseError(f"unknown instruction {word!r}", toks.lineno, tok[2])


# ---------------------------------------------------------------------------
# File-level parser
# ---------------------------------------------------------------------------

_THREAD_RE = re.compile(r"thread\s+(\w+)\s*:\s*\Z")
_CHECK_RE = re.compile(r"check\s+(allowed|forbidden)\s*:\s*(.+)\Z")
_NAME_LINE_RE = re.compile(r"name\s*:\s*(\S+)\s*\Z")
_MODEL_LINE_RE = re.compile(r"model\s*:\s*(\S+)\s*\Z")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


class _PendingThread:
    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.instrs: list[SurfaceInstr] = []
        self.instr_lines: list[int] = []
        self.labels: dict[str, int] = {}

    def finish(self) -> Thread:
        resolved = []
        for ins, lineno in zip(self.instrs, self.instr_lines):
            if isinstance(ins, Branch):
                if ins.target not in self.labels:
                    raise LitmusParseError(f"unknown label {ins.target!r}", lineno)
                ins = ins._replace(target_index=self.labels[ins.target])
            resolved.append(ins)
        labels = tuple(sorted(self.labels.items(), key=lambda kv: (kv[1], kv[0])))
        return Thread(self.name, tuple(resolved), labels)


def parse(text: str) -> LitmusTest:
    """Parse litmus source text into a `LitmusTest` (raises `LitmusParseError`)."""
    lines = text.splitlines()
    content = [(n + 1, _strip_comment(raw).strip()) for n, raw in enumerate(lines)]
    content = [(n, line) for n, line in content if line]
    if not content:
        raise LitmusParseError("no threads")

    if content[0][1] != FORMAT_HEADER:
        raise LitmusParseError(f"missing {FORMAT_HEADER!r} header", content[0][0])

    name = ""
    model_hint: Optional[str] = None
    init: list[tuple[str, int]] = []
    init_seen: set[str] = set()
    threads: list[_PendingThread] = []
    checks: list[Check] = []
    section: Optional[str] = None  # None | "init" | "thread"

    for lineno, line in content[1:]:
        m = _NAME_LINE_RE.match(line)
        if m:
            name = m.group(1)
            section = None
            continue
        m = _MODEL_LINE_RE.match(line)
        if m:
            model_hint = m.group(1)
            section = None
            continue
        if line == "init:":
            section = "init"
            continue
        m = _THREAD_RE.match(line)
        if m:
            if any(t.name == m.group(1) for t in threads):
                raise LitmusParseError(f"duplicate thread name {m.group(1)!r}", lineno)
            threads.append(_PendingThread(m.group(1), lineno))
            section = "thread"
            continue
        m = _CHECK_RE.match(line)
        if m:
            toks = _Tokens(_tokenize(m.group(2), lineno), lineno)
            checks.append(Check(m.group(1), _parse_condition(toks)))
            section = None
            continue

        if section == "init":
            toks = _Tokens(_tokenize(line, lineno), lineno)
            loc = toks.expect_kind("name", "a location name")
            if is_register(loc[1]):
                raise LitmusParseError("init takes address names, not registers", lineno, loc[2])
            toks.expect("=")
            value = _parse_atom_value(toks)
            toks.expect_done()
            if not isinstance(value, int):
                raise LitmusParseError("init value must be an integer", lineno)
            if loc[1] in init_seen:
                raise LitmusParseError(f"duplicate init for {loc[1]!r}", lineno)
            init_seen.add(loc[1])
            init.append((loc[1], value))
            continue

        if section == "thread":
            pending = threads[-1]
            toks = _Tokens(_tokenize(line, lineno), lineno)
            parsed = _parse_instr_line(toks)
            if isinstance(parsed, str):
                if parsed in pending.labels:
                    raise LitmusParseError(f"duplicate label {parsed!r}", lineno)
                pending.labels[parsed] = len(pending.instrs)
            else:
                pending.instrs.append(parsed)
                pending.instr_lines.append(lineno)
            continue

        raise LitmusParseError(f"unexpected line {line!r}", lineno)

    if not threads:
        raise LitmusParseError("no threads")
    if not checks:
        raise LitmusParseError("no checks")

    return LitmusTest(
        name=name,
        model_hint=model_hint,
        init=tuple(init),
        threads=tuple(t.finish() for t in threads),
        checks=tuple(checks),
    )


def parse_file(path) -> LitmusTest:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise LitmusParseError(f"not UTF-8 text ({exc.reason})", line) from None
    return parse(text)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def _render_operand(expr: Expr) -> str:
    text = expr.render()
    return f"({text})" if len(expr.terms) > 1 else text


def render_instr(ins: SurfaceInstr) -> str:
    if isinstance(ins, Assign):
        return f"{ins.dst} = {ins.expr.render()}"
    if isinstance(ins, Load):
        return f"{ins.dst} = Ld {ins.addr.render()}"
    if isinstance(ins, Store):
        return f"St {_render_operand(ins.addr)} {_render_operand(ins.value)}"
    if isinstance(ins, Fence):
        return ins.kind
    if isinstance(ins, Branch):
        mnemonic = "beqz" if ins.cond == "eqz" else "bnez"
        return f"{mnemonic} {ins.reg} {ins.target}"
    if isinstance(ins, Exit):
        return "exit"
    raise TypeError(f"not an instruction: {ins!r}")


def format_test(test: LitmusTest) -> str:
    out = [FORMAT_HEADER]
    if test.name:
        out.append(f"name: {test.name}")
    if test.model_hint:
        out.append(f"model: {test.model_hint}")
    if test.init:
        out.append("init:")
        out.extend(f"  {loc} = {value}" for loc, value in test.init)
    for th in test.threads:
        out.append(f"thread {th.name}:")
        by_index: dict[int, list[str]] = {}
        for label, index in th.labels:
            by_index.setdefault(index, []).append(label)
        for idx in range(len(th.instrs) + 1):
            for label in sorted(by_index.get(idx, ())):
                out.append(f"  {label}:")
            if idx < len(th.instrs):
                out.append(f"  {render_instr(th.instrs[idx])}")
    for check in test.checks:
        out.append(f"check {check.polarity}: {render_condition(check.cond)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Address binding
# ---------------------------------------------------------------------------

def _condition_symbols(cond: Condition) -> Iterator[str]:
    for atom in condition_atoms(cond):
        if isinstance(atom, MemEquals):
            yield atom.loc
        if isinstance(atom.value, str):
            yield atom.value


def bind_addresses(test: LitmusTest) -> dict[str, int]:
    """Assign each symbolic name a concrete base address.

    init-section names bind first, in file order; remaining names follow in
    sorted order, so the map does not depend on thread ordering.  Bases are
    consecutive multiples of `ADDRESS_STRIDE`.
    """
    names = [loc for loc, _ in test.init]
    seen = set(names)
    rest: set[str] = set()
    for th in test.threads:
        for ins in th.instrs:
            if isinstance(ins, Assign):
                rest.update(ins.expr.symbols())
            elif isinstance(ins, Load):
                rest.update(ins.addr.symbols())
            elif isinstance(ins, Store):
                rest.update(ins.addr.symbols())
                rest.update(ins.value.symbols())
    for check in test.checks:
        rest.update(_condition_symbols(check.cond))
    names.extend(sorted(rest - seen))
    return {name: k * ADDRESS_STRIDE for k, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Binding the whole test
# ---------------------------------------------------------------------------

@record
class BoundTest(NamedTuple):
    """A parsed test with addresses, check threads, and atom values resolved."""

    test: LitmusTest
    addr_map: tuple[tuple[str, int], ...]
    checks: tuple[Check, ...]
    observed: tuple[tuple[str, str], ...]  # (thread, register), sorted

    def amap(self) -> dict[str, int]:
        return dict(self.addr_map)


def _owning_thread(test: LitmusTest, reg: str) -> str:
    owners = [th.name for th in test.threads if reg in th.registers()]
    if not owners:
        raise LitmusBindError(f"register {reg} appears in no thread")
    if len(owners) > 1:
        raise LitmusBindError(
            f"register {reg} is ambiguous (in {', '.join(owners)}); qualify it as THREAD:{reg}"
        )
    return owners[0]


def _resolve_condition(cond: Condition, test: LitmusTest, amap: Mapping[str, int]) -> Condition:
    if isinstance(cond, RegEquals):
        thread = cond.thread or _owning_thread(test, cond.reg)
        if not any(th.name == thread for th in test.threads):
            raise LitmusBindError(f"unknown thread {thread!r} in condition")
        value = cond.value if isinstance(cond.value, int) else amap[cond.value]
        return RegEquals(cond.reg, value, thread)
    if isinstance(cond, MemEquals):
        value = cond.value if isinstance(cond.value, int) else amap[cond.value]
        return MemEquals(cond.loc, value)
    if isinstance(cond, Not):
        return Not(_resolve_condition(cond.item, test, amap))
    if isinstance(cond, And):
        return And(tuple(_resolve_condition(i, test, amap) for i in cond.items))
    return Or(tuple(_resolve_condition(i, test, amap) for i in cond.items))


def bind(test: LitmusTest) -> BoundTest:
    """Bind addresses and resolve every check atom to (thread, register, int)."""
    amap = bind_addresses(test)
    checks = tuple(Check(c.polarity, _resolve_condition(c.cond, test, amap)) for c in test.checks)
    observed: set[tuple[str, str]] = set()
    for check in checks:
        for atom in condition_atoms(check.cond):
            if isinstance(atom, RegEquals):
                observed.add((atom.thread, atom.reg))
    return BoundTest(
        test=test,
        addr_map=tuple(amap.items()),
        checks=checks,
        observed=tuple(sorted(observed)),
    )
