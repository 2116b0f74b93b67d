"""AST, text parser, and validation for safe normal logic programs.

Rules are written one per statement, with ``%`` starting a comment that runs
to the end of the line::

    win(X) :- move(X,Y), not win(Y).
    move(1,2).

Both ``:-`` and ``<-`` are accepted as the rule arrow, ``,`` is conjunction,
``.`` terminates a statement, and ``not `` marks a negative subgoal.
Variables start with an uppercase letter; constants start with a lowercase
letter or a digit. A rule with an empty body is a fact and must be ground.
Every rule must be safe: each variable occurring anywhere in the rule must
also occur in a positive body subgoal. Function symbols, arithmetic, and
comparison builtins are not supported.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NoReturn, Union

from .mapreduce import gc_paused

__all__ = [
    "Variable",
    "Constant",
    "Term",
    "Atom",
    "Literal",
    "Rule",
    "Fact",
    "Program",
    "ProgramError",
    "ParseError",
    "ArityError",
    "SafetyError",
    "UnknownPredicateError",
    "InvariantError",
    "check_safety",
    "parse_program",
    "parse_facts",
    "facts_to_text",
]

Symbol = Union[str, int]

VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
CONSTANT_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*\Z")


class ProgramError(Exception):
    """Base class for program validation failures."""


class ParseError(ProgramError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ArityError(ProgramError):
    def __init__(self, predicate: str, seen: int, expected: int):
        super().__init__(
            f"predicate '{predicate}' used with arity {seen} "
            f"but previously with arity {expected}"
        )
        self.predicate = predicate
        self.seen = seen
        self.expected = expected


class SafetyError(ProgramError):
    """One or more rules are unsafe. Carries every violation found."""

    def __init__(self, violations: Iterable[tuple["Rule", tuple[str, ...]]]):
        self.violations = tuple(violations)
        parts = [
            f"rule '{rule}': variable(s) {', '.join(names)} "
            "not bound by a positive subgoal"
            for rule, names in self.violations
        ]
        super().__init__("unsafe program: " + "; ".join(parts))

    def variable_names(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(name for _, names in self.violations for name in names))


class UnknownPredicateError(ProgramError):
    pass


class InvariantError(RuntimeError):
    """A self-check failed: the computation is wrong, not the input."""


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    symbol: Symbol

    def __str__(self) -> str:
        return str(self.symbol)


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> tuple[str, ...]:
        """Distinct variable names in first-occurrence order."""
        return tuple(dict.fromkeys(t.name for t in self.args if isinstance(t, Variable)))

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.args)})"


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Literal, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    def positive(self) -> tuple[Atom, ...]:
        return tuple(lit.atom for lit in self.body if not lit.negated)

    def negative(self) -> tuple[Atom, ...]:
        return tuple(lit.atom for lit in self.body if lit.negated)

    def variables(self) -> tuple[str, ...]:
        atoms = (self.head, *(lit.atom for lit in self.body))
        return tuple(dict.fromkeys(name for atom in atoms for name in atom.variables()))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {body}."


@dataclass(frozen=True)
class Fact:
    predicate: str
    args: tuple[Symbol, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"


def check_safety(rule: Rule) -> tuple[str, ...]:
    """Return the names of unsafe variables (empty tuple means the rule is safe).

    A variable is unsafe when it occurs in the head or in a negative subgoal
    without occurring in any positive subgoal. Variables inside positive
    subgoals are covered by definition, so only head and negative occurrences
    need checking. A fact (empty body) is safe exactly when it is ground.
    """
    bound = {name for atom in rule.positive() for name in atom.variables()}
    checked = (rule.head, *rule.negative())
    return tuple(dict.fromkeys(
        name for atom in checked for name in atom.variables() if name not in bound
    ))


class Program:
    """A validated set of rules with consistent predicate signatures.

    Ground rules with an empty body are kept in ``rules`` and are also
    available as :meth:`facts`.
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.signatures: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *(lit.atom for lit in rule.body)):
                self._check_arity(atom)
        violations = []
        for rule in self.rules:
            names = check_safety(rule)
            if names:
                violations.append((rule, names))
        if violations:
            raise SafetyError(violations)

    def _check_arity(self, atom: Atom) -> None:
        known = self.signatures.get(atom.predicate)
        if known is None:
            self.signatures[atom.predicate] = atom.arity
        elif known != atom.arity:
            raise ArityError(atom.predicate, atom.arity, known)

    def facts(self) -> tuple[Fact, ...]:
        return tuple(
            Fact(rule.head.predicate, tuple(t.symbol for t in rule.head.args))  # type: ignore[union-attr]
            for rule in self.rules if rule.is_fact
        )

    def proper_rules(self) -> tuple[Rule, ...]:
        return tuple(rule for rule in self.rules if not rule.is_fact)

    def pretty(self) -> str:
        return "".join(f"{rule}\n" for rule in self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules)"


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_ARROWS = (":-", "<-")
_PUNCT = {"(": "lparen", ")": "rparen", ",": "comma", ".": "dot"}
_NAME_RE = re.compile(r"[A-Za-z0-9_]+")

# The facts grammar over the tokenizer's classes (``\s`` is ``str.isspace``):
# whitespace and comments between any two tokens; constants are ASCII names
# starting lowercase or with a digit, never ``not``. A comment cannot end
# before its line does, so a failing match backtracks in linear time.
_SKIP = r"\s*(?:%[^\n]*(?![^\n])\s*)*"
_CONST = r"(?!not(?![A-Za-z0-9_]))[a-z0-9][A-Za-z0-9_]*"
_SKIP_RE = re.compile(_SKIP)
_FACT_RE = re.compile(
    rf"({_CONST}){_SKIP}"
    rf"(?:\({_SKIP}(?:({_CONST}{_SKIP}(?:,{_SKIP}{_CONST}{_SKIP})*))?\){_SKIP})?"
    rf"\.{_SKIP}"
)
_COMMENT_RE = re.compile(r"%[^\n]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # arrow | lparen | rparen | comma | dot | var | const | not | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "%":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            col += i - start
            continue
        two = text[i : i + 2]
        if two in _ARROWS:
            tokens.append(_Token("arrow", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        match = _NAME_RE.match(text, i)
        if match:
            word = match.group()
            if word == "not":
                kind = "not"
            elif VARIABLE_RE.match(word):
                kind = "var"
            elif CONSTANT_RE.match(word):
                kind = "const"
            else:
                raise ParseError(f"invalid name '{word}'", line, col)
            tokens.append(_Token(kind, word, line, col))
            i += len(word)
            col += len(word)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _canonical_symbol(text: str) -> Symbol:
    # digit-only tokens without a leading zero are integers; "007" stays text
    if text.isdigit() and (text == "0" or text[0] != "0"):
        return int(text)
    return text


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}",
                tok.line,
                tok.col,
            )
        self.pos += 1
        return tok

    def parse_atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "const":
            if tok.kind == "not":
                raise ParseError("'not' is reserved and cannot name a predicate", tok.line, tok.col)
            raise ParseError(
                f"expected predicate name, found {tok.text!r}" if tok.text else "expected predicate name",
                tok.line,
                tok.col,
            )
        self.pos += 1
        predicate = tok.text
        if self.peek().kind != "lparen":
            return Atom(predicate)
        self.take("lparen", "'('")
        args: list[Term] = []
        if self.peek().kind == "rparen":
            self.pos += 1
            return Atom(predicate)
        while True:
            t = self.peek()
            if t.kind == "var":
                args.append(Variable(t.text))
            elif t.kind == "const":
                args.append(Constant(_canonical_symbol(t.text)))
            else:
                raise ParseError(
                    f"expected term, found {t.text!r}" if t.text else "expected term",
                    t.line,
                    t.col,
                )
            self.pos += 1
            if self.peek().kind == "comma":
                self.pos += 1
                continue
            break
        self.take("rparen", "')'")
        return Atom(predicate, tuple(args))

    def parse_literal(self) -> Literal:
        if self.peek().kind == "not":
            self.pos += 1
            return Literal(self.parse_atom(), negated=True)
        return Literal(self.parse_atom())

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        if self.peek().kind == "dot":
            self.pos += 1
            return Rule(head)
        self.take("arrow", "':-' or '.'")
        body = [self.parse_literal()]
        while self.peek().kind == "comma":
            self.pos += 1
            body.append(self.parse_literal())
        self.take("dot", "'.'")
        return Rule(head, tuple(body))

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"


@gc_paused
def parse_program(text: str) -> Program:
    """Parse program text into a validated :class:`Program`.

    Raises :class:`ParseError` with line/column on bad syntax,
    :class:`ArityError` on inconsistent predicate arity, and
    :class:`SafetyError` naming every offending rule and variable.
    """
    parser = _Parser(text)
    rules = []
    while not parser.at_eof():
        rules.append(parser.parse_rule())
    return Program(rules)


@gc_paused
def parse_facts(text: str) -> tuple[Fact, ...]:
    """Parse a facts file (one ground atom per statement) into deduplicated Facts.

    Each statement costs one match of ``_FACT_RE``. Inputs it rejects (rules,
    variables, bad syntax) and arity clashes raise the token parser's error.
    """
    match, names = _FACT_RE.match, _NAME_RE.findall
    unique: dict[tuple[str, tuple[Symbol, ...]], None] = {}
    arities: dict[str, int] = {}
    pos, end = _SKIP_RE.match(text).end(), len(text)
    while pos < end:
        found = match(text, pos)
        if found is None:
            _raise_facts_error(text)
        pos = found.end()
        predicate, body = found.groups()
        if body and "%" in body:
            body = _COMMENT_RE.sub("", body)
        args = tuple(map(_canonical_symbol, names(body))) if body else ()
        if arities.setdefault(predicate, len(args)) != len(args):
            _raise_facts_error(text)
        unique[predicate, args] = None
    return tuple([Fact(predicate, args) for predicate, args in unique])


def _raise_facts_error(text: str) -> NoReturn:
    """Raise the token parser's error for a facts input ``parse_facts`` rejected."""
    parser = _Parser(text)
    arities: dict[str, int] = {}
    while not parser.at_eof():
        tok = parser.peek()
        atom = parser.parse_atom()
        nxt = parser.peek()
        if nxt.kind == "arrow":
            raise ParseError("rules are not allowed in a facts input", nxt.line, nxt.col)
        parser.take("dot", "'.'")
        if not atom.is_ground():
            names = ", ".join(atom.variables())
            raise ParseError(f"fact '{atom}' is not ground (variables: {names})", tok.line, tok.col)
        if arities.setdefault(atom.predicate, atom.arity) != atom.arity:
            raise ArityError(atom.predicate, atom.arity, arities[atom.predicate])
    raise InvariantError("parse_facts rejected a facts input that the token parser accepts")


def facts_to_text(facts: Iterable[Fact]) -> str:
    """Render facts in the facts-file format, one statement per line."""
    return "".join(f"{fact}.\n" for fact in facts)

