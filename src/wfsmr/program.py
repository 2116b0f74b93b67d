"""AST, text parser, and validation for safe normal logic programs.

Rules are written one per statement::

    win(X) :- move(X,Y), not win(Y).
    move(1,2).

Both ``:-`` and ``<-`` are accepted as the rule arrow, ``,`` is conjunction,
``.`` terminates a statement, and ``not `` marks a negative subgoal.
Variables start with an uppercase letter; constants start with a lowercase
letter or a digit. A rule with an empty body is a fact and must be ground.
Every rule must be safe: each variable occurring anywhere in the rule must
also occur in a positive body subgoal. Function terms, arithmetic, and
comparison builtins are not supported.

Programs and facts inputs share one lexical grammar. A token is a name of
ASCII letters, digits and ``_``, an arrow, or one of ``( ) , .``. Whitespace
(``str.isspace``) and comments, each a ``%`` and the rest of its line, may
stand between any two tokens. Errors are reported at ``line:column``, where
only line feeds start a line and columns count code points.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, NoReturn, Union

from .mapreduce import gc_paused

__all__ = [
    "Variable",
    "Constant",
    "Term",
    "Atom",
    "Literal",
    "Rule",
    "Fact",
    "FactRows",
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


@dataclass(frozen=True, slots=True)
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


class FactRows:
    """Deduplicated facts, held as ``relations``: each predicate, in order of
    its first fact, to the dict whose keys are its rows. A :class:`Fact` is
    made per row only when iterated, in the same order every time. It has a
    ``len`` and equals the tuple of its facts, but is not one: to index, hash
    or concatenate it, take ``tuple(value)``. Its rows must not change."""

    __slots__ = ("relations",)

    def __init__(self, relations: dict[str, dict[tuple[Symbol, ...], None]]):
        self.relations = relations

    def __iter__(self) -> Iterator[Fact]:
        return chain.from_iterable(map(Fact, repeat(p), rows) for p, rows in self.relations.items())

    def __len__(self) -> int:
        return sum(map(len, self.relations.values()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, (tuple, FactRows)) and tuple(self) == tuple(other)


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

    def facts(self) -> FactRows:
        """The facts among the rules, as :func:`parse_facts` gives them."""
        relations: dict[str, dict[tuple[Symbol, ...], None]] = {}
        for head in (rule.head for rule in self.rules if rule.is_fact):
            args = tuple(t.symbol for t in head.args)  # type: ignore[union-attr]
            relations.setdefault(head.predicate, {})[args] = None
        return FactRows(relations)

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

_WORD = "[A-Za-z0-9_]"
_NAME_RE = re.compile(rf"{_WORD}+")

# The lexical grammar of the module docstring. A comment cannot end before its
# line does, so a failing match backtracks in linear time.
_SKIP = r"\s*(?:%[^\n]*(?![^\n])\s*)*"
_SKIP_RE = re.compile(_SKIP)
# Facts over the token classes: ASCII constants starting lowercase or with a
# digit, never ``not``.
_CONST = rf"(?!not(?!{_WORD}))[a-z0-9]{_WORD}*"
_FACT_RE = re.compile(
    rf"({_CONST}){_SKIP}"
    rf"(?:\({_SKIP}(?:({_CONST}{_SKIP}(?:,{_SKIP}{_CONST}{_SKIP})*))?\){_SKIP})?"
    rf"\.{_SKIP}"
)
# One token after the gap before it: a constant, a symbol or the end of the
# input, another name, or any other character, which is an error. Every
# position matches, so ``finditer`` yields the tokens back to back.
_TOKEN_RE = re.compile(rf"{_SKIP}(?:({_CONST})|(:-|<-|[(),.]|\Z)|({_WORD}+)|(.))")
_SYMBOLS = {":-": "arrow", "<-": "arrow", "(": "lparen", ")": "rparen", ",": "comma", ".": "dot", "": "eof"}


@dataclass(frozen=True)
class _Token:
    kind: str  # arrow | lparen | rparen | comma | dot | var | const | not | eof
    text: str
    line: int
    col: int


def _tokenize(text: str, offset: int = 0) -> list[_Token]:
    """The tokens of ``text`` from ``offset``, which lies between two tokens."""
    tokens: list[_Token] = []
    line, line_start = 1 + text.count("\n", 0, offset), text.rfind("\n", 0, offset) + 1
    for match in _TOKEN_RE.finditer(text, offset):
        group = match.lastindex
        gap, start = match.start(), match.start(group)
        if gap != start:  # only the gap before a token can hold a newline
            line += text.count("\n", gap, start)
            line_start = max(line_start, text.rfind("\n", gap, start) + 1)
        col = start - line_start + 1
        word = match[group]
        if group == 1:
            kind = "const"
        elif group == 2:
            kind = _SYMBOLS[word]
        elif group == 4:
            raise ParseError(f"unexpected character {word!r}", line, col)
        elif word == "not":
            kind = "not"
        elif VARIABLE_RE.match(word):
            kind = "var"
        else:
            raise ParseError(f"invalid name '{word}'", line, col)
        tokens.append(_Token(kind, word, line, col))
        if kind == "eof":
            break
    return tokens


def _canonical_symbol(text: str) -> Symbol:
    # digit-only tokens without a leading zero are integers; "007" stays text
    if text.isdigit() and (text == "0" or text[0] != "0"):
        return int(text)
    return text


class _Parser:
    def __init__(self, text: str, start: int = 0):
        self.tokens = _tokenize(text, start)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expected(self, what: str) -> NoReturn:
        tok = self.peek()
        found = f", found {tok.text!r}" if tok.text else ""
        raise ParseError(f"expected {what}{found}", tok.line, tok.col)

    def take(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.expected(what)
        self.pos += 1
        return tok

    def parse_atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "const":
            if tok.kind == "not":
                raise ParseError("'not' is reserved and cannot name a predicate", tok.line, tok.col)
            self.expected("predicate name")
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
                try:
                    args.append(Constant(_canonical_symbol(t.text)))
                except ValueError:
                    limit = sys.get_int_max_str_digits()
                    raise ParseError(f"integer constant longer than {limit} digits", t.line, t.col) from None
            else:
                self.expected("term")
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
def parse_facts(text: str) -> FactRows:
    """Parse a facts file (one ground atom per statement) into a
    :class:`FactRows` equal to ``parse_program(text).facts()``, whose rows
    :func:`~wfsmr.fixpoint.solve` takes as base relations uncopied.

    A text of lines ``p(int,...,int).`` each ending in ``\\n``, all of one
    predicate and arity, with canonical integers (``0`` or no leading zero),
    is checked by one ``re.subn`` and read in C-level passes; any other text
    costs one match of ``_FACT_RE`` per statement. Inputs that match rejects
    (rules, variables, bad syntax) and arity clashes raise the token parser's
    error.
    """
    predicate, num = text.partition("(")[0], "(?:0|[1-9][0-9]*)"
    arity = text[:text.find("\n")].count(",") + 1
    if re.fullmatch(_CONST, predicate):
        # converted before the check, which in the other order left small
        # inputs' peak resident memory higher
        try:  # no integer, or more digits than int() converts: the loop reads it
            ints = list(map(int, text[len(predicate) + 1:-3].replace(f").\n{predicate}(", ",").split(",")))
        except ValueError:
            ints = ()
        if ints and not re.subn(rf"{predicate}\({num}(?:,{num}){{{arity - 1}}}\)\.\n", "", text)[0]:
            return FactRows({predicate: dict.fromkeys(zip(*[iter(ints)] * arity))})
    match, names = _FACT_RE.match, _NAME_RE.findall
    relations: dict[str, dict[tuple[Symbol, ...], None]] = {}
    arities: dict[str, int] = {}
    pos, end = _SKIP_RE.match(text).end(), len(text)
    while pos < end:
        found = match(text, pos)
        if found is None:
            _raise_facts_error(text, pos, arities)
        pos = found.end()
        predicate, body = found.groups()
        if body and "%" in body:
            body = _SKIP_RE.sub("", body)
        try:
            args = tuple(map(_canonical_symbol, names(body))) if body else ()
        except ValueError:  # an integer of more digits than int() converts
            _raise_facts_error(text, found.start(), arities)
        if arities.setdefault(predicate, len(args)) != len(args):
            _raise_facts_error(text, found.start(), arities)
        relations.setdefault(predicate, {})[args] = None
    return FactRows(relations)


def _raise_facts_error(text: str, start: int, arities: dict[str, int]) -> NoReturn:
    """Raise the token parser's error for a facts input ``parse_facts`` rejected
    at the statement at offset ``start``. The statements before it hold no
    error and declared ``arities``, so the parser reads from there on."""
    parser = _Parser(text, start)
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

