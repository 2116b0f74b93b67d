"""Benchmark datasets and the built-in test programs.

Three fact distributions are generated: a single move-cycle, a binary
move-tree, and an edge chain with stride ``k`` (the chain allows
``ceil(n/k) - 1`` joins). The two built-in programs are the single-rule
game test and the five-rule transitive-closure-with-negation test. The
benchmark (``perfbench/``) and the tests build their inputs from them.
"""
from __future__ import annotations

import math

from .program import Fact, Program, parse_program

__all__ = [
    "gen_cycle",
    "gen_tree",
    "gen_chain",
    "chain_levels",
    "builtin_program",
]

WIN_NOT_WIN = "win(X) :- move(X,Y), not win(Y).\n"

TC_NEG = (
    "tc(X,Y) :- par(X,Y).\n"
    "tc(X,Y) :- par(X,Z), tc(Z,Y).\n"
    "par(X,Y) :- b(X,Y), not q(X,Y).\n"
    "par(X,Y) :- b(X,Y), b(Y,Z), not q(Y,Z).\n"
    "q(X,Y) :- b(Z,X), b(X,Y), not q(Z,X).\n"
)


def gen_cycle(n: int) -> list[Fact]:
    """n move facts forming one cycle 1 -> 2 -> ... -> n -> 1."""
    if n < 1:
        raise ValueError("cycle size must be >= 1")
    return [Fact("move", (i, i % n + 1)) for i in range(1, n + 1)]


def gen_tree(n: int) -> list[Fact]:
    """2n move facts: binary tree edges i -> 2i and i -> 2i+1 for 1 <= i <= n."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    out = []
    for i in range(1, n + 1):
        out.append(Fact("move", (i, 2 * i)))
        out.append(Fact("move", (i, 2 * i + 1)))
    return out


def gen_chain(n: int, k: int) -> list[Fact]:
    """n chain facts b(i, i+k) for 1 <= i <= n, with stride k < n."""
    if not 1 <= k < n:
        raise ValueError("chain requires 1 <= k < n")
    return [Fact("b", (i, i + k)) for i in range(1, n + 1)]


def chain_levels(n: int, k: int) -> int:
    """Number of levels the chain spreads over; joins = levels - 1."""
    return math.ceil(n / k)


def builtin_program(name: str) -> Program:
    if name == "win-not-win":
        return parse_program(WIN_NOT_WIN)
    if name == "tc-neg":
        return parse_program(TC_NEG)
    raise ValueError(f"unknown test program '{name}'")
