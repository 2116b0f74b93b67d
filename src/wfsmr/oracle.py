"""Ground-truth reference evaluators, independent of the job pipeline.

``ground_afp`` grounds the whole program over its active domain and runs
the alternating fixpoint literally on Python sets of ground atoms. It is
deliberately brute force: no plans and no jobs. It exists to cross-check
the engine on small inputs.

``game_partition`` solves win/move games by backward induction: a position
is won when some successor is lost, lost when every successor is won
(vacuously for leaves), and drawn otherwise. On move graphs this matches
the well-founded model of the single-rule game program.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Hashable, Iterable, Sequence

from .program import Constant, Fact, Program, Rule, Symbol, Variable

__all__ = ["GroundAtom", "ground_afp", "ground_rule_instances", "game_partition"]

GroundAtom = tuple[str, tuple[Symbol, ...]]
GroundRule = tuple[GroundAtom, tuple[GroundAtom, ...], tuple[GroundAtom, ...]]


def _atom_constants(program: Program, facts: Iterable[Fact]) -> list[Symbol]:
    domain: set[Symbol] = set()
    for rule in program.rules:
        for atom in (rule.head, *(lit.atom for lit in rule.body)):
            for term in atom.args:
                if isinstance(term, Constant):
                    domain.add(term.symbol)
    for fact in facts:
        domain.update(fact.args)
    return sorted(domain, key=repr)


def _instantiate(atom, binding) -> GroundAtom:
    args = tuple(
        binding[t.name] if isinstance(t, Variable) else t.symbol for t in atom.args
    )
    return (atom.predicate, args)


def ground_rule_instances(
    rule: Rule, domain: Sequence[Symbol]
) -> list[GroundRule]:
    """All ground instances of one rule over the given constant domain."""
    names = rule.variables()
    instances: list[GroundRule] = []
    for values in itertools.product(domain, repeat=len(names)):
        binding = dict(zip(names, values))
        head = _instantiate(rule.head, binding)
        pos = tuple(_instantiate(a, binding) for a in rule.positive())
        neg = tuple(_instantiate(a, binding) for a in rule.negative())
        instances.append((head, pos, neg))
    return instances


def _ground(program: Program, facts: Iterable[Fact]):
    domain = _atom_constants(program, facts)
    all_instances: list[GroundRule] = []
    definite_instances: list[GroundRule] = []
    for rule in program.rules:
        instances = ground_rule_instances(rule, domain)
        all_instances.extend(instances)
        if not rule.negative():
            definite_instances.extend(instances)
    base = {(fact.predicate, fact.args) for fact in facts}
    for atom in base:
        all_instances.append((atom, (), ()))
        definite_instances.append((atom, (), ()))
    return all_instances, definite_instances


def _lfp(instances: list[GroundRule], blocked: set[GroundAtom]) -> set[GroundAtom]:
    current: set[GroundAtom] = set()
    while True:
        derived = {
            head
            for head, pos, neg in instances
            if all(a in current for a in pos) and not any(a in blocked for a in neg)
        }
        if derived == current:
            return current
        current = derived


def ground_afp(
    program: Program, facts: Iterable[Fact] = ()
) -> tuple[set[GroundAtom], set[GroundAtom]]:
    """Alternating fixpoint over explicit ground instances.

    Returns (true atoms, undefined atoms); everything else over the
    Herbrand base is false.
    """
    facts = tuple(facts)
    all_instances, definite_instances = _ground(program, facts)
    known = _lfp(definite_instances, set())
    possible = _lfp(all_instances, known)
    while True:
        known_next = _lfp(all_instances, possible)
        possible_next = _lfp(all_instances, known_next)
        if known_next == known and possible_next == possible:
            return known, possible - known
        known, possible = known_next, possible_next


def game_partition(
    moves: Iterable[tuple[Hashable, Hashable]],
) -> tuple[set, set, set]:
    """Partition game positions into (won, lost, drawn) by backward induction."""
    successors = defaultdict(list)
    nodes = set()
    for a, b in moves:
        successors[a].append(b)
        nodes.add(a)
        nodes.add(b)
    won: set = set()
    lost: set = set()
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node in won or node in lost:
                continue
            succ = successors.get(node, ())
            if any(s in lost for s in succ):
                won.add(node)
                changed = True
            elif all(s in won for s in succ):
                lost.add(node)  # leaves are lost vacuously
                changed = True
    return won, lost, nodes - won - lost
