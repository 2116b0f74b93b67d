"""Shared test utilities: independent reference oracles and random input
generators. The oracles here deliberately avoid the planner, operators, and
engine code paths they are used to check."""
from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Iterable, Sequence

from wfsmr.program import (
    Atom,
    Constant,
    Fact,
    Literal,
    Program,
    Rule,
    Variable,
)
from wfsmr.store import Database

GroundAtom = tuple[str, tuple]
# (key, per input the records under it) -> output records
Reducer = Callable[[Any, Sequence[Sequence]], Iterable]


# ---------------------------------------------------------------------------
# Database plumbing
# ---------------------------------------------------------------------------


def make_db(facts: Iterable[Fact]) -> Database:
    db = Database()
    db.insert_many(facts)
    return db


def db_atoms(db: Database) -> set[GroundAtom]:
    return {(f.predicate, f.args) for f in db.iter_facts()}


def result_atoms(result) -> tuple[set[GroundAtom], set[GroundAtom]]:
    return db_atoms(result.true_facts), db_atoms(result.undefined_facts)


# ---------------------------------------------------------------------------
# Per-key reduce and serial MapReduce oracle
# ---------------------------------------------------------------------------


def per_key(reducer: Reducer):
    """The task-level reduce that calls ``reducer(key, groups)`` once per key
    of input 0, where ``groups[i]`` holds the records of input ``i`` under
    the key and is empty when that input has none: the per-key co-group,
    and the reference for a task reduce's ``max_group``."""

    def reduce_task(own, others, out: list) -> int:
        single, multi = own
        max_group = 0
        # a single value comes as a 1-tuple, made by zip
        for key, values in itertools.chain(zip(single, zip(single.values())), multi.items()):
            groups = [values]
            for one, many in others:
                groups.append((one[key],) if key in one else many.get(key, ()))
            max_group = max(max_group, sum(map(len, groups)))
            out.extend(reducer(key, groups))
        return max_group

    return reduce_task


def serial_mapreduce(reducer: Reducer, inputs: Sequence[tuple]) -> set:
    """Naive single-threaded key, co-group, reduce reference run of a per-key
    ``reducer`` over ``(key_of, records)`` inputs; only the keys of input 0
    are reduced."""
    groups: dict = {}
    for slot, (key_of, records) in enumerate(inputs):
        for record in records:
            groups.setdefault(key_of(record), [[] for _ in inputs])[slot].append(record)
    out: set = set()
    for key, values in groups.items():
        if values[0]:
            out.update(reducer(key, values))
    return out


# ---------------------------------------------------------------------------
# Relational oracles (nested loops over rows)
# ---------------------------------------------------------------------------


def nested_loop_join(left, right, left_key, right_key, out_cols) -> set[tuple]:
    out = set()
    for l in left:
        for r in right:
            if tuple(l[i] for i in left_key) == tuple(r[i] for i in right_key):
                out.add(tuple(l[i] if side == "l" else r[i] for side, i in out_cols))
    return out


def brute_anti_join(positive, negative, key) -> set[tuple]:
    keys = set(negative)
    return {row for row in positive if tuple(row[i] for i in key) not in keys}


def instantiate(atom: Atom, binding: dict) -> GroundAtom:
    return (
        atom.predicate,
        tuple(
            binding[t.name] if isinstance(t, Variable) else t.symbol for t in atom.args
        ),
    )


def rule_constants(rule: Rule) -> set:
    out = set()
    for atom in (rule.head, *(lit.atom for lit in rule.body)):
        for term in atom.args:
            if isinstance(term, Constant):
                out.add(term.symbol)
    return out


def eval_rule_bruteforce(
    rule: Rule,
    pos_atoms: set[GroundAtom],
    neg_atoms: set[GroundAtom],
) -> set[GroundAtom]:
    """Single-rule consequences by enumerating every substitution over the
    active domain: positive body inside pos_atoms, negative body missing
    from neg_atoms."""
    domain = sorted(
        {c for _, args in pos_atoms | neg_atoms for c in args} | rule_constants(rule),
        key=repr,
    )
    names = rule.variables()
    out = set()
    for values in itertools.product(domain, repeat=len(names)):
        binding = dict(zip(names, values))
        if all(instantiate(a, binding) in pos_atoms for a in rule.positive()) and not any(
            instantiate(a, binding) in neg_atoms for a in rule.negative()
        ):
            out.add(instantiate(rule.head, binding))
    return out


def definite_least_model(program: Program) -> set[GroundAtom]:
    """Plain bottom-up Datalog evaluation for Horn programs (no plans, no jobs)."""
    assert all(not r.negative() for r in program.rules)
    domain = sorted(
        {c for rule in program.rules for c in rule_constants(rule)}, key=repr
    )
    current: set[GroundAtom] = set()
    while True:
        derived: set[GroundAtom] = set()
        for rule in program.rules:
            names = rule.variables()
            for values in itertools.product(domain, repeat=len(names)):
                binding = dict(zip(names, values))
                if all(instantiate(a, binding) in current for a in rule.positive()):
                    derived.add(instantiate(rule.head, binding))
        if derived == current:
            return current
        current = derived


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

_VAR_POOL = ("X", "Y", "Z")
_PRED_POOL = ("p", "q", "r", "s")


def random_relation(rng: random.Random, arity: int, max_rows: int = 8, domain: int = 6):
    size = rng.randrange(max_rows + 1)
    return {
        tuple(rng.randrange(1, domain + 1) for _ in range(arity)) for _ in range(size)
    }


def random_safe_rule(rng: random.Random, signatures: dict[str, int]) -> Rule:
    preds = list(signatures)
    consts = range(1, 7)

    def make_atom(pred: str, terms) -> Atom:
        return Atom(pred, tuple(terms))

    n_pos = rng.choice((0, 1, 1, 1, 2))
    positives = []
    for _ in range(n_pos):
        pred = rng.choice(preds)
        terms = [
            Variable(rng.choice(_VAR_POOL))
            if rng.random() < 0.75
            else Constant(rng.choice(consts))
            for _ in range(signatures[pred])
        ]
        positives.append(make_atom(pred, terms))
    pos_vars = sorted({v for a in positives for v in a.variables()})

    def bound_term():
        if pos_vars and rng.random() < 0.8:
            return Variable(rng.choice(pos_vars))
        return Constant(rng.choice(consts))

    head_pred = rng.choice(preds)
    head = make_atom(head_pred, [bound_term() for _ in range(signatures[head_pred])])
    negatives = []
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        pred = rng.choice(preds)
        negatives.append(make_atom(pred, [bound_term() for _ in range(signatures[pred])]))
    body = [Literal(a) for a in positives] + [Literal(a, negated=True) for a in negatives]
    return Rule(head, tuple(body))


def random_program(
    rng: random.Random,
    max_rules: int = 6,
    max_facts: int = 14,
    with_facts: bool = True,
) -> Program:
    """A random safe program over <= 4 predicates of arity <= 2, constants
    1..6, including its base facts as ground rules."""
    n_preds = rng.randrange(2, len(_PRED_POOL) + 1)
    signatures = {
        pred: rng.choice((0, 1, 1, 2, 2, 2)) for pred in _PRED_POOL[:n_preds]
    }
    rules = [random_safe_rule(rng, signatures) for _ in range(rng.randrange(1, max_rules + 1))]
    if with_facts:
        seen = set()
        for _ in range(rng.randrange(max_facts + 1)):
            pred = rng.choice(list(signatures))
            args = tuple(
                Constant(rng.randrange(1, 7)) for _ in range(signatures[pred])
            )
            atom = Atom(pred, args)
            if atom not in seen:
                seen.add(atom)
                rules.append(Rule(atom))
    return Program(rules)
