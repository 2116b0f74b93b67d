"""Compile safe rules into executable plans.

A plan chains binary hash joins over the positive subgoals left to right,
keeping only columns still needed downstream, and ends in the positive-goal
schema: the head variables plus every variable shared with a negative
subgoal, ordered by first occurrence across the positive subgoals. Each
negative subgoal becomes one anti-join step whose key covers all of its
variables (safety guarantees they all appear in the schema, so the check is
a plain key lookup). A final projection maps schema columns to head
arguments.

Constants and repeated variables inside a subgoal compile to selection
filters applied while the relation is streamed into a job, not to separate
jobs. Positive subgoals sharing no variables join on the empty key
(a Cartesian product); this is legal but flagged with a warning.

Which subgoal reads a semi-naive delta, and in what order, is decided here
alone: besides the written order, a plan holds one variant per delta
occurrence (as Soufflé does; Jordan, Scholz and Subotić, CAV 2016). A
positive subgoal's variant joins it first, then each other subgoal on a
variable already bound if one can, so it has no Cartesian product that the
written order lacks. A negative subgoal's variant, its seed, keeps the
positive-goal tuples whose key the delta holds, before the other anti-joins.

:func:`compile_program` also tags each plan with the strongly connected
component of its head in the predicate dependency graph, which has an edge
from a rule's head to each predicate of its body, positive or negative.
Only predicates that head a rule form components, numbered bottom-up: a
rule's body reads only predicates of its own component or of lower ones.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .program import Atom, InvariantError, Program, Rule, SafetyError, Symbol, Variable, check_safety

__all__ = [
    "SubgoalAccess",
    "JoinStep",
    "AntiJoinStep",
    "RulePlan",
    "PlanWarning",
    "compile_rule",
    "compile_program",
    "subgoal_access",
]


class PlanWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SubgoalAccess:
    """How to stream one subgoal's relation: filters plus variable columns.

    ``var_cols`` lists each distinct variable with the column of its first
    occurrence; ``eq_cols`` are column pairs that must be equal (repeated
    variables); ``const_cols`` are (column, symbol) equality filters.
    ``delta`` marks the subgoal a variant reads in the delta.
    """

    atom: Atom
    var_cols: tuple[tuple[str, int], ...]
    eq_cols: tuple[tuple[int, int], ...]
    const_cols: tuple[tuple[int, Symbol], ...]
    delta: bool = False

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.var_cols)


def subgoal_access(atom: Atom) -> SubgoalAccess:
    var_cols: list[tuple[str, int]] = []
    first_col: dict[str, int] = {}
    eq_cols: list[tuple[int, int]] = []
    const_cols: list[tuple[int, Symbol]] = []
    for col, term in enumerate(atom.args):
        if isinstance(term, Variable):
            seen = first_col.get(term.name)
            if seen is None:
                first_col[term.name] = col
                var_cols.append((term.name, col))
            else:
                eq_cols.append((seen, col))
        else:
            const_cols.append((col, term.symbol))
    return SubgoalAccess(atom, tuple(var_cols), tuple(eq_cols), tuple(const_cols))


@dataclass(frozen=True)
class JoinStep:
    """Join the accumulated tuples with one more positive subgoal.

    ``left_key`` holds positions of the shared variables in the left
    schema; ``right_key`` holds their positions in the right subgoal's
    projected variable layout. ``out_cols`` selects output columns as
    (side, index) pairs with side ``"l"`` or ``"r"``. ``output`` is the
    variable schema after the step and retains exactly the variables still
    needed by later joins, anti-joins, or the head.
    """

    right: SubgoalAccess
    join_vars: tuple[str, ...]
    left_key: tuple[int, ...]
    right_key: tuple[int, ...]
    out_cols: tuple[tuple[str, int], ...]
    output: tuple[str, ...]


@dataclass(frozen=True)
class AntiJoinStep:
    """Drop positive-goal tuples whose key matches the negative relation.

    The key covers every variable of the negative subgoal (in subgoal
    order), so matching is a total-key lookup. When ``access`` reads the
    delta (a seed variant), the step keeps the tuples that match instead.
    """

    access: SubgoalAccess
    key_vars: tuple[str, ...]
    pos_key: tuple[int, ...]


HeadCol = tuple[str, Union[int, Symbol]]  # ("v", schema index) or ("c", symbol)


@dataclass(frozen=True)
class RulePlan:
    rule: Rule
    base: SubgoalAccess | None
    base_cols: tuple[int, ...]
    base_schema: tuple[str, ...]
    joins: tuple[JoinStep, ...]
    goal_schema: tuple[str, ...]
    anti_joins: tuple[AntiJoinStep, ...]
    head_cols: tuple[HeadCol, ...]
    index: int = 0  # position among the program's rules, for job names
    component: int = 0  # strongly connected component of the head, bottom-up
    deltas: tuple[RulePlan, ...] = ()  # one variant per positive subgoal, in body order
    seeds: tuple[RulePlan, ...] = ()  # one variant per negative subgoal, in body order

    @property
    def delta(self) -> Optional[SubgoalAccess]:
        """The subgoal a variant reads in the delta; None in the written order."""
        reads = (self.base, *(step.access for step in self.anti_joins))
        return next((access for access in reads if access is not None and access.delta), None)

    @property
    def head_predicate(self) -> str:
        return self.rule.head.predicate

    def explain(self) -> str:
        lines = [f"rule: {self.rule}"]
        if self.base is not None:
            lines.append(f"  scan {self.base.atom} -> ({','.join(self.base_schema)})")
            schema = self.base_schema
            for step in self.joins:
                on = ",".join(step.join_vars) if step.join_vars else "<empty key>"
                lines.append(
                    f"  join ({','.join(schema)}) * {step.right.atom} "
                    f"on ({on}) -> ({','.join(step.output)})"
                )
                schema = step.output
        lines.append(f"  positive goal ({','.join(self.goal_schema)})")
        for step in self.anti_joins:
            lines.append(
                f"  anti-join not {step.access.atom} on ({','.join(step.key_vars)})"
            )
        lines.append(f"  project {self.rule.head}")
        for kind, variants in (("delta", self.deltas), ("seed not", self.seeds)):
            for variant in variants:
                reads = [variant.base, *(step.right for step in variant.joins)]
                if kind != "delta":  # the seed joins the positive goal
                    reads.append(variant.delta)
                order = " * ".join(str(access.atom) for access in reads if access is not None)
                lines.append(f"  {kind} {variant.delta.atom}: {order}")
        lines.append(f"  component {self.component}")
        return "\n".join(lines)


def _ordered_vars(atoms: Iterable[Atom]) -> list[str]:
    seen: list[str] = []
    for atom in atoms:
        for name in atom.variables():
            if name not in seen:
                seen.append(name)
    return seen


def compile_rule(rule: Rule, index: int = 0, component: int = 0) -> RulePlan:
    """Compile one safe rule in its written order, with its variants."""
    offending = check_safety(rule)
    if offending:
        raise SafetyError([(rule, offending)])
    positives = [subgoal_access(a) for a in rule.positive()]
    negatives = [subgoal_access(a) for a in rule.negative()]
    plan = _compile(rule, positives, negatives, index, component, warn=True)
    deltas, seeds = [], []
    for i in range(len(positives)):
        order = _delta_first(positives, i)
        deltas.append(_compile(rule, order, negatives, index, component, warn=False))
    for j, step in enumerate(plan.anti_joins):
        seed = replace(step, access=replace(step.access, delta=True))
        others = plan.anti_joins[:j] + plan.anti_joins[j + 1:]
        seeds.append(replace(plan, anti_joins=(seed, *others)))
    return replace(plan, deltas=tuple(deltas), seeds=tuple(seeds))


def _delta_first(positives: list[SubgoalAccess], i: int) -> list[SubgoalAccess]:
    """Subgoal ``i``, reading the delta, then each next the first other one
    sharing a variable with those before it, if any does."""
    order = [replace(positives[i], delta=True)]
    rest = positives[:i] + positives[i + 1:]
    bound = set(order[0].vars)
    while rest:
        access = rest.pop(next((k for k, a in enumerate(rest) if bound.intersection(a.vars)), 0))
        order.append(access)
        bound.update(access.vars)
    return order


def _compile(rule: Rule, positives: list, negatives: list, index: int, component: int,
             warn: bool) -> RulePlan:
    """The plan that joins ``positives`` in their order; ``warn`` warns of a
    Cartesian product."""
    final_set = set(rule.head.variables())
    for access in negatives:
        final_set.update(access.vars)
    goal_schema = tuple(v for v in _ordered_vars(a.atom for a in positives) if v in final_set)

    base = positives[0] if positives else None
    base_cols: tuple[int, ...] = ()
    base_schema: tuple[str, ...] = ()
    joins: list[JoinStep] = []

    if base is not None:
        # variables needed after consuming subgoal i: later subgoals + final schema
        needed_after: list[set[str]] = []
        running = set(final_set)
        for access in reversed(positives[1:]):
            needed_after.append(set(running))
            running.update(access.vars)
        needed_after.append(set(running))  # position 0
        needed_after.reverse()

        base_schema = tuple(v for v in base.vars if v in needed_after[0])
        base_cols = tuple(dict(base.var_cols)[v] for v in base_schema)
        schema = base_schema

        for i, access in enumerate(positives[1:], start=1):
            right_vars = list(access.vars)
            join_vars = tuple(v for v in schema if v in right_vars)
            if warn and not join_vars and (schema or access.vars):
                warnings.warn(
                    f"rule '{rule}': subgoal {access.atom} shares no variables "
                    "with the tuples joined so far (Cartesian product)",
                    PlanWarning,
                    stacklevel=3,
                )
            combined = list(schema) + [v for v in access.vars if v not in schema]
            output = tuple(v for v in combined if v in needed_after[i])
            out_cols = tuple(
                ("l", schema.index(v)) if v in schema else ("r", right_vars.index(v))
                for v in output
            )
            joins.append(
                JoinStep(
                    right=access,
                    join_vars=join_vars,
                    left_key=tuple(schema.index(v) for v in join_vars),
                    right_key=tuple(right_vars.index(v) for v in join_vars),
                    out_cols=out_cols,
                    output=output,
                )
            )
            schema = output

        missing = final_set - set(schema)
        if missing:  # cannot happen for safe rules
            raise InvariantError(f"schema lost variables {sorted(missing)} in rule '{rule}'")
        if schema != goal_schema:  # cannot happen either
            raise InvariantError(f"join schema {schema} differs from goal schema {goal_schema}")
    elif final_set:  # cannot happen: safety forces ground head and negatives
        raise InvariantError(f"rule '{rule}' has variables but no positive subgoal")

    anti_joins = []
    for access in negatives:
        key_vars = access.vars
        for name in key_vars:
            if name not in goal_schema:
                raise InvariantError(
                    f"anti-join variable {name} missing from schema in rule '{rule}'"
                )
        anti_joins.append(
            AntiJoinStep(
                access=access,
                key_vars=key_vars,
                pos_key=tuple(goal_schema.index(v) for v in key_vars),
            )
        )

    head_cols: list[HeadCol] = []
    for term in rule.head.args:
        if isinstance(term, Variable):
            head_cols.append(("v", goal_schema.index(term.name)))
        else:
            head_cols.append(("c", term.symbol))

    return RulePlan(
        rule=rule,
        base=base,
        base_cols=base_cols,
        base_schema=base_schema,
        joins=tuple(joins),
        goal_schema=goal_schema,
        anti_joins=tuple(anti_joins),
        head_cols=tuple(head_cols),
        index=index,
        component=component,
    )


def _components(rules: Iterable[Rule]) -> dict[str, int]:
    """Each head predicate's strongly connected component, numbered so that
    a component comes after every component its rules read (Tarjan's
    algorithm, without recursion)."""
    reads: dict[str, list[str]] = {}
    for rule in rules:
        reads.setdefault(rule.head.predicate, []).extend(lit.atom.predicate for lit in rule.body)
    order: dict[str, int] = {}  # visiting order
    low: dict[str, int] = {}
    stack: list[str] = []
    component: dict[str, int] = {}
    done = 0  # components numbered so far
    for root in reads:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        work = [(root, iter(reads[root]))]
        while work:
            node, body = work[-1]
            for child in body:
                if child not in reads:  # heads no rule: not in any component
                    continue
                if child not in order:
                    order[child] = low[child] = len(order)
                    stack.append(child)
                    work.append((child, iter(reads[child])))
                    break
                if child not in component:  # still on the stack
                    low[node] = min(low[node], order[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order[node]:
                    while True:
                        member = stack.pop()
                        component[member] = done
                        if member == node:
                            break
                    done += 1
    return component


def compile_program(program: Program) -> list[RulePlan]:
    """One plan per non-fact rule, tagged with its component; facts are
    loaded as base insertions."""
    rules = program.proper_rules()
    component = _components(rules)
    return [
        compile_rule(rule, index, component[rule.head.predicate])
        for index, rule in enumerate(rules)
    ]
