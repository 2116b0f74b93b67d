"""U steps that count rule instances (Gupta, Mumick and Subrahmanian, SIGMOD
1993), for a component whose rules read neither its own predicates
positively nor undefined atoms. A live instance of a possible atom has a
possible negative atom, or K1 would have made its head true, so U1 runs the
seed variants on the possible delta; each later U step runs them on what
the K step before added, and the atoms whose instances they all kill are
the next K step's D."""
from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Optional, Sequence

from .operators import head_picker
from .planner import RulePlan
from .program import InvariantError
from .store import Database, DatabaseView


class DerivationCounts:
    """A counted component's possible delta, each atom with one live rule
    instance or ``extra[predicate][row]``; ``extra`` is None until counted."""

    def __init__(self, possible: Database):
        self.possible = possible
        self.extra: Optional[dict[str, dict[tuple, int]]] = None

    def count(self) -> int:  # the live-set ledger's measure
        return self.possible.count() + sum(map(len, (self.extra or {}).values()))


def count_instances(
    session, plans: Sequence[RulePlan], known: Database, grown: Database,
    counts: DerivationCounts, label: str,
) -> Database:
    """A counted U step of a :class:`~wfsmr.fixpoint.Session`, in place on
    ``counts``: ``grown`` is what the last K step added to ``known``.
    Returns D, the atoms whose count reached 0."""
    from .fixpoint import _record_step, eval_rule  # by name: the benchmark wraps them there
    jobs_before = len(session.engine.stats_log)
    first = counts.extra is None
    if first:  # the atoms of grown are true: they need no count
        counts.possible.difference_update(grown)
    # a first count seeds the possible atoms under the whole true set, a
    # decrement grown under the true set from before it
    delta = counts.possible if first else grown
    neg = DatabaseView(session.fixed, known, grown) if first else DatabaseView(session.fixed, known)
    truth = (known, grown, *session.fixed.parts)  # heads that need no count
    extra = counts.extra = counts.extra or {}
    out = Database()  # the first count's live atoms, else D
    for plan in plans:
        predicate, width = plan.head_predicate, len(plan.goal_schema)
        goal = tuple(("v", g) for g in range(width))  # the seeds yield goal rows, not heads
        seeds = [replace(s, head_cols=goal) for s in plan.seeds if delta.relation(s.delta.atom.predicate)]
        found = [eval_rule(session.engine, s, session.fixed, neg, delta, session.cache) for s in seeds]
        # each instance once
        rows = found[0] if len(found) == 1 else dict.fromkeys(chain.from_iterable(found))
        session.stats.derived_facts += len(rows)
        head = head_picker(plan, range(width), width)
        for db in (counts.possible, out):
            db.add_rows(predicate, plan.head_arity, {})
        held, into = counts.possible.relation(predicate).tuples, out.relation(predicate).tuples
        more = extra.setdefault(predicate, {})
        for atom in map(head, rows):
            if first:  # each possible atom's live instances
                if atom in into:
                    more[atom] = more.get(atom, 1) + 1
                elif atom in held:
                    into[atom] = None
                elif not any(part.contains(predicate, atom) for part in truth):
                    raise InvariantError(f"{label}: possible set grew")
                continue
            n = more.pop(atom, 1)  # an instance the atoms of grown killed
            if n > 2:
                more[atom] = n - 1
            elif n == 1 and atom in held:
                del held[atom]
                into[atom] = None
            elif n == 1 and not any(part.contains(predicate, atom) for part in truth):
                raise InvariantError(f"{label}: derivation count below zero")
        del found, rows  # before the next rule's jobs run
    if first:  # the atoms left without an instance are D
        counts.possible.difference_update(out)
        counts.possible, out = out, counts.possible
    if not out.isdisjoint(grown):
        raise InvariantError(f"{label}: a true atom left the possible set")
    counts.possible.difference_update(grown)
    for p in grown.predicates():  # drop the counts of the atoms that became true
        extra[p] = {atom: n for atom, n in extra[p].items() if not grown.contains(p, atom)}
    _record_step(session, label, 0, 1, jobs_before)
    return out
