"""Query plans and the SQL normalisation that keys the plan cache.

A :class:`QueryPlan` bundles everything about a query that does not depend
on the data being current: the parsed (entity-retargeted) statement, the
subjective predicate texts, and their interpretations.  Plans are cached
under :func:`normalize_sql` keys so textual variants of the same query
("SELECT * FROM Entities ..." vs "select  *  from entities ...") share one
plan; the data-dependent parts (candidate rows, membership degrees) are
recomputed or served from the candidate and membership caches per
execution.  The candidate cache's key, :func:`candidate_key`, is derived
here too: it is a function of the parsed statement alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.interpreter import Interpretation
from repro.engine.executor import SelectStatement
from repro.engine.expressions import (
    AndExpression,
    Expression,
    NotExpression,
    OrExpression,
    SubjectivePredicate,
)
from repro.engine.sqlparser import _KEYWORDS

_QUOTES = ("'", '"')


def normalize_sql(sql: str) -> str:
    """Canonical cache key for a subjective-SQL string.

    Collapses runs of whitespace to single spaces and lowercases SQL
    *keywords* (which the parser treats case-insensitively), so formatting
    and keyword-casing variants map to the same plan.  Identifiers keep
    their case — column resolution is case-sensitive, so ``City`` and
    ``city`` are different queries and must not share a plan.  Quoted
    regions — string literals *and* subjective predicates, which are
    double-quoted natural language — are preserved byte-for-byte because
    predicate interpretation is case- and wording-sensitive.
    """
    out: list[str] = []
    word: list[str] = []
    quote: str | None = None
    pending_space = False

    def flush_word() -> None:
        """Emit the pending token, lowercased when it is a SQL keyword."""
        if word:
            token = "".join(word)
            out.append(token.lower() if token.lower() in _KEYWORDS else token)
            word.clear()

    for char in sql:
        if quote is not None:
            out.append(char)
            if char == quote:
                quote = None
            continue
        if char in _QUOTES:
            flush_word()
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(char)
            quote = char
            continue
        if char.isspace():
            flush_word()
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        if char.isalnum() or char == "_":
            word.append(char)
        else:
            flush_word()
            out.append(char)
    flush_word()
    return "".join(out)


_BLANK_PREDICATE = SubjectivePredicate("")


def _blank_subjective(node: Expression | None) -> Expression | None:
    """``node`` with every subjective predicate's text blanked."""
    if isinstance(node, SubjectivePredicate):
        return _BLANK_PREDICATE
    if isinstance(node, (AndExpression, OrExpression)):
        return type(node)(tuple(_blank_subjective(operand) for operand in node.operands))
    if isinstance(node, NotExpression):
        return NotExpression(_blank_subjective(node.operand))
    return node


def candidate_key(statement: SelectStatement) -> Hashable:
    """Cache key of a statement's objective candidate rows.

    :meth:`repro.engine.executor.QueryExecutor.candidate_rows` reads the
    table, alias, join and the *objective* leaves of the WHERE clause only —
    a subjective predicate evaluates to ``True`` whatever its text — so the
    key is the statement's objective skeleton: queries that differ only in
    their phrases share one candidate set, queries that differ in a literal,
    an operator, the alias or the join do not.  Expression nodes are frozen
    dataclasses, so the blanked tree compares and hashes structurally.
    """
    return (
        statement.table,
        statement.alias,
        statement.join,
        _blank_subjective(statement.where),
    )


def join_free(key: Hashable) -> bool:
    """Whether the :func:`candidate_key` ``key`` is a statement's without a join.

    Such a statement's candidate rows come from the entities table alone,
    which the journaled ingests (``add_review``, ``store_summary``) never
    write, so its cached rows outlive them.  A join may read ``reviews`` or
    a summary relation.
    """
    return key[2] is None


@dataclass(frozen=True)
class QueryPlan:
    """A cached, reusable execution plan for one normalised query.

    ``data_version`` records the database state the interpretations were
    computed against; the serving engine drops plans wholesale when the
    version moves (interpretations read linguistic domains, review indexes
    and extraction statistics, all of which ingest can change).
    ``candidate_key`` is :func:`candidate_key` of the statement, computed
    once when the plan is built (the plan cache hits far more often than
    plans are built).
    """

    normalized_sql: str
    statement: SelectStatement
    interpretations: dict[str, Interpretation]
    data_version: int
    candidate_key: Hashable

    @property
    def predicates(self) -> tuple[str, ...]:
        """The subjective predicate texts of the plan, in statement order."""
        return tuple(self.interpretations)
