"""The fact-rules ``Database.load``, kept as the reference for loading
facts as rows.

:meth:`repro.core.database.Database.load` takes each one-line ground
fact straight from its lexeme as a row.  This is the path it replaced:
parse the text token by token into a program whose facts are rules, then
move every ground fact rule to the rows.  It is unchanged except that it
is a function of the database and that it parses through
:class:`repro.datalog.parser.Parser` with fact lexemes off, so no fact
skips the token path.  ``tests/test_fact_rows.py`` drives both over
fact-heavy text and requires the same rows, declarations, rules and
constraints, or the same error.  Not a test module, and imported by
nothing under ``src/``.
"""

from __future__ import annotations

from repro.core.database import Database
from repro.datalog.errors import ProgramError
from repro.datalog.parser import Parser


def load(db: Database, source: str) -> None:
    """Parse rule text and merge it into ``db``, facts as rules first."""
    parsed = Parser(
        source,
        lattices=db._lattices,
        aggregates=db._aggregates,
        name=db.name,
    ).parse_program()
    for decl in parsed.declarations.values():
        existing = db._declarations.get(decl.name)
        if existing is None:
            db._declarations[decl.name] = decl
        elif existing != decl:
            explicit_new = decl.is_cost_predicate
            explicit_old = existing.is_cost_predicate
            if explicit_new and explicit_old:
                raise ProgramError(f"conflicting declarations for {decl.name}")
            if explicit_new:
                db._declarations[decl.name] = decl
            elif not explicit_old and existing.arity != decl.arity:
                raise ProgramError(
                    f"{decl.name} used with arities {existing.arity} "
                    f"and {decl.arity}"
                )
    for rule in parsed.rules:
        if rule.is_fact and rule.head.is_ground():
            values = tuple(arg.value for arg in rule.head.args)  # type: ignore[union-attr]
            db._facts.append((rule.head.predicate, values))
        else:
            db.add_rule(rule)
    db._constraints.extend(parsed.constraints)
    db._program_cache = None
