"""``repro repl``: a line-oriented shell over :class:`Database`.

Designed to be *pipeable* — ``repro repl < script.repl`` behaves exactly
like typing the script, with the prompt suppressed when stdin is not a
terminal — so the same surface serves interactive exploration and CI
smoke jobs (see .github/workflows/ci.yml).

Input is interpreted line by line:

* **Rule text.**  Anything not starting with ``.`` accumulates until a
  line ends with ``.`` and is then fed to :meth:`Database.load` — rules,
  declarations and ground facts work exactly as in a ``.mad`` file.
* **Dot commands.**  ``.load FILE`` (rule file), ``.csv PRED FILE``
  (bulk CSV facts), ``.jsonl FILE`` (bulk JSONL facts), ``.solve``
  (compute the model, print one summary line), ``.query PRED`` (rows of
  one predicate from the last solve), ``.method [NAME]`` (show or set
  the evaluator: a :class:`~repro.engine.options.SolveOptions`
  ``method``), ``.help``, ``.quit``.

Errors never kill the shell: they print as one ``error:`` line on the
output stream and the loop continues, so a broken line in a piped
script leaves a visible trace instead of a half-dead session.
"""

from __future__ import annotations

import sys
from typing import IO, List, Optional

from repro.core.database import Database
from repro.datalog.errors import ReproError
from repro.engine.options import CHOICES, SolveOptions

_HELP = """\
rule text        load rules/facts (multi-line; a line ending in '.' submits)
.load FILE       load a rule file
.csv PRED FILE   bulk-load CSV facts for PRED (docs/STORAGE.md)
.jsonl FILE      bulk-load JSONL facts ({"predicate": ..., "row": [...]})
.solve           compute the model; prints 'model: N atoms ...'
.query PRED      print PRED's rows from the last solve
.method [NAME]   show or set the evaluator (%s)
.help            this text
.quit            leave""" % "|".join(CHOICES["method"])


class Repl:
    """One shell session; see the module docstring for the grammar."""

    def __init__(
        self,
        db: Optional[Database] = None,
        *,
        method: str = "auto",
        input_stream: Optional[IO[str]] = None,
        output_stream: Optional[IO[str]] = None,
        interactive: Optional[bool] = None,
    ) -> None:
        self.db = db if db is not None else Database(name="repl")
        self.method = method
        self.input = input_stream if input_stream is not None else sys.stdin
        self.output = (
            output_stream if output_stream is not None else sys.stdout
        )
        if interactive is None:
            interactive = bool(getattr(self.input, "isatty", lambda: False)())
        self.interactive = interactive
        self._buffer: List[str] = []

    # -- plumbing ----------------------------------------------------------

    def _print(self, text: str) -> None:
        self.output.write(text + "\n")
        self.output.flush()

    def _prompt(self) -> None:
        if self.interactive:
            self.output.write("...> " if self._buffer else "mad> ")
            self.output.flush()

    # -- the loop ----------------------------------------------------------

    def run(self) -> int:
        if self.interactive:
            self._print(
                "repro repl — rule text loads, .help lists commands, "
                ".quit leaves"
            )
        self._prompt()
        for raw in self.input:
            try:
                if not self.handle_line(raw):
                    return 0
            except ReproError as error:
                self._buffer.clear()
                self._print(f"error: {error}")
            except OSError as error:
                self._buffer.clear()
                self._print(f"error: {error}")
            self._prompt()
        try:
            self._flush_rules()
        except ReproError as error:
            self._print(f"error: {error}")
        return 0

    def handle_line(self, raw: str) -> bool:
        """One input line; False means quit."""
        line = raw.strip()
        if line.startswith(".") and not self._buffer:
            return self._command(line)
        if not line or line.startswith("%"):
            return True
        self._buffer.append(raw.rstrip("\n"))
        if line.endswith("."):
            self._flush_rules()
        return True

    def _flush_rules(self) -> None:
        if not self._buffer:
            return
        text = "\n".join(self._buffer)
        self._buffer.clear()
        self.db.load(text)

    # -- commands ----------------------------------------------------------

    def _command(self, line: str) -> bool:
        parts = line.split()
        name, args = parts[0], parts[1:]
        if name in (".quit", ".exit"):
            return False
        if name == ".help":
            self._print(_HELP)
        elif name == ".load":
            self._one_arg(name, args, "FILE")
            with open(args[0], encoding="utf-8") as handle:
                self.db.load(handle.read())
            self._print(f"loaded {args[0]}")
        elif name == ".csv":
            if len(args) != 2:
                raise ReproError(f"usage: .csv PRED FILE, got {line!r}")
            report = self.db.load_csv(args[0], args[1])
            self._print(
                f"attached {args[1]}: {report.rows.get(args[0], 0)} "
                f"{args[0]} rows"
            )
        elif name == ".jsonl":
            self._one_arg(name, args, "FILE")
            report = self.db.load_jsonl(args[0])
            loaded = ", ".join(
                f"{count} {predicate}"
                for predicate, count in sorted(report.rows.items())
            )
            self._print(f"attached {args[0]}: {loaded or 'no rows'}")
        elif name == ".solve":
            if args:
                raise ReproError(f"usage: .solve, got {line!r}")
            result = self.db.solve(
                method=self.method,  # type: ignore[arg-type]
            )
            self._print(
                f"model: {result.model.total_size()} atoms in "
                f"{len(result.components)} components "
                f"({result.total_iterations} iterations)"
            )
        elif name == ".query":
            self._one_arg(name, args, "PRED")
            if self.db.last_result is None:
                raise ReproError("no model computed yet; run .solve first")
            rel = self.db.last_result.model.relation(args[0])
            for row in sorted(rel.rows(), key=repr):
                rendered = ", ".join(map(repr, row))
                self._print(f"{args[0]}({rendered})")
            self._print(f"% {len(rel)} rows")
        elif name == ".method":
            self._method(args)
        else:
            raise ReproError(f"unknown command {name!r}; try .help")
        return True

    def _one_arg(self, name: str, args: List[str], what: str) -> None:
        if len(args) != 1:
            raise ReproError(f"usage: {name} {what}")

    def _method(self, args: List[str]) -> None:
        if not args:
            self._print(f"method = {self.method}")
            return
        self._one_arg(".method", args, "[NAME]")
        self.method = SolveOptions(method=args[0]).method
        self._print(f"method = {args[0]}")


def run_repl(
    db: Optional[Database] = None,
    *,
    method: str = "auto",
    input_stream: Optional[IO[str]] = None,
    output_stream: Optional[IO[str]] = None,
) -> int:
    """Run a shell to EOF / ``.quit``; returns the process exit code."""
    return Repl(
        db,
        method=method,
        input_stream=input_stream,
        output_stream=output_stream,
    ).run()
