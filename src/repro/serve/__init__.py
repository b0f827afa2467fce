"""``repro.serve`` — the resilient long-lived solve service.

A stdlib-only asyncio HTTP/JSON server hosting named databases
(``repro serve``, see docs/SERVING.md):

* :mod:`repro.serve.hosting` — :class:`HostedDatabase`, a named
  database with its program and EDB materialized once and every request
  solving over a read snapshot;
* :mod:`repro.serve.supervise` — :class:`RequestSupervisor`, which runs
  each query in a worker thread under its own
  :class:`~repro.engine.supervisor.Budget` /
  :class:`~repro.engine.supervisor.CancelToken`, maps the exit-code
  taxonomy of docs/ROBUSTNESS.md onto HTTP statuses, and answers a
  repeated request from its byte-bounded cache of encoded 200 answers;
* :mod:`repro.serve.server` — :class:`SolveServer`, the asyncio
  listener with admission control (bounded in-flight solves + queue,
  load shedding past the bound), ``/healthz`` / ``/readyz`` /
  ``/metrics`` endpoints and SIGTERM drain-and-checkpoint;
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  ``http.client`` wrapper the tests and the CI smoke job drive the
  server with.
"""

from repro.serve.client import ServeClient
from repro.serve.hosting import HostedDatabase, host_program_text
from repro.serve.server import ServerThread, ServeSettings, SolveServer
from repro.serve.supervise import RequestOutcome, RequestSupervisor

__all__ = [
    "HostedDatabase",
    "host_program_text",
    "RequestOutcome",
    "RequestSupervisor",
    "ServeClient",
    "ServeSettings",
    "ServerThread",
    "SolveServer",
]
