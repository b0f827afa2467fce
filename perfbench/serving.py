"""The serve workloads: a real ``python -m repro serve`` subprocess under
a closed-loop load.

**Load model.**  Closed loop: each client is a thread of this process
that opens a new connection per request (the server answers
``Connection: close``) and sends its next request only after the
previous response was read, so a slow server receives less load.  The
end-to-end metrics come from **one** client: ``op_p50_ms`` is then what
one request costs and ``ops_per_s`` what one caller gets, not a capacity
limit.  The traced pass adds a load of 2 clients (= ``nproc``) and
reports it as the ``serve.c2_*`` per-layer metrics, which have no bound:
over forty-seven 5 s windows of one unchanged server, the 2-client
median latency had an interquartile spread of 16% (range 53-88 ms) that
no calibration kernel, idle or run on both cores, followed, while the
1-client latency calibrated as below had 2.9%.

Clients send ``GROUP`` requests, pause for one run of the calibration
kernel (which so times an idle host), and go on; each request's latency
is scaled by the kernel times around its group.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, List, Optional, Tuple

import gen
from measure import Calibrator
from workloads import Inputs, SolveWorkload

#: Requests each client sends between two runs of the calibration kernel.
GROUP = 8
#: Nodes of every served digraph: one request is a ~10 ms solve, so the
#: load measures the serving path and not one big fixpoint.
GRAPH_NODES = 16


@dataclass
class Sample:
    database: str
    status: int
    body: Any
    wall: float
    norm: float = 0.0


class Server:
    """The server subprocess; stopped and reaped by :meth:`stop`."""

    def __init__(self, files: Dict[str, str], out_dir: str, src_dir: str) -> None:
        self.files = files
        self.out_dir = out_dir
        self.src_dir = src_dir
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and wait until ``/readyz`` answers 200."""
        port_file = os.path.join(self.out_dir, "serve.port")
        if os.path.exists(port_file):
            os.remove(port_file)
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        argv = [sys.executable, "-m", "repro", "serve"]
        argv += [f"{name}={path}" for name, path in self.files.items()]
        argv += [
            "--port", "0", "--port-file", port_file,
            "--flight-dir", self.out_dir, "--checkpoint-dir", self.out_dir,
        ]  # fmt: skip
        self.process = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} at start"
                )
            try:
                with open(port_file, encoding="utf-8") as handle:
                    self.port = int(handle.read())
                if get(self.port, "/readyz")[0] == 200:
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server not ready in time")

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


def get(port: int, path: str) -> Tuple[int, str]:
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def post_solve(port: int, database: str, query: str) -> Tuple[int, Any]:
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST",
            f"/solve/{database}",
            body=json.dumps({"query": query}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, None
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    """``/metrics`` as ``{exposition name: value}`` (unlabelled lines)."""
    out: Dict[str, float] = {}
    for line in get(port, "/metrics")[1].splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def closed_loop(
    port: int,
    targets: List[Iterator[str]],
    cal: Calibrator,
    *,
    seconds: Optional[float] = None,
    per_client: Optional[int] = None,
) -> Tuple[List[Sample], float]:
    """Drive one client thread per iterator of database names until
    ``seconds`` have passed, ``per_client`` requests were sent by each,
    or the names run out.  Returns ``(samples, calibrated load wall)``.
    """
    samples: List[Sample] = []
    load_norm = 0.0
    deadline = None if seconds is None else time.perf_counter() + seconds
    left = [per_client] * len(targets)

    def client(index: int, sink: List[Sample]) -> None:
        for _ in range(GROUP if left[index] is None else min(GROUP, left[index])):
            name = next(targets[index], None)
            if name is None:
                left[index] = 0
                return
            t0 = time.perf_counter()
            try:
                status, body = post_solve(port, name, "s")
            except OSError as exc:
                status, body = 0, str(exc)
            sink.append(Sample(name, status, body, time.perf_counter() - t0))
            if left[index] is not None:
                left[index] -= 1

    while any(n != 0 for n in left) and (
        deadline is None or time.perf_counter() < deadline
    ):
        before = cal.samples[-1]
        sinks: List[List[Sample]] = [[] for _ in targets]
        threads = [
            threading.Thread(target=client, args=(i, sinks[i]))
            for i in range(len(targets))
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        scale = cal.scale(before, cal.sample())
        load_norm += wall * scale
        for sink in sinks:
            for sample in sink:
                sample.norm = sample.wall * scale
                samples.append(sample)
    return samples, load_norm


# -- the two serve workloads ----------------------------------------------------------


@dataclass
class ServeWorkload:
    name: str
    #: Distinct databases the measured load draws from (each requested
    #: once when > 1, the same one every time when 1).
    databases: int
    smoke_databases: int
    files: Dict[str, str] = None  # type: ignore[assignment]
    expected: Dict[str, Dict[Tuple[int, int], float]] = None  # type: ignore[assignment]
    #: ``db0`` as an in-process solve workload: the same program text the
    #: server hosts, for the memory pass and the per-layer numbers.
    local: SolveWorkload = None  # type: ignore[assignment]
    _graphs: Dict[str, List[gen.Arc]] = None  # type: ignore[assignment]

    def generate(self, seed: int, out_dir: str, smoke: bool) -> None:
        """Write one rule file per hosted database: the shortest-path
        program with a seeded 16-node digraph as inline facts.  ``warm``
        takes the warm-up requests so that they touch no measured one."""
        rng = random.Random(seed)
        count = self.smoke_databases if smoke else self.databases
        self.files, self._graphs = {}, {}
        for name in ["warm"] + [f"db{i}" for i in range(count)]:
            arcs = gen.regular_digraph(rng, GRAPH_NODES)
            path = os.path.join(out_dir, f"{self.name}.{name}.mad")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(gen.SHORTEST_PATH + gen.fact_text("arc", arcs))
            self.files[name] = path
            self._graphs[name] = arcs
        db0 = self._graphs["db0"]
        self.local = SolveWorkload(self.name, {"method": "auto"})
        self.local.inputs = Inputs(
            text=gen.SHORTEST_PATH + gen.fact_text("arc", db0),
            queries=("s",),
            oracle=lambda: {"s": gen.shortest_distances(db0)},
        )

    def compute_oracle(self) -> None:
        self.expected = {
            name: gen.shortest_distances(arcs)
            for name, arcs in self._graphs.items()
        }
        self.local.compute_oracle()

    def targets(self, clients: int) -> List[Iterator[str]]:
        """One iterator of database names per client."""
        names = [name for name in self.files if name != "warm"]
        if len(names) == 1:
            return [iter(lambda: names[0], None) for _ in range(clients)]
        return [iter(names[i::clients]) for i in range(clients)]

    def ok(self, sample: Sample) -> bool:
        """A 200 ``complete`` response whose rows are the oracle's."""
        body = sample.body
        if sample.status != 200 or not isinstance(body, dict):
            return False
        if body.get("status") != "complete":
            return False
        got = {(x, y): c for x, y, c in body.get("rows", [])}
        return got == self.expected[sample.database]


def serve_workloads() -> Dict[str, ServeWorkload]:
    return {
        "serve_repeat": ServeWorkload("serve_repeat", 1, 1),
        "serve_cold": ServeWorkload("serve_cold", 400, 12),
    }
