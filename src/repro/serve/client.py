"""A minimal blocking client for the solve service.

:class:`ServeClient` wraps :mod:`http.client` (stdlib, one connection
per call — the server closes connections after each response anyway).
It is what the tests and the CI ``serve-smoke`` job drive the server
with; it is *not* a supported public SDK, just enough client to
exercise every status the server emits.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPResponse
from typing import Any, Dict, Optional, Tuple

__all__ = ["ServeClient"]


class ServeClient:
    """Blocking JSON client: ``(status_code, body)`` per call."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------------

    def _request(
        self, verb: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any, Dict[str, str]]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(verb, path, body=body, headers=headers)
            response: HTTPResponse = conn.getresponse()
            raw = response.read()
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            content_type = response_headers.get("content-type", "")
            if "json" in content_type:
                decoded: Any = json.loads(raw.decode("utf-8"))
            else:
                decoded = raw.decode("utf-8")
            return response.status, decoded, response_headers
        finally:
            conn.close()

    # -- endpoints ---------------------------------------------------------------

    def solve(
        self,
        database: str,
        query: Optional[str] = None,
        *,
        timeout: Optional[float] = None,
        **options: Any,
    ) -> Tuple[int, Dict[str, Any]]:
        """POST ``/solve/<database>``; extra options pass through
        (``method=``, ``plan=``)."""
        payload: Dict[str, Any] = dict(options)
        if query is not None:
            payload["query"] = query
        if timeout is not None:
            payload["timeout"] = timeout
        status, body, _headers = self._request(
            "POST", f"/solve/{database}", payload
        )
        return status, body

    def solve_with_headers(
        self, database: str, **payload: Any
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Like :meth:`solve` but keeps response headers (Retry-After)."""
        return self._request("POST", f"/solve/{database}", payload)

    def get(self, path: str) -> Tuple[int, Any]:
        status, body, _headers = self._request("GET", path)
        return status, body

    def healthz(self) -> Tuple[int, Any]:
        return self.get("/healthz")

    def readyz(self) -> Tuple[int, Any]:
        return self.get("/readyz")

    def databases(self) -> Tuple[int, Any]:
        return self.get("/databases")

    def metrics(self) -> str:
        """The raw Prometheus exposition text from ``/metrics``."""
        status, body = self.get("/metrics")
        if status != 200:  # pragma: no cover - defensive
            raise RuntimeError(f"/metrics returned {status}")
        return body if isinstance(body, str) else json.dumps(body)
