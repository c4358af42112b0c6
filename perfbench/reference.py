"""Reference bodies for the served-body check.

    python reference.py < URLS.json > HASHES.json

Builds a fresh in-process ``CorridorQueryService`` with every concrete
scenario loaded, then reads one JSON list of URLs from stdin and writes
one JSON object mapping each URL to ``[status, sha256-hex]`` of what
``handle_http(url)`` returns for it.  The benchmark starts it during
set-up, so the build overlaps the server's, and sends the URLs after the
timed window.  Run it with the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import sys

from plan import CONCRETE_SCENARIOS


def main() -> int:
    from repro.serve import CorridorQueryService

    service = CorridorQueryService()
    for name in CONCRETE_SCENARIOS:
        service.handle_http(f"/rankings?scenario={name}")
    urls = json.load(sys.stdin)
    result = {}
    for url in urls:
        status, body = service.handle_http(url)
        result[url] = [status, hashlib.sha256(body).hexdigest()]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
