"""Reference SimResult digests recorded from the classic engine."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PATH = Path(__file__).with_name("reference.json")
REGENERATE = "python3 perfbench/record_reference.py"


def digest(results) -> str:
    """sha256 of the canonical ``to_dict()`` of each result, with the
    engine's ``native_*`` bookkeeping extras stripped."""
    docs = []
    for res in results:
        doc = res.to_dict()
        doc["extra"] = {k: v for k, v in doc["extra"].items()
                        if not k.startswith("native_")}
        docs.append(doc)
    payload = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))
