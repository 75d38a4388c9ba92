"""Output checks: payload digests, JSON schemas and golden reports.

None of this runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_FILE = Path(__file__).resolve().parent / "expected_digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined_digest(parts) -> str:
    """One digest over an ordered list of per-output digests."""
    return sha256("\n".join(parts).encode("ascii"))


def load_expected() -> dict:
    """workload -> seed (as a string) -> combined digest, recorded earlier."""
    if not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


class SchemaChecker:
    """Validates CLI envelopes against ``docs/schemas/<command>.schema.json``."""

    def __init__(self, root: Path):
        import jsonschema

        self._validators = {}
        for path in sorted((root / "docs" / "schemas").glob("*.schema.json")):
            schema = json.loads(path.read_text(encoding="utf-8"))
            cls = jsonschema.validators.validator_for(schema)
            self._validators[path.name.split(".")[0]] = cls(schema)

    def errors(self, command: str, doc) -> list:
        """Schema violations of ``doc`` as strings; [] when it conforms."""
        validator = self._validators.get(command)
        if validator is None:
            return [f"no schema for '{command}'"]
        return [e.message for e in validator.iter_errors(doc)]
