"""Network JSON schema, loading, and deterministic serialization.

The on-disk format is::

    {
      "players": [ids],
      "cost": {"family": "power", "params": {"kappa": 1, "p": 2}},
      "battles": [
        {"id": "a", "participants": [ids], "prize": 5,
         "production": {"family": "power", "params": {"A": 1, "r": 1}}}
      ]
    }

Serialization sorts object keys so reports and fixtures are diffable;
battle order is preserved because it is part of the input's identity.
Schema violations are reported with JSON-pointer paths.
"""

from __future__ import annotations

import json
from typing import Any

import jsonschema

from .functions import cost_from_spec, production_from_spec
from .network import Battle, ConflictNetwork

__all__ = [
    "NETWORK_SCHEMA",
    "SchemaViolation",
    "network_from_dict",
    "network_to_dict",
    "load_network",
    "dump_network",
    "dumps_sorted",
    "reject_nonfinite_constant",
]

_FUNCTION_SPEC = {
    "type": "object",
    "required": ["family", "params"],
    "additionalProperties": False,
    "properties": {
        "family": {"type": "string"},
        "params": {"type": "object"},
    },
}

NETWORK_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["players", "cost", "battles"],
    "additionalProperties": False,
    "properties": {
        "players": {
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"type": ["string", "integer"]},
        },
        "cost": _FUNCTION_SPEC,
        "battles": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "participants", "prize", "production"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "participants": {
                        "type": "array",
                        "minItems": 2,
                        "uniqueItems": True,
                        "items": {"type": ["string", "integer"]},
                    },
                    "prize": {"type": "number", "exclusiveMinimum": 0},
                    "production": _FUNCTION_SPEC,
                },
            },
        },
    },
}


class SchemaViolation(ValueError):
    """Input document does not match the network schema."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"at {pointer}: {message}")


def _pointer(path) -> str:
    return "/" + "/".join(str(part) for part in path) if path else "/"


def network_from_dict(doc: dict) -> ConflictNetwork:
    """Validate a document against the schema and build the network."""
    validator = jsonschema.Draft202012Validator(NETWORK_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        raise SchemaViolation(_pointer(first.absolute_path), first.message)

    try:
        cost = cost_from_spec(doc["cost"])
    except ValueError as exc:
        raise SchemaViolation("/cost", str(exc)) from exc

    battles = []
    for i, spec in enumerate(doc["battles"]):
        try:
            production = production_from_spec(spec["production"])
        except ValueError as exc:
            raise SchemaViolation(f"/battles/{i}/production", str(exc)) from exc
        try:
            battles.append(
                Battle(
                    id=spec["id"],
                    participants=tuple(spec["participants"]),
                    prize=float(spec["prize"]),
                    production=production,
                )
            )
        except ValueError as exc:
            raise SchemaViolation(f"/battles/{i}", str(exc)) from exc

    try:
        return ConflictNetwork(
            players=tuple(doc["players"]), battles=tuple(battles), cost=cost
        )
    except ValueError as exc:
        raise SchemaViolation("/", str(exc)) from exc


def network_to_dict(network: ConflictNetwork) -> dict:
    return {
        "players": list(network.players),
        "cost": network.cost.to_spec(),
        "battles": [
            {
                "id": b.id,
                "participants": list(b.participants),
                "prize": b.prize,
                "production": b.production.to_spec(),
            }
            for b in network.battles
        ],
    }


def dumps_sorted(payload) -> str:
    """Deterministic JSON text: sorted keys, no trailing whitespace drift."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reject_nonfinite_constant(token: str):
    """``json.load`` hook refusing ``NaN`` and ``Infinity``, which JSON itself lacks."""
    raise SchemaViolation("/", f"non-finite number {token} is not allowed")


def load_network(path) -> ConflictNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=reject_nonfinite_constant)
    if not isinstance(doc, dict):
        raise SchemaViolation("/", "top-level JSON value must be an object")
    return network_from_dict(doc)


def dump_network(network: ConflictNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_sorted(network_to_dict(network)))
