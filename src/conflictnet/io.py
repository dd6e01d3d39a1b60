"""Network JSON loading and deterministic serialization.

The on-disk format is::

    {
      "players": [ids],
      "cost": {"family": "power", "params": {"kappa": 1, "p": 2}},
      "battles": [
        {"id": "a", "participants": [ids], "prize": 5,
         "production": {"family": "power", "params": {"A": 1, "r": 1}}}
      ]
    }

Loading checks only the document's shape: objects carry exactly their keys,
ids are strings or integers, no two player ids print alike (``1`` and
``"1"``), battle ids are strings, and prizes and parameters are JSON
numbers.  Every rule on values (positive finite prizes, distinct
participants, known players, parameter domains) belongs to the constructor
that builds the part, as in every reader of specs.  Both kinds of failure
raise `SchemaViolation` at the JSON pointer of the part that broke the rule.

Serialization sorts object keys so reports and fixtures are diffable;
battle order is preserved because it is part of the input's identity.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from .functions import cost_from_spec, production_from_spec
from .network import Battle, ConflictNetwork

__all__ = [
    "SchemaViolation",
    "network_from_dict",
    "network_to_dict",
    "load_network",
    "dump_network",
    "dumps_sorted",
    "reject_nonfinite_constant",
]


class SchemaViolation(ValueError):
    """Input document does not describe a valid network."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"at {self.pointer}: {message}")


# Pointers below are built by appending "/part"; the document root is "".

def _object(value, keys: tuple[str, ...], at: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolation(at, f"expected an object with keys {list(keys)}")
    if value.keys() != set(keys):
        missing = [k for k in keys if k not in value]
        extra = [k for k in value if k not in keys]
        raise SchemaViolation(at, f"missing keys {missing}, unexpected keys {extra}")
    return value


def _ids(value, at: str) -> tuple:
    if not isinstance(value, list):
        raise SchemaViolation(at, "expected a list of player ids")
    for i, pid in enumerate(value):
        if type(pid) is int or type(pid) is str:  # the common ids, checked first
            continue
        # A float such as 1.0 is a JSON integer too.
        integral = isinstance(pid, int) or isinstance(pid, float) and pid.is_integer()
        if not isinstance(pid, str) and (isinstance(pid, bool) or not integral):
            raise SchemaViolation(f"{at}/{i}", f"expected a string or integer id, got {pid!r}")
    return tuple(value)


def _number(value, at: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(at, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaViolation(at, "number is too large for a float") from None


def _function_spec(value, at: str) -> dict:
    spec = _object(value, ("family", "params"), at)
    if not isinstance(spec["family"], str):
        raise SchemaViolation(f"{at}/family", "expected a string")
    if not isinstance(spec["params"], dict):
        raise SchemaViolation(f"{at}/params", "expected an object")
    params = {k: _number(v, f"{at}/params/{k}") for k, v in spec["params"].items()}
    return {"family": spec["family"], "params": params}


def _build(at: str, constructor, *args):
    """Call a constructor and re-raise its ValueError at the part it rejects."""
    try:
        return constructor(*args)
    except ValueError as exc:
        field = getattr(exc, "field", None)
        raise SchemaViolation(f"{at}/{field}" if field else at, str(exc)) from exc


def network_from_dict(doc: dict) -> ConflictNetwork:
    """Check the document's shape and build the network.

    Every battle's shape is checked at its own pointer, but each distinct
    production spec is built once: battles with equal specs share one
    instance, as the built-in examples' battles do.  Productions are frozen,
    so sharing changes no result.
    """
    _object(doc, ("players", "cost", "battles"), "")
    players = _ids(doc["players"], "/players")
    # Reports key players by str(id), so two ids must not share a text.
    # Equal ids are left to the constructor's duplicate check.
    first: dict = {}
    for i, pid in enumerate(players):
        other = first.setdefault(str(pid), pid)
        if other != pid:
            raise SchemaViolation(
                f"/players/{i}", f"id {pid!r} has the same text as id {other!r}"
            )
    cost = _build("/cost", cost_from_spec, _function_spec(doc["cost"], "/cost"))
    if not isinstance(doc["battles"], list):
        raise SchemaViolation("/battles", "expected a list of battles")
    battles = []
    productions: dict = {}
    for i, spec in enumerate(doc["battles"]):
        at = f"/battles/{i}"
        _object(spec, ("id", "participants", "prize", "production"), at)
        if not isinstance(spec["id"], str):
            raise SchemaViolation(f"{at}/id", "expected a string")
        participants = _ids(spec["participants"], f"{at}/participants")
        prize = _number(spec["prize"], f"{at}/prize")
        production_spec = _function_spec(spec["production"], f"{at}/production")
        key = (production_spec["family"], frozenset(production_spec["params"].items()))
        production = productions.get(key)
        if production is None:
            production = productions[key] = _build(
                f"{at}/production", production_from_spec, production_spec
            )
        battles.append(_build(at, Battle, spec["id"], participants, prize, production))
    return _build("", ConflictNetwork, players, tuple(battles), cost)


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
    """Deterministic JSON text: ``json.dumps(payload, sort_keys=True,
    indent=2)`` and a final newline.

    One recursive pass writes that text: with ``indent`` set, ``json.dumps``
    takes its pure-Python encoder, whose generator per container made a
    report's rendering cost about as much as solving both regimes.
    """
    out: list[str] = []
    _write_json(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(value, out: list[str], newline: str) -> None:
    """Append ``value``'s JSON text to ``out``, ``newline`` being the line
    break and indent of the lines that hold ``value``, as ``json`` does."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            opening, closing = "{", "}"
            for key, item in sorted(value.items()):
                out.append(opening + inner + encode_basestring_ascii(_json_key(key)) + ": ")
                _write_json(item, out, inner)
                opening = ","
        else:
            opening, closing = "[", "]"
            for item in value:
                out.append(opening + inner)
                _write_json(item, out, inner)
                opening = ","
        out.append(newline + closing)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    """An object key's text, as ``json`` converts a key that is not a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is None or key is True or key is False:
        return _JSON_CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def reject_nonfinite_constant(token: str):
    """``json.load`` hook refusing ``NaN`` and ``Infinity``, which JSON itself lacks."""
    raise SchemaViolation("/", f"non-finite number {token} is not allowed")


def load_network(path) -> ConflictNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=reject_nonfinite_constant)
    return network_from_dict(doc)


def dump_network(network: ConflictNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_sorted(network_to_dict(network)))
