"""File formats shared by the command line and the library.

Everything is JSON with a ``schema: 1`` tag and exact rationals as strings
("p/q" or "n").  Polynomial coefficients in files and on flags are written
leading coefficient first, constant term last (so "1,-1,-1" is the
Fibonacci recurrence polynomial); element coordinates are ascending in
the power basis.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .errors import MalformedInput, MalformedRational
from .numberfield import FieldElement, NumberField

SCHEMA = 1


def parse_rational(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        raise MalformedRational(f"floats are not exact: {s!r}; write a rational string")
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError):
        shown = repr(s)
        if len(shown) > 60:     # such as an integer past the digit limit
            shown = f"{shown[:40]}... ({len(str(s))} characters)"
        raise MalformedRational(f"not a rational number: {shown}") from None


def read_input(path: str, as_json: bool = False):
    """The text of an input file, or its JSON value."""
    try:
        with open(path) as fh:
            return json.load(fh) if as_json else fh.read()
    except (OSError, ValueError) as e:  # ValueError: not JSON, not text
        raise MalformedInput(f"cannot read {path}: {e}") from None


def _checked(d, what: str, keys: Optional[set] = None, required=(),
             arrays=()) -> dict:
    """d, if it is a JSON object holding every required key and, when keys
    are given, no other key, with a JSON array at each of the arrays keys
    it holds."""
    if not isinstance(d, dict) or set(required) - set(d):
        need = f" with the keys {list(required)}" if required else ""
        raise MalformedInput(f"{what} must be a JSON object{need}")
    if keys is not None and set(d) - keys:
        raise MalformedInput(f"unknown keys in {what}: {sorted(set(d) - keys)}")
    for key in arrays:
        if key in d and not isinstance(d[key], list):
            raise MalformedInput(f"{key!r} in {what} must be a JSON array")
    return d


def load_word(path: str) -> tuple:
    """The letters of a file of 0/1 digits; whitespace is ignored."""
    text = "".join(read_input(path).split())
    if set(text) - {"0", "1"}:
        raise MalformedInput(f"{path} holds a letter other than 0 and 1")
    return tuple(map(int, text))


def rat_str(q: Fraction) -> str:
    return str(q)


def parse_coeff_list(text: str) -> list:
    """Comma-separated rationals, leading coefficient first."""
    return [parse_rational(t) for t in str(text).split(",") if t.strip()]


def field_to_dict(f: NumberField) -> dict:
    return {
        "schema": SCHEMA,
        "minpoly": [rat_str(c) for c in reversed(f.minpoly_int)],
        "degree": f.degree,
        "signature": list(f.signature),
        "distinguished": f.distinguished,
    }


_FIELD_KEYS = {"schema", "minpoly", "distinguished", "degree", "signature"}


def field_from_dict(d: dict) -> NumberField:
    _checked(d, "field spec", _FIELD_KEYS, ("minpoly",), ("minpoly",))
    coeffs_desc = [parse_rational(c) for c in d["minpoly"]]
    sel = d.get("distinguished", "largest-real")
    kwargs = {}
    if isinstance(sel, int):
        kwargs["distinguished"] = sel
    elif sel not in (None, "largest-real"):
        raise MalformedInput(f"unknown distinguished-root selector {sel!r}")
    return NumberField(list(reversed(coeffs_desc)), **kwargs)


def load_field(path: str) -> NumberField:
    return field_from_dict(read_input(path, as_json=True))


def element_to_list(x: FieldElement) -> list:
    return [rat_str(c) for c in x.coords]


def element_from_list(f: NumberField, coords) -> FieldElement:
    return f.element([parse_rational(c) for c in coords])


def parse_element_text(f: NumberField, text: str) -> FieldElement:
    """Comma-separated coordinates, or a single rational."""
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) == 1 and f.degree > 1:
        return f.element(parse_rational(parts[0]))
    return element_from_list(f, parts)


def load_elements(path: str, f: NumberField) -> list:
    """One element per line: comma-separated coordinates or a rational.
    A JSON array of coordinate arrays is also accepted."""
    text = read_input(path)
    if text.lstrip().startswith("["):
        return [element_from_list(f, row) if isinstance(row, list)
                else f.element(parse_rational(row))
                for row in read_input(path, as_json=True)]
    lines = (line.strip() for line in text.splitlines())
    return [parse_element_text(f, line) for line in lines
            if line and not line.startswith("#")]


def env_from_dict(d: dict) -> dict:
    """Environment file: {"schema": 1, "field": {...}?, "vars": {name: spec}}
    where spec is {"rational": "p/q"} or {"coords": [...]} (needs the field)."""
    _checked(d, "environment", {"schema", "field", "vars"})
    f: Optional[NumberField] = None
    if d.get("field") is not None:
        f = field_from_dict(d["field"])
    env = {}
    for name, spec in _checked(d.get("vars", {}), "vars").items():
        if isinstance(spec, (str, int)):
            spec = {"rational": spec}
        if not isinstance(spec, dict) or not {"rational", "coords"} & set(spec):
            raise MalformedInput(f"variable {name!r} needs 'rational' or 'coords'")
        if "rational" in spec:
            env[name] = parse_rational(spec["rational"])
        elif f is None:
            raise MalformedInput(f"variable {name!r} has coordinates but no field")
        else:
            spec = _checked(spec, f"variable {name!r}", arrays=("coords",))
            env[name] = element_from_list(f, spec["coords"])
    return env


def load_env(path: str) -> dict:
    return env_from_dict(read_input(path, as_json=True))


def load_seq_spec(path: str) -> tuple:
    """{"schema": 1, "charpoly": [...desc...], "initial": [...]} -> (charpoly
    ascending, initial terms)."""
    d = _checked(read_input(path, as_json=True), "sequence spec",
                 {"schema", "charpoly", "initial"}, ("charpoly", "initial"),
                 ("charpoly", "initial"))
    cp = [parse_rational(c) for c in d["charpoly"]]
    init = [parse_rational(c) for c in d["initial"]]
    return list(reversed(cp)), init
