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

from .errors import MalformedRational
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
    unknown = set(d) - _FIELD_KEYS
    if unknown:
        raise ValueError(f"unknown keys in field spec: {sorted(unknown)}")
    coeffs_desc = [parse_rational(c) for c in d["minpoly"]]
    sel = d.get("distinguished", "largest-real")
    kwargs = {}
    if isinstance(sel, int):
        kwargs["distinguished"] = sel
    elif sel not in (None, "largest-real"):
        raise ValueError(f"unknown distinguished-root selector {sel!r}")
    return NumberField(list(reversed(coeffs_desc)), **kwargs)


def load_field(path: str) -> NumberField:
    with open(path) as fh:
        return field_from_dict(json.load(fh))


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
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        data = json.loads(text)
        return [element_from_list(f, row) if isinstance(row, list)
                else f.element(parse_rational(row)) for row in data]
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(parse_element_text(f, line))
    return out


def env_from_dict(d: dict) -> dict:
    """Environment file: {"schema": 1, "field": {...}?, "vars": {name: spec}}
    where spec is {"rational": "p/q"} or {"coords": [...]} (needs the field)."""
    unknown = set(d) - {"schema", "field", "vars"}
    if unknown:
        raise ValueError(f"unknown keys in environment: {sorted(unknown)}")
    f: Optional[NumberField] = None
    if d.get("field") is not None:
        f = field_from_dict(d["field"])
    env = {}
    for name, spec in d.get("vars", {}).items():
        if isinstance(spec, (str, int)):
            env[name] = parse_rational(spec)
        elif "rational" in spec:
            env[name] = parse_rational(spec["rational"])
        elif "coords" in spec:
            if f is None:
                raise ValueError(f"variable {name!r} has coordinates but no field")
            env[name] = element_from_list(f, spec["coords"])
        else:
            raise ValueError(f"variable {name!r} needs 'rational' or 'coords'")
    return env


def load_env(path: str) -> dict:
    with open(path) as fh:
        return env_from_dict(json.load(fh))


def load_seq_spec(path: str) -> tuple:
    """{"schema": 1, "charpoly": [...desc...], "initial": [...]} -> (charpoly
    ascending, initial terms)."""
    with open(path) as fh:
        d = json.load(fh)
    unknown = set(d) - {"schema", "charpoly", "initial"}
    if unknown:
        raise ValueError(f"unknown keys in sequence spec: {sorted(unknown)}")
    cp = [parse_rational(c) for c in d["charpoly"]]
    init = [parse_rational(c) for c in d["initial"]]
    return list(reversed(cp)), init
