"""Line-oriented germ files.

Sections [germ], [overrides], [expected] hold key = value lines; values are
Python-style literals (quoted strings, bracketed lists, integers).  Comments
start with '#'.
"""

from __future__ import annotations

import ast
import re

from .fields import parse_field
from .germs import Germ, OverrideSet, UV
from .parser import parse_poly


class GermFileError(ValueError):
    pass


def _parse_sections(text: str) -> dict:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise GermFileError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise GermFileError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise GermFileError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise GermFileError(f"line {lineno}: duplicate key {key!r}")
        try:
            sections[current][key] = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError) as exc:
            raise GermFileError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return sections


def _ints(runs, kind: str, n: int) -> list[int]:
    """int() of each ASCII digit run of the n-th ``kind`` entry."""
    try:
        return [int(r) for r in runs]
    except ValueError:  # longer than the interpreter's int_max_str_digits
        longest = max(map(len, runs))
        raise GermFileError(
            f"{kind} entry {n}: a number of {longest} digits is too long") from None


def _parse_twist(entries):
    out = []
    for n, s in enumerate(entries):
        m = re.fullmatch(r"([0-9]+):(?:twisted|untwisted-with:([0-9]+))", s)
        if not m:
            raise GermFileError(f"bad twist entry {s!r}")
        i, j = _ints((m[1], m[2] or m[1]), "twist", n)
        if m[2] is not None and i == j:
            raise GermFileError(f"untwisted pair needs two components: {s!r}")
        out.append((i, j))
    return out


def _parse_vertical_indices(entries):
    out = {}
    for n, s in enumerate(entries):
        m = re.fullmatch(r"([0-9]+(?:\+[0-9]+)*):([+-]?[0-9]+)", s)
        if not m:
            raise GermFileError(f"bad vertical_indices entry {s!r}")
        *pair, value = _ints(m[1].split("+") + [m[2]], "vertical_indices", n)
        key = "+".join(map(str, sorted(pair)))
        if key in out:
            raise GermFileError(f"vertical_indices entry {n} gives {key!r} a second value")
        out[key] = value
    return out


def _parse_curve(src: str, key: str, field):
    curve = parse_poly(src, UV, field)
    if curve.is_zero():
        raise GermFileError(f"{key} override {src!r} is the zero polynomial")
    return curve


def _check_value_types(section: dict) -> None:
    for key, value in section.items():
        if key in ("field", "name", "double_curve") and not isinstance(value, str):
            raise GermFileError(f"{key} must be a string")
        if key in ("map", "components", "twist", "vertical_indices") and not (
                isinstance(value, (list, tuple))
                and all(isinstance(s, str) for s in value)):
            raise GermFileError(f"{key} must be a list of strings")


def load_germ(text: str) -> tuple[Germ, dict]:
    """Parse a germ file; returns the germ and the [expected] mapping."""
    sections = _parse_sections(text)
    for name in sections:
        if name not in ("germ", "overrides", "expected"):
            raise GermFileError(f"unknown section {name!r}")
    if "germ" not in sections:
        raise GermFileError("missing [germ] section")
    g = sections["germ"]
    for key in g:
        if key not in ("map", "field", "name"):
            raise GermFileError(f"unknown germ key {key!r}")
    for key in ("map", "field"):
        if key not in g:
            raise GermFileError(f"[germ] section is missing {key!r}")
    _check_value_types(g)
    if len(g["map"]) != 3:
        raise GermFileError("map must be a list of exactly 3 polynomial strings")
    field = parse_field(g["field"])
    comps = tuple(parse_poly(src, UV, field) for src in g["map"])
    name = g.get("name", "")

    ov = sections.get("overrides", {})
    known = {"double_curve", "components", "twist", "vertical_indices", "T"}
    unknown = set(ov) - known
    if unknown:
        raise GermFileError(f"unknown override keys: {sorted(unknown)}")
    _check_value_types(ov)
    T = ov.get("T")
    if T is not None and (type(T) is not int or T < 0):
        raise GermFileError("T override must be a non-negative integer")
    overrides = OverrideSet(
        double_curve=_parse_curve(ov["double_curve"], "double_curve", field)
        if "double_curve" in ov else None,
        components=[_parse_curve(s, "components", field) for s in ov["components"]]
        if "components" in ov else None,
        twist=_parse_twist(ov["twist"]) if "twist" in ov else None,
        vertical_indices=_parse_vertical_indices(ov["vertical_indices"])
        if "vertical_indices" in ov else None,
        T=T,
    )

    expected = sections.get("expected", {})
    for key, value in expected.items():
        if key not in ("signature", "C", "T"):
            raise GermFileError(f"unknown expected key {key!r}")
        if type(value) is not int:
            raise GermFileError(f"expected {key} must be an integer")
    return Germ(comps, field, name=name, overrides=overrides), expected


def load_germ_file(path: str) -> tuple[Germ, dict]:
    # utf-8-sig also reads a file saved with a byte-order mark
    with open(path, encoding="utf-8-sig") as fh:
        return load_germ(fh.read())
