"""Line-oriented germ files.

Sections [germ], [overrides], [expected] hold key = value lines; values are
Python-style literals (quoted strings, bracketed lists, integers).  Comments
start with '#'.
"""

from __future__ import annotations

import ast

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


def _parse_twist(entries):
    out = []
    for s in entries:
        parts = s.split(":")
        if len(parts) == 2 and parts[1] == "twisted":
            out.append((int(parts[0]), int(parts[0])))
        elif len(parts) == 3 and parts[1] == "untwisted-with":
            i, j = int(parts[0]), int(parts[2])
            if i == j:
                raise GermFileError(f"untwisted pair needs two components: {s!r}")
            out.append((i, j))
        else:
            raise GermFileError(f"bad twist entry {s!r}")
    return out


def _parse_vertical_indices(entries):
    out = {}
    for s in entries:
        pair, _, value = s.rpartition(":")
        if not pair:
            raise GermFileError(f"bad vertical_indices entry {s!r}")
        key = "+".join(str(i) for i in sorted(int(x) for x in pair.split("+")))
        out[key] = int(value)
    return out


def load_germ(text: str) -> tuple[Germ, dict]:
    """Parse a germ file; returns the germ and the [expected] mapping."""
    sections = _parse_sections(text)
    if "germ" not in sections:
        raise GermFileError("missing [germ] section")
    g = sections["germ"]
    for key in ("map", "field"):
        if key not in g:
            raise GermFileError(f"[germ] section is missing {key!r}")
    if not isinstance(g["map"], (list, tuple)) or len(g["map"]) != 3:
        raise GermFileError("map must be a list of exactly 3 polynomial strings")
    field = parse_field(g["field"])
    comps = tuple(parse_poly(src, UV, field) for src in g["map"])
    name = g.get("name", "")

    ov = sections.get("overrides", {})
    known = {"double_curve", "components", "twist", "vertical_indices", "T"}
    unknown = set(ov) - known
    if unknown:
        raise GermFileError(f"unknown override keys: {sorted(unknown)}")
    T = ov.get("T")
    if T is not None and (not isinstance(T, int) or T < 0):
        raise GermFileError("T override must be a non-negative integer")
    overrides = OverrideSet(
        double_curve=parse_poly(ov["double_curve"], UV, field)
        if "double_curve" in ov else None,
        components=[parse_poly(s, UV, field) for s in ov["components"]]
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
        if not isinstance(value, int):
            raise GermFileError(f"expected {key} must be an integer")
    return Germ(comps, field, name=name, overrides=overrides), expected


def load_germ_file(path: str) -> tuple[Germ, dict]:
    with open(path, encoding="utf-8") as fh:
        return load_germ(fh.read())
