"""Built-in germ corpus with closed-form expected invariants, used by the
selftest command and the test suite."""

from __future__ import annotations

from .germfile import load_germ

TRIPLE_POINT_MATRIX = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def _germ(name, maps, field, overrides=""):
    """Build a germ from germ-file text, the one way germs are made."""
    text = (f"[germ]\nname = {name!r}\nmap = {list(maps)!r}\n"
            f"field = {field!r}\n{overrides}")
    return load_germ(text)[0]


def cross_cap():
    return _germ("cross-cap", ("u", "v^2", "u*v"), "Q")


def S(k):
    return _germ(f"S_{k}", ("u", "v^2", f"v^3 + u^{k + 1}*v"), "Q(i)")


def B(k):
    return _germ(f"B_{k}", ("u", "v^2", f"u^2*v + v^{2 * k + 1}"), "Q(i)")


def C_(k):
    return _germ(f"C_{k}", ("u", "v^2", f"u*v^3 + u^{k}*v"), "Q(i)")


def F4():
    return _germ("F_4", ("u", "v^2", "u^3*v + v^5"), "Q")


def H(k):
    return _germ(f"H_{k}", ("u", f"u*v + v^{3 * k - 1}", "v^3"), "Q(zeta3)")


def corank2():
    overrides = """[overrides]
double_curve = "(u + v^2)*(u^2 + v)*(u + v)*(u + zeta3*v)*(u + zeta3^2*v)"
components = ["u + v^2", "u^2 + v", "u + v", "u + zeta3*v", "u + zeta3^2*v"]
twist = ["0:twisted", "1:twisted", "2:twisted", "3:twisted", "4:twisted"]
T = 1
"""
    return _germ("corank-2", ("u^2", "v^2", "u^3 + v^3 + u*v"), "Q(zeta3)",
                 overrides)


def expected_invariants(name: str) -> dict:
    """Closed-form expected sigma(F), C and T. All are the published values
    except sigma(F) of H_k: the quoted table value there is k, which
    sigma(F) = sigma(X) + T - C cannot give, so H_k expects the formula value
    k - 2 from the published C, T and vertical index (README, "Tests")."""
    if name == "cross-cap":
        return {"signature": -1, "C": 1, "T": 0}
    kind, _, k = name.partition("_")
    if kind == "S":
        k = int(k)
        return {"signature": -k - 2 if k % 2 else -k - 1, "C": k + 1, "T": 0}
    if kind == "B":
        k = int(k)
        return {"signature": -3 if k % 2 else -2, "C": 2, "T": 0}
    if kind == "C":
        k = int(k)
        return {"signature": -k - 1 if k % 2 else -k, "C": k, "T": 0}
    if name == "F_4":
        return {"signature": -3, "C": 3, "T": 0}
    if kind == "H":
        k = int(k)
        # formula value, not the quoted k: X has the 1x1 form [3k - 5] > 0
        return {"signature": k - 2, "C": 2, "T": k - 1}
    if name == "corank-2":
        return {"signature": -2, "C": 3, "T": 1}
    raise ValueError(f"no expected values for {name!r}")


def corpus(kmax: int = 5):
    """The full selftest corpus as a list of germs."""
    out = [cross_cap()]
    out.extend(S(k) for k in range(1, kmax + 1))
    out.extend(B(k) for k in range(2, kmax + 1))
    out.extend(C_(k) for k in range(3, kmax + 1))
    out.append(F4())
    out.extend(H(k) for k in range(2, kmax + 1))
    out.append(corank2())
    return out
