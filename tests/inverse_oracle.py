"""Closed-form inverses of the action tables, written out by hand.

The test oracle for `aut_invert` on every acting generator of
`action_model`: the inverses are read off the tables' formulas, not found
by Nielsen reduction.

- The half-twist x -> y, y -> y^-1 x y of two basis letters inverts to
  y -> x, x -> x y x^-1 (A's s_i; B_ab's s_i, i >= 2; every D generator).
- B's s_i (i >= 2): x_i -> x_{i+1} x_i^-1 x_{i-1},
  y_i -> y_{i-1} y_i^-1 y_{i+1}, with y_n = 1.
- B's s1: x1 -> x2 y1^-1 y2, y1 -> x2 x1^-1 y2.
- B_ab's s1: a2 -> b2, a1 -> b2 a1 b2^-1, b2 -> b2 a1 a2 a1^-1 b2^-1.
- I2(m)'s s: a_j -> R a_{m-j} R^-1 with R = a_{m-1} a_{m-2} ... a_{m-j+1}.
"""

from purebraid.coxeter import CoxeterError
from purebraid.free_actions import FreeAut, action_model
from purebraid.freeword import parse_free_word


def _untwist(x: str, y: str) -> dict:
    """The inverse of the half-twist of x and y."""
    return {y: x, x: f"{x} {y} {x}^-1"}


def _images(kind: str, n: int, label: str) -> dict:
    """Inverse images as text, of the symbols the generator moves."""
    if kind == "A":
        i = int(label[1:])
        return _untwist(f"a{i}", f"a{i + 1}")
    if kind == "B":
        def y(i):  # y_n is the empty product
            return "" if i == n else f"y{i}"

        if label == "s1":
            return {"x1": f"x2 y1^-1 {y(2)}", "y1": f"x2 x1^-1 {y(2)}"}
        i = int(label[1:])
        return {f"x{i}": f"x{i + 1} x{i}^-1 x{i - 1}",
                f"y{i}": f"y{i - 1} y{i}^-1 {y(i + 1)}"}
    if kind == "I2":
        m = n
        images = {}
        for j in range(1, m):
            r = " ".join(f"a{k}" for k in range(m - 1, m - j, -1))
            r_inv = " ".join(f"a{k}^-1" for k in range(m - j + 1, m))
            images[f"a{j}"] = f"{r} a{m - j} {r_inv}"
        return images
    if (kind, label) == ("B_ab", "s1"):
        return {"a2": "b2", "a1": "b2 a1 b2^-1", "b2": "b2 a1 a2 a1^-1 b2^-1"}
    if (kind, label) == ("D", "s2"):
        return {**_untwist("a2", "a3"), **_untwist("b3", "a2'")}
    if (kind, label) == ("D", "s2'"):
        return {**_untwist("a2'", "a3"), **_untwist("b3", "a2")}
    if kind in ("B_ab", "D"):
        i = int(label[1:])
        return {**_untwist(f"a{i}", f"a{i + 1}"), **_untwist(f"b{i + 1}", f"b{i}")}
    raise CoxeterError(f"no closed-form inverse for kind {kind!r}")


def closed_form_inverse(kind: str, n: int, label: str) -> FreeAut:
    """The inverse of generator `label` of `action_model(kind, n)`."""
    basis = action_model(kind, n).basis
    return FreeAut(basis, {x: parse_free_word(text)
                           for x, text in _images(kind, n, label).items()})
