"""Free words: freely reduced tuples of (symbol, +-1).

The symbols are any hashable values: strings for the free bases of the
action models, generator indices for braid words, tagged tuples for the
Schreier generators.  A homomorphism between free groups is a table of
images of the symbols, applied by `substitute`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Mapping, Tuple

from .coxeter import CoxeterError

FreeWord = Tuple[Tuple[Hashable, int], ...]


def free_reduce(letters: Iterable[Tuple[Hashable, int]]) -> FreeWord:
    out: List[Tuple[Hashable, int]] = []
    for sym, e in letters:
        if e not in (1, -1):
            raise CoxeterError(f"free letter exponent must be +-1, got {e}")
        if out and out[-1] == (sym, -e):
            out.pop()
        else:
            out.append((sym, e))
    return tuple(out)


def word_inv(w: FreeWord) -> FreeWord:
    return tuple((sym, -e) for sym, e in reversed(w))


def word_mul(*parts: FreeWord) -> FreeWord:
    letters: List[Tuple[Hashable, int]] = []
    for p in parts:
        letters.extend(p)
    return free_reduce(letters)


def letter(sym: Hashable, e: int = 1) -> FreeWord:
    return ((sym, e),)


def substitute(images: Mapping[Hashable, FreeWord], w: FreeWord) -> FreeWord:
    """The homomorphism sending each symbol x to images[x], applied to w."""
    out: List[Tuple[Hashable, int]] = []
    for sym, e in w:
        try:
            img = images[sym]
        except KeyError:
            raise CoxeterError(f"no image for the symbol {sym!r}") from None
        out.extend(img if e == 1 else word_inv(img))
    return free_reduce(out)


def parse_free_word(text: str) -> FreeWord:
    """Parse "a1 a2^-1 b3" into a free word."""
    letters = []
    for tok in text.split():
        if tok.endswith("^-1"):
            letters.append((tok[:-3], -1))
        else:
            letters.append((tok, 1))
    return free_reduce(letters)


def free_word_str(w: FreeWord) -> str:
    if not w:
        return "1"
    return " ".join(sym + ("" if e == 1 else "^-1") for sym, e in w)
