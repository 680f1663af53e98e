"""Seeded generator for the non-separable `chain` project.

The chain has R(x_i), S(x_i, y_i), S(x_i, y_{i+1}) and T(y_j) for
i in [0, n) and j in [0, n], with tuple weights drawn from {0.5, 1, 2}, and
the single soft view ``V(x, y) [0.5] :- R(x), S(x, y), T(y)``.  Every x shares
a y with its neighbour, so the constraint query has no separator and compiles
to one wide constituent.

Position i uses one constant for both x_i and y_i.  The tuple order groups
tuples by their first constant, so T(y_i) lands next to R(x_i) and the
constituent keeps a constant width; distinct x and y constants would put
every T tuple after every S tuple and make the width grow as 2^n.

The project uses the same on-disk layout as ``mvdb gen-dblp``
(``schema.txt``, ``views.txt``, ``data/<Relation>.tsv``), so it goes through
the same CLI and TSV paths.

Constants are zero-padded strings, so a window ``x >= 'k0010',
x < 'k0020'`` in string order is the same window in chain order.
"""

from __future__ import annotations

import random
from pathlib import Path

SCHEMA_TEXT = """\
relation R(x:string) key(x) probabilistic
relation S(x:string, y:string) key(x,y) probabilistic
relation T(y:string) key(y) probabilistic
"""

VIEW_TEXT = "V(x, y) [0.5] :- R(x), S(x, y), T(y)\n"

WEIGHTS = (0.5, 1.0, 2.0)

CHAIN_BODY = "R(x), S(x, y), T(y)"


def name(i: int) -> str:
    """The constant at chain position *i* (both x_i and y_i)."""
    return f"k{i:04d}"


def window_query(lo: int, hi: int, answer: bool = False) -> str:
    """The window query over x in [lo, hi); `Q(x)` form when *answer*."""
    head = "Q(x)" if answer else "Q()"
    return (f"{head} :- {CHAIN_BODY}, x >= '{name(lo)}', "
            f"x < '{name(hi)}'")


def chain_rows(n: int, seed: int):
    """Weighted rows per relation: {"R": [(values, w)], "S": ..., "T": ...}."""
    rng = random.Random(seed)
    rows = {"R": [], "S": [], "T": []}
    for i in range(n):
        rows["R"].append(((name(i),), rng.choice(WEIGHTS)))
        for j in (i, i + 1):
            rows["S"].append(((name(i), name(j)), rng.choice(WEIGHTS)))
    for j in range(n + 1):
        rows["T"].append(((name(j),), rng.choice(WEIGHTS)))
    return rows


def generate_chain(out_dir, seed: int, n: int) -> Path:
    """Write the chain project of length *n* under *out_dir*; returns it."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    out = Path(out_dir)
    (out / "data").mkdir(parents=True, exist_ok=True)
    (out / "schema.txt").write_text(SCHEMA_TEXT)
    (out / "views.txt").write_text(VIEW_TEXT)
    for rel, rows in chain_rows(n, seed).items():
        lines = ["\t".join(values + (repr(w),)) for values, w in rows]
        (out / "data" / f"{rel}.tsv").write_text("\n".join(lines) + "\n")
    return out
