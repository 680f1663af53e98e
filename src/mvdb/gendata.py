"""Deterministic synthetic advisor/student projects.

`--scale n` controls the number of students; each student gets 2 or 3
candidate advisors in a fixed alternating pattern, so the per-student
constraint blocks repeat two shapes and the compiled index grows linearly
with the scale.  Small scales (2 or 3 students) stay inside the enumeration
caps and can be checked against the oracle end to end.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

_SURNAMES = ["stone", "rivera", "okafor", "madsen", "liu", "haines",
             "brandt", "suzuki", "ferrara", "novak"]

SCHEMA_TEXT = """\
relation Author(aid:int, name:string) key(aid) deterministic
relation CoPubs(sid:int, aid:int, cnt:int) key(sid,aid) deterministic
relation Student(sid:int, year:int) key(sid,year) probabilistic
relation Advisor(sid:int, aid:int) key(sid,aid) probabilistic
"""

VIEW_LINES = {
    "v1": "V1(s, a) [cnt / 2] :- Advisor(s, a), Student(s, y), CoPubs(s, a, cnt)",
    "v2": "V2(s, a, b) [0] :- Advisor(s, a), Advisor(s, b), a != b",
}


def generate_project(out_dir, seed: int = 1, scale: int = 2,
                     views: tuple = ("v1", "v2")) -> Path:
    """Write schema.txt, views.txt and data/ under *out_dir*; returns it."""
    if scale < 1:
        raise ValueError("scale must be at least 1")
    for v in views:
        if v not in VIEW_LINES:
            raise ValueError(f"unknown view profile {v!r}")
    rng = random.Random(seed)
    out = Path(out_dir)
    (out / "data").mkdir(parents=True, exist_ok=True)

    n_advisors = max(3, scale // 10 + 3)
    advisor_ids = list(range(1001, 1001 + n_advisors))
    students = list(range(1, scale + 1))

    authors = []
    for i, aid in enumerate(advisor_ids):
        name = f"{chr(ord('a') + i % 26)}. {_SURNAMES[i % len(_SURNAMES)]}"
        authors.append((aid, name))

    student_rows, advisor_rows, copub_rows = [], [], []
    for s in students:
        year = 2000 + s % 6
        delta = rng.randint(0, 5)
        w_student = math.exp(1.0 - 0.15 * delta)
        student_rows.append((s, year, w_student))
        k = 2 + s % 2
        chosen = sorted(rng.sample(advisor_ids, k))
        for a in chosen:
            w_adv = rng.choice([0.25, 0.5, 1.0, 2.0])
            advisor_rows.append((s, a, w_adv))
            copub_rows.append((s, a, rng.randint(1, 6)))

    (out / "schema.txt").write_text(SCHEMA_TEXT)
    view_text = "".join(VIEW_LINES[v] + "\n" for v in views)
    (out / "views.txt").write_text(view_text)

    def tsv(name, rows):
        lines = ["\t".join(str(c) for c in row) for row in rows]
        (out / "data" / name).write_text("\n".join(lines)
                                         + ("\n" if lines else ""))

    tsv("Author.tsv", [(aid, name, "inf") for aid, name in authors])
    tsv("CoPubs.tsv", [(s, a, c, "inf") for s, a, c in copub_rows])
    tsv("Student.tsv", [(s, y, repr(w)) for s, y, w in student_rows])
    tsv("Advisor.tsv", [(s, a, repr(w)) for s, a, w in advisor_rows])
    return out
