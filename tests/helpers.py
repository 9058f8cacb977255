"""Shared test helpers: small random mobile-object populations."""

from __future__ import annotations

import random
from typing import List

from repro.core import (
    LinearMotion1D,
    MobileObject1D,
    MORQuery1D,
    MotionModel,
    Terrain1D,
)

#: The paper's §5 parameters, scaled down to a 1000-unit terrain.
PAPER_MODEL = MotionModel(Terrain1D(1000.0), v_min=0.16, v_max=1.66)


def random_objects(
    rng: random.Random,
    n: int,
    model: MotionModel = PAPER_MODEL,
    t0_max: float = 100.0,
) -> List[MobileObject1D]:
    """Uniform population following the paper's generator (section 5)."""
    objects = []
    for oid in range(n):
        speed = rng.uniform(model.v_min, model.v_max)
        direction = 1 if rng.random() < 0.5 else -1
        motion = LinearMotion1D(
            y0=rng.uniform(0, model.terrain.y_max),
            v=direction * speed,
            t0=rng.uniform(0, t0_max),
        )
        objects.append(MobileObject1D(oid, motion))
    return objects


def random_queries(
    rng: random.Random,
    n: int,
    model: MotionModel = PAPER_MODEL,
    yq_max: float = 150.0,
    tw_max: float = 60.0,
    t_now: float = 100.0,
) -> List[MORQuery1D]:
    """Random future-window queries (paper's YQMAX / TW scheme)."""
    queries = []
    for _ in range(n):
        y1 = rng.uniform(0, model.terrain.y_max)
        y2 = min(y1 + rng.uniform(0, yq_max), model.terrain.y_max)
        t1 = t_now + rng.uniform(0, tw_max)
        t2 = min(t1 + rng.uniform(0, tw_max), t_now + tw_max)
        t2 = max(t1, t2)
        queries.append(MORQuery1D(y1, y2, t1, t2))
    return queries


def tree_structure(tree) -> list:
    """Preorder dump of a B+-tree's pages: ``(pid, kind, next, items)``.

    Two trees with equal dumps are page-for-page the same structure —
    the oracle for "the batch path builds what the scalar calls build".
    """
    pages = []

    def walk(pid: int) -> None:
        page = tree.disk.peek(pid)
        kind = page.meta["kind"]
        pages.append((pid, kind, page.meta.get("next"), list(page.items)))
        if kind == "internal":
            for _, child_pid, _ in page.items:
                walk(child_pid)

    walk(tree.root_pid)
    return pages


def leaf_pid_of(tree, key) -> int:
    """Pid of the leaf ``key`` routes to, found without I/O accounting."""
    page = tree.disk.peek(tree.root_pid)
    while page.meta["kind"] == "internal":
        page = tree.disk.peek(page.items[tree._route(page, key)][1])
    return page.pid
