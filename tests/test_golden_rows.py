"""Golden ``RunResult`` rows: short COVID and MOSEI-HIGH runs of every
method must reproduce the committed rows exactly.

The rows pin the decision logic (Eq. 5 / Eq. 6, the App. A.2 placement
frontier, the buffer check of Eq. 1) across refactors: any change that
moves a single decision moves a row.  Regenerate the JSON only for a
change that is meant to move results, and say which rows moved:

    PYTHONPATH=src python tests/test_golden_rows.py
"""
from __future__ import annotations

import json
import math
import os

import pytest

from repro.exp.runs import run_one

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_rows.json")
METHODS = ("skyscraper", "static", "chameleon", "videostorm", "optimum")
CELLS = [
    {
        "workload": workload,
        "method": method,
        "vcpus": vcpus,
        "seed": 0,
        "train_days": 2.0,
        "test_days": test_days,
    }
    for workload, vcpus, test_days in (("covid", 8, 0.5), ("mosei-high", 16, 0.25))
    for method in METHODS
]
# Skyscraper's other online modes (Section 5.4 ablations, Section 5.6
# classification / forecast baselines) on the same COVID cell.
MODES = (
    {"classify_mode": "no_typeb"},
    {"classify_mode": "ground_truth"},
    {"ground_truth_forecast": True},
    {"enable_cloud": False},
    {"enable_buffer": False},
)
CELLS += [{**CELLS[0], **mode} for mode in MODES]


def _cell_id(cell: dict) -> str:
    mode = "-".join(f"{k}={cell[k]}" for k in sorted(cell) if k not in CELLS[0])
    return "-".join(filter(None, (cell["workload"], cell["method"], mode)))


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize(
    "i", range(len(CELLS)), ids=[_cell_id(c) for c in CELLS]
)
def test_row_unchanged(golden, i):
    want = golden[i]
    got = json.loads(json.dumps(run_one(CELLS[i])))
    assert set(got) == set(want)
    diff = {k: (got[k], want[k]) for k in want if not _same(got[k], want[k])}
    assert not diff


def test_rows_through_run_grid(golden, monkeypatch):
    """``run_grid`` runs the cells of each column (here COVID and
    MOSEI-HIGH) on one shared set of inputs; every row still equals its
    golden row, in grid order.  Each column generates its train and test
    traces once, the shared arrays are read-only, and nothing is kept
    for the next call."""
    import collections

    import repro.exp.runs as runs
    import repro.workloads.base as wbase
    from repro.exp.sweep import run_grid

    generated = []
    content = wbase.Workload.content

    def counting_content(self, **kw):
        generated.append((self.name, "test" if kw.get("start_day") else "train"))
        return content(self, **kw)

    monkeypatch.setattr(wbase.Workload, "content", counting_content)
    preps = []
    for name in ("run_skyscraper", "run_chameleon", "run_videostorm",
                 "run_optimum"):
        def spy(*args, _run=getattr(runs, name), **kw):
            preps.append(kw["prep"])
            return _run(*args, **kw)

        monkeypatch.setattr(runs, name, spy)
    runs.cached_fit.cache_clear()  # the fit must reuse the column's trace

    df = run_grid(CELLS, None)
    # The COVID mode cells follow the MOSEI-HIGH column, which replaced
    # the COVID column; with the fit cached they need only the test trace.
    assert generated == [
        ("covid", "test"), ("covid", "train"),
        ("mosei-high", "test"), ("mosei-high", "train"),
        ("covid", "test"),
    ]
    assert len(df) == len(golden)
    for got, want in zip(json.loads(json.dumps(df.to_dict("records"))), golden):
        # the frame has a column for every key any row has; NaN elsewhere
        extra = set(got) - set(want)
        assert all(isinstance(got[k], float) and math.isnan(got[k])
                   for k in extra)
        assert not {k: (got[k], want[k]) for k in want
                    if not _same(got[k], want[k])}

    # one prepare per column: the cells on one test trace share arrays
    shared = collections.defaultdict(set)
    for prep in preps:
        shared[id(prep.trace)].add(id(prep.qual_true))
    assert sorted(map(len, shared.values())) == [1, 1, 1]
    for a in (preps[0].qual_true, preps[0].qual_obs,
              preps[0].trace.difficulty, preps[0].trace.work_multiplier):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0

    generated.clear()
    run_grid([CELLS[METHODS.index("static")]], None)
    assert generated == [("covid", "test"), ("covid", "train")]


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump([run_one(c) for c in CELLS], f, indent=1)
        f.write("\n")
