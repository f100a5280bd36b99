import json

import numpy as np
import pytest

import bolzakit.jsonio as jsonio
from bolzakit.catalog import get_case
from bolzakit.funspace import CellPath, Grid, Trajectory
from bolzakit.optimality import certify

HUGE = "1" + "0" * 400  # an integer literal beyond the largest double


def _trajectory(rows: str):
    """A trajectory object parsed from JSON text, so that NaN and Infinity
    literals and huge integers reach the reader as json.loads makes them."""
    return json.loads(f'{{"T": 1.0, "n": 2, "values": {rows}}}')


@pytest.mark.parametrize("rows, message", [
    ("[[0.0, 1.0], [true, 1.0]]", "must contain numbers only"),
    ('[[0.0, 1.0], ["1", 1.0]]', "must contain numbers only"),
    ("[[0.0, null], [1.0, 1.0]]", "must contain numbers only"),
    ("[[0.0, [1.0]], [1.0, 1.0]]", "must contain numbers only"),
    ("[[0.0, 1.0], [1.0]]", "rows have inconsistent lengths"),
    ("[[0.0, 1.0], [1.0, 1.0, 2.0]]", "rows have inconsistent lengths"),
    ("[[0.0, NaN], [1.0, 1.0]]", "must contain finite numbers only"),
    ("[[0.0, 1.0], [-Infinity, 1.0]]", "must contain finite numbers only"),
    (f"[[0.0, 1.0], [{HUGE}, 1.0]]", "must contain finite numbers only"),
    (f"[[0.0, 1.0], [-{HUGE}, 1.0]]", "must contain finite numbers only"),
], ids=["bool", "string", "null", "nested", "short-row", "long-row", "nan",
        "infinity", "huge-int", "huge-negative-int"])
def test_trajectory_rows_reject_each_defect(rows, message):
    with pytest.raises(jsonio.FormatError, match=f"^trajectory {message}$"):
        jsonio.trajectory_from_json(_trajectory(rows))


@pytest.mark.parametrize("obj, message", [
    ({"type": "polyhedron", "A": [[1.0], 2.0], "b": [1.0, 1.0]},
     "polyhedron A must be an array"),
    ({"type": "polyhedron", "A": 1.0, "b": [1.0]},
     "polyhedron A must be an array of rows"),
    ({"type": "singleton", "point": [0.0, False]},
     "singleton point must contain numbers only"),
    ({"type": "singleton", "point": [0.0, float("inf")]},
     "singleton point must contain finite numbers only"),
    ({"type": "singleton", "point": [0.0, int(HUGE)]},
     "singleton point must contain finite numbers only"),
    ({"type": "ball", "center": [0.0], "radius": int(HUGE)},
     "ball radius: number out of range"),
    ({"type": "box", "lower": [0.0], "upper": [int(HUGE)]},
     "box upper: number out of range"),
], ids=["row-not-array", "rows-not-array", "bool-entry", "infinite-entry",
        "huge-entry", "huge-radius", "huge-bound"])
def test_set_numbers_reject_each_defect(obj, message):
    with pytest.raises(jsonio.FormatError, match=f"^{message}$"):
        jsonio.set_from_json(obj)


def test_rows_match_the_elementwise_reading():
    # the vectorized reader against a per-element reference
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(50, 3)).tolist()
    rows[4][1] = 3  # integers read as doubles
    rows[7][0] = -2 ** 60
    want = np.array([[float(v) for v in row] for row in rows])
    got = jsonio._finite_rows(rows, "rows")
    assert got.dtype == float and np.array_equal(got, want)
    assert np.array_equal(jsonio._finite_vector(rows[4], "row"), want[4])


def test_one_column_trajectory_accepts_flat_rows():
    x = jsonio.trajectory_from_json({"T": 2.0, "n": 1, "values": [0, 0.5, 1]})
    assert x.values.shape == (3, 1) and x.values[1, 0] == 0.5


def _indented_dumps(obj) -> str:
    """The indented writer that the compact one replaced: the reference."""
    return json.dumps(jsonio.sanitize(obj), indent=2, allow_nan=False) + "\n"


def _outputs(which):
    """A file object of each kind the commands write, with the values that
    strict JSON cannot hold: inf, nan and numpy scalars."""
    grid = Grid(2.0, 7)
    rng = np.random.default_rng(2)
    if which == "trajectory":
        return jsonio.trajectory_to_json(Trajectory(grid, rng.standard_normal((8, 3))))
    if which == "multipliers":
        return jsonio.multipliers_to_json(
            CellPath(grid, rng.standard_normal((7, 2))),
            np.array([np.inf, 1.0]), np.array([-np.inf, np.float32(0.1)]))
    # an infeasible candidate: infinite pointwise residuals
    case = get_case("p2")
    grid = Grid(case.problem.T, 30)
    x = case.x_star(grid)
    report = certify(case.problem, Trajectory(grid, 1.1 * x.values), CellPath(grid, np.zeros((30, 1))),
                     None, None, kappa=10.0).to_dict()
    report["tolerances"]["el"] = float("nan")
    report["notes"].append(np.int64(3))
    return report


@pytest.mark.parametrize("which, strings", [
    ("trajectory", []),
    ("multipliers", ['"inf"', '"-inf"']),
    ("certificate", ['"inf"', '"nan"']),
])
def test_compact_output_parses_as_the_indented_one(which, strings):
    obj = _outputs(which)
    text = jsonio.dumps(obj)
    assert text.endswith("}\n") and text.count("\n") == 1
    assert json.loads(text) == json.loads(_indented_dumps(obj))
    assert all(s in text for s in strings)
