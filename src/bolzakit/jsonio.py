"""JSON file formats and atomic writes.

Formats (all numbers IEEE doubles, arrays row-major, UTF-8):

  problem:     {"version": 1, "n": int, "T": real,
                "terminal_cost": str, "running_cost": str,
                "drift": [str, ...],                       # n entries
                "omega1": <set>, "omega2": <set>,
                "lipschitz_ell": real}                     # optional
  set:         {"type": "reals", "dim": d}
               {"type": "box", "lower": [...], "upper": [...]}
               {"type": "ball", "center": [...], "radius": r}
               {"type": "polyhedron", "A": [[...], ...], "b": [...]}
               {"type": "singleton", "point": [...]}
               {"type": "product", "factors": [<set>, ...]}
               with +-infinity encoded as the strings "inf" / "-inf"
  trajectory:  {"T": real, "n": int, "values": [[...], ...]}   # N+1 rows
  cell path:   {"T": real, "n": int, "values": [[...], ...]}   # N rows
  multipliers: {"T": real, "n": int, "mu": [[...], ...],
                "s1": [...], "s2": [...]}

Unknown keys are rejected so that solver inputs and certificates stay
reproducible artifacts.
"""

from __future__ import annotations

import errno
import json
import math
import os
import tempfile
from itertools import chain

import numpy as np

from . import expr as ex
from .convex import Ball, Box, ConvexSet, Polyhedron, Product, Reals, Singleton
from .funspace import CellPath, Grid, Trajectory
from .problem import ProblemSpec

PROBLEM_VERSION = 1


class FormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# helpers


def _require_keys(obj: dict, required: set[str], optional: set[str], what: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise FormatError(f"{what} is missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise FormatError(f"{what} has unknown keys {sorted(unknown)}")


def _decode_extended(value, what: str) -> float:
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        raise FormatError(f"{what}: bad numeric string {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError as err:  # an integer beyond the doubles
            raise FormatError(f"{what}: number out of range") from err
    raise FormatError(f"{what}: expected a number, got {type(value).__name__}")


def _encode_extended(value: float):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


def _finite_vector(value, what: str) -> np.ndarray:
    return _finite_rows([value], what)[0]


def _finite_rows(value, what: str) -> np.ndarray:
    """An array of equally long arrays of finite JSON numbers (booleans
    are not numbers) as a float matrix."""
    if not isinstance(value, list):
        raise FormatError(f"{what} must be an array of rows")
    if not all(isinstance(row, list) for row in value):
        raise FormatError(f"{what} must be an array")
    if not set(map(type, chain.from_iterable(value))) <= {int, float}:
        raise FormatError(f"{what} must contain numbers only")
    if len(set(map(len, value))) > 1:
        raise FormatError(f"{what} rows have inconsistent lengths")
    try:
        rows = np.array(value, dtype=float)
    except OverflowError as err:  # an integer beyond the doubles
        raise FormatError(f"{what} must contain finite numbers only") from err
    if not np.isfinite(rows).all():
        raise FormatError(f"{what} must contain finite numbers only")
    return rows


def _positive_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FormatError(f"{what} must be a positive integer")
    return value


# ---------------------------------------------------------------------------
# convex sets


def set_to_json(S: ConvexSet) -> dict:
    if isinstance(S, Reals):
        return {"type": "reals", "dim": S.dim}
    if isinstance(S, Box):
        return {
            "type": "box",
            "lower": [_encode_extended(v) for v in S.lower],
            "upper": [_encode_extended(v) for v in S.upper],
        }
    if isinstance(S, Ball):
        return {"type": "ball", "center": S.center.tolist(), "radius": S.radius}
    if isinstance(S, Polyhedron):
        return {"type": "polyhedron", "A": S.A.tolist(), "b": S.b.tolist()}
    if isinstance(S, Singleton):
        return {"type": "singleton", "point": S.point.tolist()}
    if isinstance(S, Product):
        return {"type": "product", "factors": [set_to_json(f) for f in S.factors]}
    raise FormatError(f"cannot encode set of type {type(S).__name__}")


def set_from_json(obj) -> ConvexSet:
    if not isinstance(obj, dict) or "type" not in obj:
        raise FormatError("set must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "reals":
        _require_keys(obj, {"type", "dim"}, set(), "reals set")
        return Reals(_positive_int(obj["dim"], "reals dim"))
    if kind == "box":
        _require_keys(obj, {"type", "lower", "upper"}, set(), "box set")
        if not (isinstance(obj["lower"], list) and isinstance(obj["upper"], list)):
            raise FormatError("box lower and upper must be arrays")
        lower = [_decode_extended(v, "box lower") for v in obj["lower"]]
        upper = [_decode_extended(v, "box upper") for v in obj["upper"]]
        return Box(lower, upper)
    if kind == "ball":
        _require_keys(obj, {"type", "center", "radius"}, set(), "ball set")
        radius = _decode_extended(obj["radius"], "ball radius")
        return Ball(_finite_vector(obj["center"], "ball center"), radius)
    if kind == "polyhedron":
        _require_keys(obj, {"type", "A", "b"}, set(), "polyhedron set")
        A = _finite_rows(obj["A"], "polyhedron A")
        return Polyhedron(A, _finite_vector(obj["b"], "polyhedron b"))
    if kind == "singleton":
        _require_keys(obj, {"type", "point"}, set(), "singleton set")
        return Singleton(_finite_vector(obj["point"], "singleton point"))
    if kind == "product":
        _require_keys(obj, {"type", "factors"}, set(), "product set")
        if not isinstance(obj["factors"], list):
            raise FormatError("product factors must be an array of sets")
        return Product([set_from_json(f) for f in obj["factors"]])
    raise FormatError(f"unknown set type {kind!r}")


# ---------------------------------------------------------------------------
# problems


def problem_to_json(P: ProblemSpec) -> dict:
    out = {
        "version": PROBLEM_VERSION,
        "n": P.n,
        "T": P.T,
        "terminal_cost": ex.to_string(P.phi),
        "running_cost": ex.to_string(P.theta),
        "drift": [ex.to_string(g) for g in P.g],
        "omega1": set_to_json(P.omega1),
        "omega2": set_to_json(P.omega2),
    }
    if P.lipschitz_ell is not None:
        out["lipschitz_ell"] = P.lipschitz_ell
    return out


def problem_from_json(obj) -> ProblemSpec:
    _require_keys(
        obj,
        {
            "version", "n", "T", "terminal_cost", "running_cost",
            "drift", "omega1", "omega2",
        },
        {"lipschitz_ell"},
        "problem",
    )
    version = obj["version"]
    if type(version) is not int or version != PROBLEM_VERSION:
        raise FormatError(
            f"unsupported problem version {version!r}; "
            f"expected {PROBLEM_VERSION}"
        )
    n = _positive_int(obj["n"], "n")
    T = _decode_extended(obj["T"], "T")
    if not (math.isfinite(T) and T > 0):
        raise FormatError("T must be a positive finite real")
    drift = obj["drift"]
    if not isinstance(drift, list) or len(drift) != n:
        raise FormatError(f"drift must be a list of {n} expression strings")
    try:
        phi = ex.parse(str(obj["terminal_cost"]), n, ex.PROFILE_TERMINAL)
        theta = ex.parse(str(obj["running_cost"]), n, ex.PROFILE_RUNNING)
        g = [ex.parse(str(s), n, ex.PROFILE_DRIFT) for s in drift]
    except ex.ExprError as err:
        raise FormatError(f"bad expression in problem file: {err}") from err
    ell = obj.get("lipschitz_ell")
    if ell is not None:
        ell = _decode_extended(ell, "lipschitz_ell")
    return ProblemSpec(
        n=n,
        T=T,
        phi=phi,
        theta=theta,
        g=g,
        omega1=set_from_json(obj["omega1"]),
        omega2=set_from_json(obj["omega2"]),
        lipschitz_ell=ell,
    )


# ---------------------------------------------------------------------------
# trajectories / cell paths / multipliers


def trajectory_to_json(x: Trajectory) -> dict:
    return {"T": x.grid.T, "n": x.n, "values": x.values.tolist()}


def _values_matrix(obj, what: str) -> np.ndarray:
    values = obj["values"]
    if not isinstance(values, list) or not values:
        raise FormatError(f"{what} values must be a nonempty array of rows")
    rows = [row if isinstance(row, list) else [row] for row in values]
    arr = _finite_rows(rows, what)
    n = _positive_int(obj["n"], f"{what} n")
    if arr.shape[1] != n:
        raise FormatError(f"{what} rows have {arr.shape[1]} columns but n = {n}")
    return arr


def trajectory_from_json(obj) -> Trajectory:
    _require_keys(obj, {"T", "n", "values"}, set(), "trajectory")
    arr = _values_matrix(obj, "trajectory")
    if arr.shape[0] < 2:
        raise FormatError("trajectory needs at least two node rows")
    grid = Grid(_decode_extended(obj["T"], "T"), arr.shape[0] - 1)
    return Trajectory(grid, arr)


def cellpath_to_json(c: CellPath) -> dict:
    return {"T": c.grid.T, "n": c.n, "values": c.values.tolist()}


def cellpath_from_json(obj) -> CellPath:
    _require_keys(obj, {"T", "n", "values"}, set(), "cell path")
    arr = _values_matrix(obj, "cell path")
    grid = Grid(_decode_extended(obj["T"], "T"), arr.shape[0])
    return CellPath(grid, arr)


def multipliers_to_json(mu: CellPath, s1, s2) -> dict:
    return {
        "T": mu.grid.T,
        "n": mu.n,
        "mu": mu.values.tolist(),
        "s1": np.asarray(s1, dtype=float).tolist(),
        "s2": np.asarray(s2, dtype=float).tolist(),
    }


def multipliers_from_json(obj) -> tuple[CellPath, np.ndarray, np.ndarray]:
    _require_keys(obj, {"T", "n", "mu", "s1", "s2"}, set(), "multipliers")
    mu_obj = {"T": obj["T"], "n": obj["n"], "values": obj["mu"]}
    mu = cellpath_from_json(mu_obj)
    s1 = np.asarray(_finite_vector(obj["s1"], "s1"), dtype=float)
    s2 = np.asarray(_finite_vector(obj["s2"], "s2"), dtype=float)
    if s1.shape[0] != mu.n or s2.shape[0] != mu.n:
        raise FormatError("s1/s2 must have the state dimension")
    return mu, s1, s2


# ---------------------------------------------------------------------------
# serialization with non-finite floats, and atomic writes


def sanitize(value):
    """Replace non-finite floats by strings so output stays strict JSON."""
    if isinstance(value, dict):
        return {k: sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (np.floating, np.integer)):
        return sanitize(float(value))
    return value


def dumps(obj) -> str:
    """Compact strict JSON, one line.  Only an object the C encoder refuses
    (a non-finite float, a numpy scalar that is not a float) goes through
    sanitize."""
    try:
        text = json.dumps(obj, allow_nan=False)
    except (TypeError, ValueError):
        text = json.dumps(sanitize(obj), allow_nan=False)
    return text + "\n"


def atomic_write_text(path: str, text: str):
    """Write text to path through a temporary file beside it; an OSError
    names path, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from err
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def check_writable(path: str):
    """Raise OSError, naming path, unless a file can be created beside it:
    lets a command refuse an unwritable output before its work."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        os.close(fd)
        os.unlink(tmp)
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from err


def atomic_write_json(path: str, obj):
    atomic_write_text(path, dumps(obj))


def load_json(path: str):
    # callers prefix the path when reporting
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as err:  # a decode error, or an integer over the digit limit
        raise FormatError(f"malformed JSON ({err})") from err
    except OSError as err:
        raise FormatError(str(err)) from err
