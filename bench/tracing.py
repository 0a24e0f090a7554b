"""Spans around the calls into semidyn's public functions.

A `Tracer` wraps each function named in `LAYERS` and installs the wrapper on
every semidyn module attribute that refers to the function, because each
module calls its collaborators through its own imported names (grid calls
`grid.eval_array`, words calls `words.find_clean_points`, and so on).
Nothing in the package is edited; `uninstall` puts the originals back.

Each span records its name, start, end, parent span, operation id, a size
(input elements for `eval_array`, group order for `group_closure`) and
whether the call raised.  Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, function, size of the call's work from its result, or None)
LAYERS = (
    ("cli", "main", None),
    ("grid", "classify_map", None),
    ("grid", "map_classification", None),
    ("grid", "compare_classifications", None),
    ("grid", "map_mask", None),
    ("grid", "extract_julia_boundary", None),
    ("grid", "fatou_mask", None),
    ("grid", "check_fatou_invariance", None),
    ("grid", "status_bytes", None),
    ("grid", "heatmap_bytes", None),
    ("grid", "write_pgm", None),
    ("expr", "eval_array", lambda out: out[0].size),
    ("expr", "numerically_equal", None),
    ("commutator", "find_clean_points", None),
    ("commutator", "is_nearly_abelian", None),
    ("commutator", "group_closure", len),
    ("words", "normal_form", None),
    ("words", "resolve_xi", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in LAYERS)

# grid post-processing after classification, and artifact emission; a
# group's time counts only its outermost spans, since fatou_mask calls
# extract_julia_boundary and so on
GROUPS = {
    "grid.transport_post": (
        "grid.map_classification",
        "grid.compare_classifications",
        "grid.map_mask",
        "grid.extract_julia_boundary",
        "grid.fatou_mask",
        "grid.check_fatou_invariance",
    ),
    "grid.artifacts": ("grid.status_bytes", "grid.heatmap_bytes", "grid.write_pgm"),
}

# counts that depend only on the operation's input, so they must repeat
# exactly when the same operation runs again
EXACT_COUNTS = ("expr.eval_array", "words.resolve_xi", "commutator.find_clean_points")

MARK = "__bench_wrapped__"


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.raised = array("B")
        self.op_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, size_of):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.op.append(self.op_id)
            self.parent.append(self._stack[-1])
            self.size.append(0)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if size_of is not None:
                self.size[idx] = size_of(out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "semidyn"]
        for name_id, (mod, fn_name, size_of) in enumerate(LAYERS):
            original = getattr(sys.modules[f"semidyn.{mod}"], fn_name)
            wrapper = self._wrap(name_id, original, size_of)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.uint8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def leftover_wrappers() -> list[str]:
    """Module attributes under semidyn that still hold a wrapper."""
    return [
        f"{n}.{attr}"
        for n, m in list(sys.modules.items())
        if n.split(".")[0] == "semidyn"
        for attr, value in vars(m).items()
        if getattr(value, MARK, False)
    ]


def op_counts(spans: dict[str, np.ndarray], op_id: int) -> dict[str, int]:
    """Exact counts for one operation: calls of each EXACT_COUNTS function,
    plus the elements eval_array was given."""
    sel = spans["op"] == op_id
    out = {}
    for name in EXACT_COUNTS:
        out[f"{name}.calls"] = int((sel & (spans["name"] == SPAN_NAMES.index(name))).sum())
    hit = sel & (spans["name"] == SPAN_NAMES.index("expr.eval_array"))
    out["expr.eval_array.elements"] = int(spans["size"][hit].sum())
    return out


def layer_metrics(spans: dict[str, np.ndarray], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of operations 0..n_ops-1."""
    keep = (spans["op"] >= 0) & (spans["op"] < n_ops)
    name, parent = spans["name"][keep], spans["parent"][keep]
    dur = (spans["end"] - spans["start"])[keep]
    size, raised = spans["size"][keep], spans["raised"][keep]
    # parent indices refer to the unfiltered arrays; every kept span's
    # parent is kept too, because an operation's spans nest inside its main
    index = np.nonzero(keep)[0]
    child_time = np.zeros(len(spans["name"]))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time[index]

    def of(span: str) -> np.ndarray:
        return name == SPAN_NAMES.index(span)

    def outermost_in(group: tuple[str, ...]) -> np.ndarray:
        ids = [SPAN_NAMES.index(g) for g in group]
        member_all = np.isin(spans["name"], ids)
        member = np.isin(name, ids)
        covered = np.zeros(len(name), dtype=bool)
        p = parent.copy()
        while True:
            live = p >= 0
            if not live.any():
                break
            covered[live] |= member_all[p[live]]
            p[live] = spans["parent"][p[live]]
        return member & ~covered

    m: dict[str, tuple[float, str]] = {}

    def put(key: str, value, unit: str) -> None:
        m[key] = (float(value), unit)

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    cm, ea = of("grid.classify_map"), of("expr.eval_array")
    put("grid.classify_map.s", dur[cm].sum(), "s")
    put("grid.classify_map.calls", cm.sum(), "count")
    put("grid.classify_map.self_s", self_time[cm].sum(), "s")
    for group, members in GROUPS.items():
        put(f"{group}.s", dur[outermost_in(members)].sum(), "s")
    put("expr.eval_array.s", dur[ea].sum(), "s")
    put("expr.eval_array.calls", ea.sum(), "count")
    put("expr.eval_array.elements", size[ea].sum(), "count")
    put("expr.eval_array.elements_per_call", ratio(size[ea].sum(), ea.sum()), "count")
    ne = of("expr.numerically_equal")
    put("expr.numerically_equal.s", dur[ne].sum(), "s")
    put("expr.numerically_equal.calls", ne.sum(), "count")
    fc = of("commutator.find_clean_points")
    put("commutator.find_clean_points.s", dur[fc].sum(), "s")
    put("commutator.find_clean_points.calls", fc.sum(), "count")
    put("commutator.find_clean_points.raised", raised[fc].sum(), "count")
    put(
        "commutator.find_clean_points.success_ratio",
        ratio(fc.sum() - raised[fc].sum(), fc.sum()),
        "ratio",
    )
    put("commutator.is_nearly_abelian.s", dur[of("commutator.is_nearly_abelian")].sum(), "s")
    gc = of("commutator.group_closure")
    put("commutator.group_closure.s", dur[gc].sum(), "s")
    put("commutator.group_size", size[gc].max() if gc.any() else 0, "count")
    nf = of("words.normal_form")
    put("words.normal_form.s", dur[nf].sum(), "s")
    put("words.normal_form.calls", nf.sum(), "count")
    put("words.normal_form.raised", raised[nf].sum(), "count")
    rx = of("words.resolve_xi")
    put("words.resolve_xi.s", dur[rx].sum(), "s")
    put("words.resolve_xi.calls", rx.sum(), "count")
    put("words.resolve_xi.calls_per_op", ratio(rx.sum(), n_ops), "count")
    mn = of("cli.main")
    put("cli.main.s", dur[mn].sum(), "s")
    put("cli.main.self_s", self_time[mn].sum(), "s")
    return m
