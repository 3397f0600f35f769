"""In-memory spans around the layers of ``thingap``, patched in from outside.

Every public module-level function of each ``thingap`` module is replaced by
a timing wrapper in every ``thingap`` module that binds it (``verify`` and
``cli`` import ``assemble``, ``generate``, ... by name), and the few methods
that are called per probe, per point batch or per mesh station are wrapped
on their classes.  Nothing under ``src/`` is edited.  A span is
``[name, parent index, start, end, counters]``; spans stay in memory and are
reduced to per-layer metrics when the workload ends.

The wrappers are not thread-safe; the workloads run with ``--threads 1``.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("cli", "verify", "mesh", "coefficients", "solver", "auxiliary",
          "geometry", "oracle")

# Per-value serialization helpers: one span per float written would multiply
# the span count by the artifact size.  The write_json span covers them.
UNWRAPPED = {"cli.dumps", "cli.fmt_float"}

METHODS = (
    ("mesh", "Mesh", "locate"),
    ("coefficients", "CoefficientSet", "eval_A_many"),
    ("coefficients", "CoefficientSet", "eval_B_many"),
    ("coefficients", "CoefficientSet", "eval_C_many"),
    ("coefficients", "CoefficientSet", "eval_D_many"),
    ("geometry", "GapGeometry", "gap_width"),
)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _free_dofs(bc) -> int:
    return int((~bc.fixed).sum()) * int(bc.values.shape[1])


def _nnz_free(K, dof_fixed) -> int:
    """Nonzeros of K restricted to the free dofs (rows and columns)."""
    free = ~dof_fixed
    row_free = free.repeat(K.indptr[1:] - K.indptr[:-1])
    return int((row_free & free[K.indices]).sum())


# -- counters: pre(fn, args, kwargs) -> (args, kwargs, state);
#    post(fn, args, kwargs, result, state) -> dict -------------------------

def _pre_solve(fn, args, kwargs):
    system = args[0] if args else kwargs["system"]
    return args, kwargs, len(system._lu_cache)


def _post_solve(fn, args, kwargs, result, n_cached):
    system = args[0] if args else kwargs["system"]
    bc = args[1] if len(args) > 1 else kwargs["bc"]
    out = {"free_dofs": _free_dofs(bc), "factored": len(system._lu_cache) > n_cached}
    if out["factored"]:
        out["nnz_K"] = _nnz_free(system.K, bc.dof_mask())
    return out


def _pre_count_rows(fn, args, kwargs):
    """Replace the field argument ``f`` by one that counts the rows it gets."""
    counted = [0]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    f = bound.arguments["f"]

    def f_counted(X):
        counted[0] += _rows(X)
        return f(X)

    bound.arguments["f"] = f_counted
    return bound.args, bound.kwargs, counted


def _requested_pairs(fn, args, kwargs, result, state):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"pairs": int(bound.arguments["pairs"])}


def _fd_unknowns(fn, args, kwargs, result, state):
    values = result.values
    return {"unknowns": (values.shape[0] - 2) * (values.shape[1] - 2) * values.shape[2]}


def _mesh_size(fn, args, kwargs, result, state):
    return {"vertices": result.num_vertices, "triangles": result.num_triangles}


def _points(fn, args, kwargs, result, state):
    return {"points": len(result)}


COUNTERS = {
    "mesh.generate": (None, _mesh_size),
    "mesh.refine": (None, _mesh_size),
    "solver.assemble": (None, lambda fn, a, k, r, s: {"triangles": r.mesh.num_triangles}),
    "solver.solve_dirichlet": (_pre_solve, _post_solve),
    "auxiliary.field_gradients": (None, lambda fn, a, k, r, s: {
        "points": _rows(r) if r.ndim == 3 else 1}),
    "auxiliary.holder_seminorm": (None, _requested_pairs),
    "oracle.finite_difference_reference": (None, _fd_unknowns),
    "oracle.brute_force_seminorm": (_pre_count_rows,
                                    lambda fn, a, k, r, s: {"points": s[0]}),
}
for _suffix in ("A", "B", "C", "D"):
    COUNTERS[f"coefficients.eval_{_suffix}_many"] = (None, _points)


class Recorder:
    """Span store plus the stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name: str, fn):
        pre, post = COUNTERS.get(name, (None, None))
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = None
            if pre is not None:
                args, kwargs, state = pre(fn, args, kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[3] = clock()
                stack.pop()
                rec[4] = {"error": 1}
                raise
            rec[3] = clock()
            stack.pop()
            if post is not None:
                rec[4] = post(fn, args, kwargs, result, state)
            return result

        return wrapper


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "thingap" or name.startswith("thingap."))]


def _patch_everywhere(original, wrapper) -> None:
    for mod in _loaded_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install_tracing() -> Recorder:
    """Wrap every public function of each layer, and the per-point methods."""
    rec = Recorder()
    for layer in LAYERS:
        mod = sys.modules[f"thingap.{layer}"]
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                continue
            _patch_everywhere(fn, rec.wrap(name, fn))
    for layer, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"thingap.{layer}"], cls_name)
        setattr(cls, method, rec.wrap(f"{layer}.{method}", getattr(cls, method)))
    return rec


def install_dof_counter() -> list:
    """Untraced runs: count free dofs per solve, no clocks.  Returns [total]."""
    import thingap.solver as solver

    total = [0]
    original = solver.solve_dirichlet

    def counted(system, bc, *args, **kwargs):
        total[0] += _free_dofs(bc)
        return original(system, bc, *args, **kwargs)

    _patch_everywhere(original, counted)
    return total


# -- reduction to per-layer metrics -------------------------------------------

def _sum_counter(spans, name, key):
    return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer times and counts from a finished span list.

    ``<layer>.self_s`` is the time spans of that layer were open minus the
    time their child spans were open.  ``<layer>.<function>.s`` sums the
    durations of that function's outermost spans, so a recursive call is not
    counted twice.  The root spans are the ``cli.run`` calls, so
    ``trace.uncovered_frac`` (wall time outside every span) only shows the
    loop around them; ``trace.unattributed_frac`` is the share of wall time
    inside a root span but outside all its children: command bodies, private
    helpers and unwrapped methods that no named function accounts for.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    layer_self = {layer: 0.0 for layer in LAYERS}
    fn_s, fn_self, calls = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        layer = name.split(".", 1)[0]
        layer_self[layer] += dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        fn_self[name] = fn_self.get(name, 0.0) + dur[i] - child[i]
        p = s[1]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            fn_s[name] = fn_s.get(name, 0.0) + dur[i]
    roots = [i for i, s in enumerate(spans) if s[1] < 0]
    covered = sum(dur[i] for i in roots)
    root_self = sum(dur[i] - child[i] for i in roots)

    def s_of(name):
        return fn_s.get(name, 0.0)

    solves = [i for i, s in enumerate(spans) if s[0] == "solver.solve_dirichlet"]
    first = [i for i in solves if (spans[i][4] or {}).get("factored")]
    cached = sorted(set(solves) - set(first))
    errors = sum(1 for s in spans if s[0].startswith("solver.") and (s[4] or {}).get("error"))

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "cli.write_json.s": s_of("cli.write_json"),
        "cli.emit_tables.s": s_of("cli.emit_tables"),
        "verify.run_sweep.s": s_of("verify.run_sweep"),
        "verify.check_energy_scaling.s": s_of("verify.check_energy_scaling"),
        "verify.fit_rate.calls": calls.get("verify.fit_rate", 0),
        "verify.remainder_energy.s": s_of("verify.remainder_energy"),
        "mesh.generate.s": s_of("mesh.generate"),
        "mesh.refine.s": s_of("mesh.refine"),
        "mesh.vertices": (_sum_counter(spans, "mesh.generate", "vertices")
                          + _sum_counter(spans, "mesh.refine", "vertices")),
        "mesh.triangles": (_sum_counter(spans, "mesh.generate", "triangles")
                           + _sum_counter(spans, "mesh.refine", "triangles")),
        "mesh.locate.calls": calls.get("mesh.locate", 0),
        "mesh.locate.s": s_of("mesh.locate"),
        "coefficients.eval_A_many.s": s_of("coefficients.eval_A_many"),
        "coefficients.eval_A_many.calls": calls.get("coefficients.eval_A_many", 0),
        "coefficients.eval_A_many.points": _sum_counter(spans, "coefficients.eval_A_many",
                                                        "points"),
        "solver.assemble.s": s_of("solver.assemble"),
        "solver.assemble.self_s": fn_self.get("solver.assemble", 0.0),
        "solver.assemble.triangles": _sum_counter(spans, "solver.assemble", "triangles"),
        "solver.solve_first.s": sum((dur[i] for i in first), 0.0),
        "solver.solve_cached.s": sum((dur[i] for i in cached), 0.0),
        "solver.factorizations": len(first),
        "solver.solves": len(solves),
        "solver.factor_reuse": len(solves) / len(first) if first else 0.0,
        "solver.free_dofs": _sum_counter(spans, "solver.solve_dirichlet", "free_dofs"),
        "solver.nnz_K": _sum_counter(spans, "solver.solve_dirichlet", "nnz_K"),
        "solver.gradient_at.calls": calls.get("solver.gradient_at", 0),
        "solver.gradient_at.s": s_of("solver.gradient_at"),
        "solver.errors": errors,
        "auxiliary.holder_seminorm.s": s_of("auxiliary.holder_seminorm"),
        "auxiliary.holder_seminorm.calls": calls.get("auxiliary.holder_seminorm", 0),
        "auxiliary.holder_seminorm.pairs": _sum_counter(spans, "auxiliary.holder_seminorm",
                                                        "pairs"),
        "auxiliary.field_gradients.s": s_of("auxiliary.field_gradients"),
        "auxiliary.field_gradients.points": _sum_counter(
            spans, "auxiliary.field_gradients", "points"),
        "geometry.gap_width.calls": calls.get("geometry.gap_width", 0),
        "geometry.gap_width.s": s_of("geometry.gap_width"),
        "oracle.finite_difference_reference.s": s_of("oracle.finite_difference_reference"),
        "oracle.finite_difference_reference.unknowns": _sum_counter(
            spans, "oracle.finite_difference_reference", "unknowns"),
        "oracle.brute_force_seminorm.s": s_of("oracle.brute_force_seminorm"),
        "oracle.brute_force_seminorm.points": _sum_counter(
            spans, "oracle.brute_force_seminorm", "points"),
        "trace.spans": n,
        "trace.uncovered_frac": 1.0 - covered / wall_s if wall_s > 0 else 0.0,
        "trace.unattributed_frac": root_self / wall_s if wall_s > 0 else 0.0,
    })
    return m

