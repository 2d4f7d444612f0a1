"""In-memory span tracing around efimov_lab's public functions.

A span is (name, layer, start, end, parent, count): `parent` is the index
of the enclosing span or -1, and `count` is the work the call carried
where one is defined (Numerov steps, grid points tabulated, radii whose
nu^2 was re-solved, levels found).  Spans are recorded by wrappers that
this file installs over every name a caller binds, so `cli.find_spectrum`
and `radial.integrate_numerov` are traced as well as the definitions.
The package itself is never edited; `Tracer.installed()` restores every
original binding on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

# (module, attribute, layer); the attribute is a function, or Class.method
TARGETS = [
    ("hyperangular", "tabulate_branch", "hyperangular"),
    ("hyperangular", "solve_branches", "hyperangular"),
    ("hyperangular", "efimov_constants", "hyperangular"),
    ("hyperangular", "effective_potential", "hyperangular"),
    ("hyperangular", "AdiabaticBranch.nu_squared_at", "hyperangular"),
    ("radial", "find_spectrum", "radial"),
    ("radial", "collapse_probe", "radial"),
    ("radial", "integrate_radial", "radial"),
    ("radial", "node_analysis", "radial"),
    ("radial", "_Workspace.__init__", "radial"),
    ("radial", "_Workspace.integrate", "radial"),
    ("_kernel", "integrate_numerov", "kernel"),
    ("meanfield", "classify_stability", "meanfield"),
    ("meanfield", "energy_density", "meanfield"),
    ("meanfield", "energy_per_particle", "meanfield"),
    ("cli", "cmd_constants", "cli"),
    ("cli", "cmd_potential", "cli"),
    ("cli", "cmd_spectrum", "cli"),
    ("cli", "cmd_nodes", "cli"),
    ("cli", "cmd_meanfield", "cli"),
    ("cli", "cmd_branches", "cli"),
]

MODULES = ["efimov_lab", "efimov_lab.cli", "efimov_lab.core", "efimov_lab.hyperangular",
           "efimov_lab.radial", "efimov_lab.meanfield", "efimov_lab._kernel",
           "efimov_lab._kernel._pure"]

KERNEL_BYTES_PER_STEP = 24   # w read, g and log_scale written: 3 float64 per step


def _count(name, args, result):
    """Work carried by one call, or None where the name has no count."""
    if name == "integrate_numerov":
        return len(args[0])
    if name == "tabulate_branch":
        # at unitarity the branch is a constant fill, not a continuation
        return 0 if args[0].at_unitarity else int(args[1].points)
    if name == "find_spectrum":
        return len(result)
    if name == "AdiabaticBranch.nu_squared_at":
        branch = args[0]
        resolved = branch.config is not None and not branch.config.at_unitarity
        return int(getattr(result, "size", 1)) if resolved else 0
    return None


class Tracer:
    """Collects spans while installed; single-threaded callers only."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[5] = _count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them on exit."""
        undo = []
        mods = [importlib.import_module(m) for m in MODULES]
        try:
            for modname, attr, layer in TARGETS:
                home = importlib.import_module("efimov_lab." + modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(attr, layer, orig))
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(attr, layer, orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _has_ancestor(spans, i, name):
    p = spans[i][4]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][4]
    return False


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one run's spans (several runs may be
    concatenated as long as each keeps its own parent indices)."""
    own = _self_times(spans)

    def dur(s):
        return s[3] - s[2]

    def top(layer):
        """Spans of `layer` not nested in another span of the same layer."""
        return [s for s in spans if s[1] == layer and
                (s[4] < 0 or spans[s[4]][1] != layer)]

    kernel = [s for s in spans if s[1] == "kernel"]
    steps = sum(s[5] for s in kernel)
    kernel_s = sum(dur(s) for s in kernel)
    resolve = [s for s in spans if s[0] == "AdiabaticBranch.nu_squared_at" and s[5]]
    resolve_points = sum(s[5] for s in resolve)
    resolve_s = sum(dur(s) for s in resolve)
    tab = [s for s in spans if s[0] == "tabulate_branch"]
    tab_points = sum(s[5] for s in tab)
    tab_s = sum(dur(s) for s in tab)
    sb = [s for s in top("hyperangular") if s[0] == "solve_branches"]
    levels = sum(s[5] for s in spans if s[0] == "find_spectrum")
    integrations = [i for i, s in enumerate(spans) if s[0] == "_Workspace.integrate"]
    level_integrations = sum(1 for i in integrations
                             if _has_ancestor(spans, i, "find_spectrum"))
    mf = top("meanfield")
    return {
        "cli.self_s": sum(o for s, o in zip(spans, own) if s[1] == "cli"),
        "hyperangular.resolve_points": resolve_points,
        "hyperangular.resolve_s": resolve_s,
        "hyperangular.roots_per_s": resolve_points / resolve_s if resolve_s else 0.0,
        "hyperangular.tabulate_points": tab_points,
        "hyperangular.tabulate_s": tab_s,
        "hyperangular.tabulate_points_per_s": tab_points / tab_s if tab_s else 0.0,
        "hyperangular.solve_branches_calls": len(sb),
        "hyperangular.solve_branches_s": sum(dur(s) for s in sb),
        "radial.levels": levels,
        "radial.workspaces": sum(1 for s in spans if s[0] == "_Workspace.__init__"),
        "radial.integrations": len(integrations),
        "radial.integrations_per_level": level_integrations / levels if levels else 0.0,
        "radial.self_s": sum(o for s, o in zip(spans, own) if s[1] == "radial"),
        "kernel.calls": len(kernel),
        "kernel.steps": steps,
        "kernel.s": kernel_s,
        "kernel.steps_per_s": steps / kernel_s if kernel_s else 0.0,
        "kernel.bytes_computed": KERNEL_BYTES_PER_STEP * steps,
        "meanfield.calls": len(mf),
        "meanfield.s": sum(dur(s) for s in mf),
    }


def concat(runs) -> list:
    """Join span lists from several runs, shifting their parent indices."""
    out = []
    for spans in runs:
        base = len(out)
        out.extend([*s[:4], s[4] + base if s[4] >= 0 else -1, s[5]] for s in spans)
    return out
