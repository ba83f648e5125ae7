"""Span tracing installed from outside the library.

``Tracer.install`` replaces every public function of the eight
``asep_exact`` layer modules, in every module namespace that binds it
(including aliases such as ``cli.mc_compare`` and the package's own
re-exports), with a wrapper that records one span per call: name, start,
end, parent span, benchmark case id, whether it raised, and whether it ran
in exact ``Fraction`` mode.  ``numpy.einsum`` is wrapped the same way,
because ``transition_prob`` looks it up on ``numpy`` at call time and is
its only caller.  ``Tracer.restore`` puts every original binding back;
``assert_untraced`` proves it.  No file of the library is touched.

Spans stay in compact arrays in memory and are written out once, at the
end of a run.  Every call runs on one thread, so child spans nest strictly
inside their parent and a span's self time is its duration minus the sum
of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "bethe_algebra",
    "permutations",
    "species_coeff",
    "contour_quadrature",
    "transition_prob",
    "markov_oracle",
    "mc_simulator",
    "cli",
)
EINSUM = "numpy.einsum"

# Span names whose result carries a work count worth recording.
_SIZES = {
    "markov_oracle.build_generator": lambda result: result.shape[0],
    "mc_simulator.simulate": lambda result: result.trials,
}
# Layers whose calls take a RateParams that says whether they run exact.
_MODED = ("bethe_algebra", "species_coeff")


def layer_modules(package):
    return [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS]


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield attr, obj


def _is_exact(args, kwargs, rate_type) -> int:
    for value in (*args, *kwargs.values()):
        if type(value) is rate_type:
            return int(value.exact)
    return 0


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self, package):
        self.package = package
        self.modules = layer_modules(package)
        self.names: list[str] = []
        self.case_labels: list[str] = []
        self.case = -1
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.case_id = array("q")
        self.raised = array("b")
        self.exact = array("b")
        self.size = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- case bookkeeping -------------------------------------------------

    def set_case(self, label: str) -> None:
        self.case = len(self.case_labels)
        self.case_labels.append(label)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        case_id, raised, exact, size = self.case_id, self.raised, self.exact, self.size
        stack = self._stack
        clock = time.perf_counter
        sizer = _SIZES.get(name)
        rate_type = self.package.RateParams if name.split(".")[0] in _MODED else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            case_id.append(tracer.case)
            raised.append(0)
            exact.append(_is_exact(args, kwargs, rate_type) if rate_type else 0)
            size.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if sizer is not None:
                size[idx] = sizer(result)
            return result

        wrapper.__bench_span__ = name
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in _public_functions(module):
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for namespace in [self.package, *self.modules]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrapped:
                    self._patch(namespace, attr, wrapped[id(obj)])
        space = importlib.import_module(f"{self.package.__name__}.markov_oracle").StateSpace
        build = space.__dict__["build"]
        self._patch(space, "build", classmethod(self._wrap("markov_oracle.StateSpace.build", build.__func__)))
        self._patch(np, "einsum", self._wrap(EINSUM, np.einsum))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        assert_untraced(self.package)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with per-span duration and self time."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "name_id": np.array(self.name_id, dtype=np.int64),
            "case_id": np.array(self.case_id, dtype=np.int64),
            "raised": np.array(self.raised, dtype=bool),
            "exact": np.array(self.exact, dtype=bool),
            "size": np.array(self.size, dtype=np.int64),
            "duration": duration,
            "self_time": duration - child_time,
        }

    def write(self, path) -> None:
        """Spans to a compressed .npz file, times relative to the first span."""
        spans = self.arrays()
        origin = spans["start"][0] if len(spans["start"]) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            cases=np.array(self.case_labels),
            start=spans["start"] - origin,
            end=spans["end"] - origin,
            parent=spans["parent"],
            name_id=spans["name_id"],
            case_id=spans["case_id"],
            raised=spans["raised"],
            exact=spans["exact"],
            size=spans["size"],
        )


def assert_untraced(package) -> None:
    """Raise if any tracing wrapper is still bound anywhere it could run."""
    if hasattr(np.einsum, "__bench_span__"):
        raise RuntimeError("tracing wrapper left on numpy.einsum")
    owners = [package, *layer_modules(package)]
    owners.append(importlib.import_module(f"{package.__name__}.markov_oracle").StateSpace)
    for owner in owners:
        for attr, obj in vars(owner).items():
            target = obj.__func__ if isinstance(obj, classmethod) else obj
            if hasattr(target, "__bench_span__"):
                raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")
