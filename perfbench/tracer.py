"""Call tracing for the translim benchmark, installed from outside the package.

`Tracer.install` wraps the public functions of every translim module at
every place the name is bound (each module namespace that imported it, the
package namespace and module-level dispatch dicts) and the public methods of
every translim class, plus the few dunders and private methods that the
per-layer counters need.  Nothing in translim is edited; `uninstall` puts
the originals back.

Every wrapped call bumps a counter and adds its self time (its duration
minus the time its wrapped callees took) to its layer.  Coarse calls also
get a span (id, verdict, name, start, end, parent) while spans are being
recorded; recursive re-entries of a coarse function get none.  A layer is
the translim module that defines the function.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

LAYERS = ("ordinal", "pwcseq", "terms", "instances", "transfinite",
          "diagrams", "sampling", "ab5check", "suites", "reports", "cli")

TRACED_DUNDERS = frozenset(("__init__", "__post_init__", "__call__",
                            "__lt__", "__add__", "__radd__"))
TRACED_PRIVATE = frozenset(("_verify",))  # Homomorphism table verification

# Coarse calls get spans; every other wrapped call only counters and time.
COARSE = frozenset((
    "transfinite.lim_eval", "transfinite.sum_eval_from_lim",
    "transfinite.restrict_sum", "transfinite.verify_limit_term",
    "terms.evaluate", "terms.parse_term",
    "instances.Homomorphism.__init__", "instances.Submodule.__post_init__",
    "diagrams.limit_object", "diagrams.SystemMorphism.__init__",
    "cli.main", "suites.run_suite", "suites.transfinite_suite",
    "suites.diagrams_suite", "suites.ab5_suite",
    "ab5check.equivalence_audit", "ab5check.diagonal_factorization",
    "ab5check.eta_surjective_decision", "reports.SuiteReport.render_text",
))


def _is_coarse(qual: str) -> bool:
    return qual in COARSE or qual.rsplit(".", 1)[-1].startswith("check_")


class _Stat:
    __slots__ = ("calls", "incl_ns", "active")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0  # time of outermost calls only
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats = {}            # qualified name -> _Stat
        self.site_calls = Counter()  # "site:qualified name" -> calls
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.extra = Counter()     # lim_eval_pieces, image_chain_steps, ...
        self.spans = []
        self.recording = False
        self.verdict = -1
        self._children = []        # per open call: time of wrapped callees
        self._open_spans = []
        self._patches = []
        self._last_error = None
        self._hooks = {
            "transfinite.lim_eval": (self._count_pieces, None),
            "diagrams.limit_object": (None, self._count_depth),
            "pwcseq.PwcSeq.__init__": (self._count_built, None),
        }

    # -- hooks for the counters that are not plain call counts -------------

    def _count_pieces(self, args, kwargs):
        fam = args[1] if len(args) > 1 else kwargs["fam"]
        self.extra["lim_eval_pieces"] += len(fam.values)

    def _count_depth(self, result):
        self.extra["image_chain_steps"] += result.depth

    def _count_built(self, args, kwargs):
        values = args[3] if len(args) > 3 else kwargs.get("values", ())
        self.extra["pieces_built"] += len(values)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, qual, layer, site, error_type):
        stat = self.stats.setdefault(qual, _Stat())
        site_key = f"{site}:{qual}"
        self.site_calls[site_key] += 0
        pre, post = self._hooks.get(qual, (None, None))
        coarse = _is_coarse(qual)
        children = self._children
        self_ns = self.self_ns
        site_calls = self.site_calls
        perf = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            stat.calls += 1
            site_calls[site_key] += 1
            outer = stat.active == 0
            stat.active += 1
            if pre is not None and outer:
                pre(args, kwargs)
            span = (tracer._open_span(qual)
                    if coarse and outer and tracer.recording else None)
            children.append(0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                took = perf() - start
                self_ns[layer] += took - children.pop()
                if children:
                    children[-1] += took
                stat.active -= 1
                if outer:
                    stat.incl_ns += took
                if span is not None:
                    tracer._close_span(span)
            if post is not None and outer:
                post(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _open_span(self, qual):
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([sid, self.verdict, qual, time.perf_counter_ns(),
                           0, parent])
        self._open_spans.append(sid)
        return sid

    def _close_span(self, sid):
        self.spans[sid][4] = time.perf_counter_ns()
        self._open_spans.pop()

    def _patch(self, owner, name, value):
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def install(self, package):
        """Wrap every traced function of the imported translim package."""
        from translim.errors import TranslimError
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            if info.name in LAYERS:
                modules[info.name] = importlib.import_module(
                    f"{package.__name__}.{info.name}")
        namespaces = dict(modules, translim=package)
        functions = []  # (function, qualified name, layer)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    functions.append((obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._install_class(obj, layer, TranslimError)
        for fn, qual, layer in functions:
            for site, ns in namespaces.items():
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, name, self._wrap(
                            fn, qual, layer, site, TranslimError))
                    elif isinstance(value, dict) and not name.startswith("__"):
                        for key, item in list(value.items()):
                            if item is fn:
                                self._patch(value, key, self._wrap(
                                    fn, qual, layer, f"{site}.{name}",
                                    TranslimError))

    def _install_class(self, cls, layer, error_type):
        for name, attr in list(vars(cls).items()):
            if not (name in TRACED_DUNDERS or name in TRACED_PRIVATE
                    or not name.startswith("_")):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrap(attr.__func__, qual, layer,
                                                cls.__name__, error_type))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(attr, qual, layer, cls.__name__,
                                     error_type)
            else:
                continue
            self._patch(cls, name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- reading -----------------------------------------------------------

    def calls(self, qual: str) -> int:
        stat = self.stats.get(qual)
        return stat.calls if stat is not None else 0

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for q, s in self.stats.items()
                   if q.split(".", 1)[0] == layer)

    def module_ops(self) -> int:
        return sum(self.calls(f"instances.FiniteMod.{op}")
                   for op in ("add", "neg", "scal"))

    def counts(self) -> dict:
        """Every deterministic counter: calls per function, extras, errors."""
        out = {q: s.calls for q, s in sorted(self.stats.items())}
        out.update((f"extra.{k}", v) for k, v in sorted(self.extra.items()))
        out.update((f"{k}.errors", v) for k, v in self.errors.items())
        return out

    def span_summary(self) -> dict:
        """Per span name: count, total seconds and self seconds (duration
        minus the time its child spans cover)."""
        child_ns = Counter()
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for sid, _, name, start, end, _ in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[sid]) / 1e9
        return out

