"""Per-layer spans for the traced benchmark run.

`Tracer.install` rebinds the program's public layer functions, in every
loaded `carscid` module namespace that holds them, to wrappers that record a
span (layer, function, start, end, parent) and count the work handed to the
layer; `Tracer.uninstall` puts the originals back.  Several modules import
these names directly (`cid`, `averaging`, `sos`, `scattering`, `cli`), which is
why every namespace is searched rather than only the defining module.  Spans
stay in memory until the run ends; `layer_metrics` derives self times, counts
and unique-input ratios from them.

A target that no longer exists is skipped and reported, so a refactor that
removes or renames a function shows up as a zero count instead of a crash.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import sys
import warnings
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _batch(rotations) -> int:
    return math.prod(np.shape(rotations)[:-2])


def _tensor_key(tensors) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for name in ("alpha34", "alpha12", "gprime34", "a34"):
        digest.update(getattr(tensors, name).tobytes())
    return digest.digest()


def _rng_key(rng, n) -> str:
    return json.dumps([rng.bit_generator.state, n], sort_keys=True, default=str)


def _sos_terms(model, pump_stokes_optical) -> int:
    roles = model.roles
    pump_tensors = 3 if pump_stokes_optical else 1
    return 3 * len(roles.probe_intermediates) + pump_tensors * len(roles.pump_intermediates)


# Each target: (module, attribute, layer, work, key).  `work` maps the call's
# (args, kwargs) to extra counters of the layer; `key` to a hashable identity
# of the input, for the layer's unique_ratio.
TARGETS = (
    ("carscid.model_io", "parse_model_file", "model_io.parse", None, None),
    *(("carscid.tensors", name, "tensors.validate", None, None)
      for name in ("as_rank2", "as_sym_rank2", "as_rank3_sym_last", "as_rotation",
                   "as_unit_direction", "as_unit_polarization")),
    *(("carscid.tensors", name, "tensors.rotate",
       lambda a, k: {"rotations": _batch(_arg(a, k, 0, "rotation"))}, None)
      for name in ("rotate_rank2", "rotate_rank3")),
    ("carscid.tensors", "haar_random_rotations", "tensors.haar",
     lambda a, k: {"samples": int(_arg(a, k, 1, "n"))},
     lambda a, k: _rng_key(_arg(a, k, 0, "rng"), _arg(a, k, 1, "n"))),
    ("carscid.sos", "build_property_tensors", "sos.build",
     lambda a, k: {"terms": _sos_terms(
         _arg(a, k, 0, "model"),
         a[2] if len(a) > 2 else k.get("pump_stokes_optical", False))},
     None),
    ("carscid.invariants", "isotropic_invariants", "invariants.isotropic", None,
     lambda a, k: _tensor_key(_arg(a, k, 0, "tensors"))),
    ("carscid.invariants", "natural_from_isotropic", "invariants.natural", None, None),
    ("carscid.scattering", "vvvr_bracket_terms", "scattering.bracket_kernel", None, None),
    ("carscid.scattering", "BeamSet.collinear_vvv", "scattering.beams", None, None),
    *(("carscid.averaging", name, "averaging.closed_form", None, None)
      for name in ("averaged_terms", "averaged_electric", "averaged_magnetic",
                   "averaged_quadrupole")),
    ("carscid.averaging", "euler_zyz_grid", "averaging.grid",
     lambda a, k: {"nodes": math.prod(int(n) for n in _arg(a, k, 0, "order"))},
     lambda a, k: tuple(int(n) for n in _arg(a, k, 0, "order"))),
    ("carscid.averaging", "so3_quadrature_average", "averaging.quadrature", None, None),
    ("carscid.averaging", "mc_average", "averaging.mc",
     lambda a, k: {"samples": int(_arg(a, k, 1, "samples"))}, None),
    ("carscid.averaging", "verify_closed_forms", "averaging.verify", None, None),
    ("carscid.cid", "spectrum", "cid.spectrum",
     lambda a, k: {"points": len(_arg(a, k, 3, "shifts_cm1")),
                   "mode_points": len(_arg(a, k, 0, "modes"))
                   * len(_arg(a, k, 3, "shifts_cm1"))},
     None),
    ("carscid.cid", "signal_for_tensors", "cid.signal", None, None),
    *(("carscid.cid", name, "cid.natural_delta", None, None)
      for name in ("delta_eq12", "delta_eq13")),
)

#: Factory whose returned callables are the oracle integrands; each call of
#: one of them is a span of this layer over a batch of rotations.
BRACKET_FACTORY = ("carscid.averaging", "rotated_bracket_terms", "averaging.bracket")

#: Layers whose calls are run under a warning recorder; the warnings are
#: counted as the layer's defect_warnings and then re-issued unchanged.
WARNING_LAYERS = {"sos.build"}

#: Exceptions counted per layer under their own metric name.
RAISED_METRICS = {("averaging.quadrature", "NonConvergence"): "nonconverged"}


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list = []        # [layer, function, start, end, parent index]
        self.counts: Counter = Counter()
        self.inputs: defaultdict = defaultdict(set)
        self.missing: list = []
        self._stack: list = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.inputs = defaultdict(set)
        self._stack = []

    def wrap(self, layer: str, fn, work=None, key=None):
        """`fn` with a span of `layer` around every call."""
        recorder = warnings.catch_warnings if layer in WARNING_LAYERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[layer, "calls"] += 1
            if work is not None:
                for name, amount in work(args, kwargs).items():
                    self.counts[layer, name] += amount
            if key is not None:
                self.inputs[layer].add(key(args, kwargs))
            if recorder is None:
                return self._call(layer, fn, args, kwargs)
            with recorder(record=True) as caught:
                warnings.simplefilter("always")
                result = self._call(layer, fn, args, kwargs)
            self.counts[layer, "defect_warnings"] += len(caught)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return traced

    def _call(self, layer, fn, args, kwargs):
        span = [layer, fn.__name__, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counts[layer, "raised." + type(exc).__name__] += 1
            raise
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def _wrap_factory(self, layer: str, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            work = lambda a, k: {"rotations": _batch(a[0])}
            if callable(made):
                return self.wrap(layer, made, work)
            return type(made)(self.wrap(layer, f, work) if callable(f) else f
                              for f in made)

        return traced_factory

    def install(self) -> None:
        """Rebind every target in all loaded `carscid` namespaces."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "carscid" or name.startswith("carscid.")]
        self.missing = []
        for module_name, attr, layer, work, key in TARGETS:
            self._rebind(namespaces, module_name, attr,
                         lambda fn: self.wrap(layer, fn, work, key))
        module_name, attr, layer = BRACKET_FACTORY
        self._rebind(namespaces, module_name, attr,
                     lambda fn: self._wrap_factory(layer, fn))

    def _rebind(self, namespaces, module_name: str, attr: str, make) -> None:
        owner = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            raw = vars(getattr(owner, class_name, object)).get(method)
            if not isinstance(raw, classmethod):
                self.missing.append(f"{module_name}.{attr}")
                return
            cls = getattr(owner, class_name)
            setattr(cls, method, classmethod(make(raw.__func__)))
            self._restore.append((cls, method, raw))
            return
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, name, wrapper)
                    self._restore.append((namespace, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def layer_metrics(self) -> dict:
        """Per-layer counters, self times and unique-input ratios.

        A span's self time is its duration minus that of its child spans, so
        the self times of all layers add up to the root span's duration.
        """
        durations = [end - start for _, _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span[4] is not None:
                children[span[4]] += duration
        metrics: Counter = Counter()
        for span, duration, child in zip(self.spans, durations, children):
            metrics[span[0] + ".self_s"] += duration - child
        for (layer, name), amount in self.counts.items():
            if name.startswith("raised."):
                name = RAISED_METRICS.get((layer, name[len("raised."):]))
                if name is None:
                    continue
            metrics[f"{layer}.{name}"] += amount
        for layer, keys in self.inputs.items():
            calls = self.counts[layer, "calls"]
            metrics[layer + ".unique_ratio"] = len(keys) / calls if calls else 1.0
        return dict(metrics)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, function, start, end, parent in self.spans:
                handle.write(json.dumps({"name": layer, "function": function,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")
