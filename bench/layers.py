"""Per-layer figures of one traced pass, measured from outside gradekit.

The pass runs under the standard library's cProfile.  Self time is
summed per module file; a span is the cumulative time of calls into a
set of functions from callers outside that set; counts are call counts
of named functions.  The one figure cProfile cannot see, whether a
`beta_isomorphism` search found a map, comes from a counting wrapper
installed for the pass.
"""

from __future__ import annotations

import cProfile
import fractions
import pstats
import sys

LAYERS = ("cli", "classify", "matgrade", "graddiv", "superlie", "bichar", "abgroup")

# (metric, module, dotted function names, what): "span" sums time in
# calls from outside the set, "calls" counts calls
NAMED = [
    ("classify.iso_s", "classify", ("iso_even_assoc", "iso_odd_assoc",
                                    "iso_lie_typeI", "iso_P"), "span"),
    ("classify.enumerate_s", "classify", ("enumerate_even_fine",
                                          "enumerate_odd_fine",
                                          "enumerate_P_fine"), "span"),
    ("matgrade.build_s", "matgrade", ("build_matrix_model",), "span"),
    ("matgrade.verify_s", "matgrade", ("verify_grading",), "span"),
    ("matgrade.ugroup_s", "matgrade", ("universal_group",), "span"),
    ("matgrade.odd_conversions", "matgrade", ("build_odd_from_G",), "calls"),
    ("graddiv.realization_lookups", "graddiv", ("StandardRealization.matrix",),
     "calls"),
    ("graddiv.monomial_products", "graddiv", ("MonomialMatrix.__mul__",), "calls"),
    ("superlie.p_intersection_s", "superlie", ("p_intersection",), "span"),
    ("superlie.verify_P_s", "superlie", ("verify_P_graded",), "span"),
    ("superlie.ugroup_P_s", "superlie", ("universal_P_group",), "span"),
    ("superlie.block_products", "superlie", ("BlockMatrix.__mul__",), "calls"),
    ("superlie.rref_calls", "superlie", ("_rref",), "calls"),
    ("bichar.iso_search_s", "bichar", ("beta_isomorphism",), "span"),
    ("bichar.iso_searches", "bichar", ("beta_isomorphism",), "calls"),
    ("bichar.value_calls", "bichar", ("Bicharacter.value",), "calls"),
    ("abgroup.hnf_s", "abgroup", ("hermite_normal_form",), "span"),
    ("abgroup.snf_calls", "abgroup", ("smith_normal_form",), "calls"),
    ("abgroup.hnf_calls", "abgroup", ("hermite_normal_form",), "calls"),
    ("abgroup.reduce_calls", "abgroup", ("FinGenAbGroup.reduce",), "calls"),
]


def _code_key(module, dotted: str) -> tuple:
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class SearchCounter:
    """Wraps beta_isomorphism where gradekit looks it up, counting calls
    that return a map; `restore` puts the original back."""

    def __init__(self):
        self.bichar = sys.modules["gradekit.bichar"]
        self.classify = sys.modules["gradekit.classify"]
        self.original = self.bichar.beta_isomorphism
        self.calls = self.hits = 0
        original = self.original

        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            self.calls += 1
            self.hits += out is not None
            return out

        self.bichar.beta_isomorphism = counted
        self.classify.beta_isomorphism = counted

    def restore(self) -> None:
        self.bichar.beta_isomorphism = self.original
        self.classify.beta_isomorphism = self.original


class Tracer:
    """A cProfile session switched on only around each CLI call."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.searches = SearchCounter()

    def __enter__(self):
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        return False

    def close(self) -> None:
        self.searches.restore()

    def metrics(self, odd_g_specs: int) -> dict:
        """{name: (value, unit)} for every per-layer figure."""
        stats = pstats.Stats(self.profile).stats
        files = {name: sys.modules[f"gradekit.{name}"].__file__ for name in LAYERS}
        files["fractions"] = fractions.__file__
        by_file = {path: name for name, path in files.items()}
        out = {}
        self_s = dict.fromkeys(files, 0.0)
        for (filename, _, _), (_, _, tt, _, _) in stats.items():
            name = by_file.get(filename)
            if name is not None:
                self_s[name] += tt
        for name, value in self_s.items():
            out[f"{name}.self_s"] = (value, "s")
        for metric, module, funcs, what in NAMED:
            mod = sys.modules[f"gradekit.{module}"]
            keys = {_code_key(mod, f) for f in funcs}
            if what == "calls":
                out[metric] = (sum(stats[k][1] for k in keys if k in stats), "count")
            else:
                out[metric] = (_span(stats, keys), "s")
        new = _code_key(fractions, "Fraction.__new__")
        out["fractions.created"] = (stats[new][1] if new in stats else 0, "count")
        conversions = out["matgrade.odd_conversions"][0]
        out["matgrade.odd_conversions_per_spec"] = (
            conversions / odd_g_specs if odd_g_specs else 0.0, "ratio")
        searches = self.searches
        out["bichar.iso_search_hit_share"] = (
            searches.hits / searches.calls if searches.calls else 0.0, "ratio")
        if searches.calls != out["bichar.iso_searches"][0]:
            raise RuntimeError("beta_isomorphism was called around the counter")
        return out


def _span(stats, keys) -> float:
    total = 0.0
    for key in keys:
        if key not in stats:
            continue
        _, _, _, ct, callers = stats[key]
        if not callers:
            total += ct
        for caller, (_, _, _, cct) in callers.items():
            if caller not in keys:
                total += cct
    return total

