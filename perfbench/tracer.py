"""Layer tracing for species_forge, installed from outside the package.

The tracer replaces public functions of each module at every import site
(the package uses ``from .x import y``, so each importing module holds its
own reference) and the structure-map methods of the model classes.  Nothing
inside ``src/`` knows about it.

Two kinds of boundary:

* spans (requests, axiom checkers, antipode methods, idempotent checks,
  eliminations) are kept one by one with name, start, end, self time and
  parent span;
* hot leaves (kernels, enumerations, structure maps, mu/delta along a
  shape, LinComb arithmetic, ...) are aggregated per parent span into
  count, total time and self time, so memory stays bounded.

Every boundary belongs to a group.  A call into a group that is already on
the stack runs unwrapped, so nested calls within one layer (``product`` ->
``product_key``) count once.  ``Fraction.__new__`` is counted, not timed:
timing every rational construction would dominate the run.
"""

import importlib
import time
from fractions import Fraction

perf = time.perf_counter

KERNELS = ("popcount", "mask_permute", "comp_permute", "comp_restrict",
           "dec_restrict", "comp_tits", "dec_tits", "comp_refines", "area",
           "dist", "dist_opp", "tits_perm")
ENUMERATIONS = ("partitions_of", "compositions_of", "decompositions_exact",
                "decompositions_of", "refinements", "partition_refinements",
                "coarsenings", "partition_coarsenings", "quasi_shuffles",
                "shuffles", "splittings", "submasks")
GRAPHS = ("edge_index", "edge_vertices", "edge_list", "edges_from_pairs",
          "all_edges_mask", "edges_between", "graph_restrict", "graph_permute",
          "graph_complement", "components", "is_connected", "component_count",
          "restrict_to_partition", "contract", "contraction_lattice",
          "acyclic_orientations", "complete_on_partition", "graphs_on",
          "encode_graph", "decode_graph")
CHECKERS = ("check_naturality", "check_associativity", "check_unitality",
            "check_coassociativity", "check_counitality", "check_compatibility",
            "check_degree_zero", "check_commutativity", "check_cocommutativity",
            "check_higher_compatibility", "check_higher_compatibility_dec")
SERIES = ("unit_series", "cauchy", "cauchy_power", "bracket",
          "functional_calculus", "exp_series", "log_series", "power_series",
          "is_exponential", "is_group_like", "is_primitive_series",
          "is_gh_primitive", "check_invariance", "uni_series", "euler_series",
          "exponential_series_E", "group_like_series_L",
          "primitive_series_witnesses", "tits_series_uni", "tits_series_euler",
          "tits_series_h_power", "operator_family_from_tits",
          "exp_log_bijection_check")
# structure-map methods of the model classes -> boundary name
STRUCTURE_MAPS = {"product": "models.product", "product_key": "models.product",
                  "coproduct": "models.coproduct", "coproduct_key": "models.coproduct",
                  "relabel": "models.relabel", "relabel_lc": "models.relabel"}
LINCOMB_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "scale")
MODULES = ("_kernels_py", "kernels", "setcomb", "graphs", "exactlin", "species",
           "models", "antipode", "titsops", "series", "gf", "cli")


def _note_rref(tr, args, result):
    rows, limit = args[0], (args[1] if len(args) > 1 else None)
    ncols = (len(rows[0]) if rows else 0) if limit is None else limit
    tr.extra["rref_rows"] += len(rows)
    tr.extra["rref_cells"] += len(rows) * ncols
    tr.extra["rref_pivots"] += len(result[1])


def _note_delta_key(tr, args, result):
    if result is not None:
        tr.extra["delta_key_useful"] += 1
    tr.extra["delta_key_calls"] += 1


def _note_mu(tr, args, result):
    # terms a Takeuchi column accumulates: one per monomial image, else one
    # per term of the image LinComb
    if tr.flag("antipode.takeuchi_column"):
        tr.extra["takeuchi_accumulated"] += 1 if isinstance(result, tuple) else len(result.terms)


def _note_takeuchi_column(tr, args, result):
    tr.extra["takeuchi_surviving"] += len(result.terms)


def _note_tits_multiply(tr, args, result):
    tr.extra["tits_term_pairs"] += len(args[0].coeffs.terms) * len(args[1].coeffs.terms)


def boundaries():
    """(module, function, boundary name, group, is_span, note) for each
    wrapped module-level function."""
    out = []
    out += [("kernels", f, "kernels." + f, "kernels", False, None) for f in KERNELS]
    out += [("setcomb", f, "setcomb." + f, "setcomb", False, None) for f in ENUMERATIONS]
    out += [("graphs", f, "graphs." + f, "graphs", False, None) for f in GRAPHS]
    out += [("species", f, "species." + f, "species.axiom", True, None) for f in CHECKERS]
    out += [
        ("species", "mu_shape", "species.mu", "species.mudelta", False, _note_mu),
        ("species", "mu_shape_key", "species.mu", "species.mudelta", False, _note_mu),
        ("species", "higher_mu", "species.mu", "species.mudelta", False, None),
        ("species", "delta_shape", "species.delta", "species.mudelta", False, None),
        ("species", "delta_shape_key", "species.delta", "species.mudelta", False, _note_delta_key),
        ("species", "higher_delta", "species.delta", "species.mudelta", False, None),
        ("species", "convolve", "species.convolve", "species.convolve", True, None),
        ("exactlin", "lc_sum", "exactlin.lincomb", "exactlin.lincomb", False, None),
        ("exactlin", "_rref", "exactlin.rref", "exactlin.rref", True, _note_rref),
        ("antipode", "antipode", "antipode.antipode", "antipode.antipode", True, None),
        ("antipode", "antipode_family", "antipode.family", "antipode.family", True, None),
        ("antipode", "_takeuchi_map", "antipode.takeuchi", "antipode.takeuchi", True, None),
        ("antipode", "takeuchi_column", "antipode.takeuchi_column", "antipode.takeuchi_column",
         False, _note_takeuchi_column),
        ("antipode", "_mm_map", "antipode.mm", "antipode.mm", True, None),
        ("antipode", "closed_form", "antipode.closed", "antipode.closed", False, None),
        ("antipode", "verify_antipode", "antipode.verify", "antipode.verify", True, None),
        ("titsops", "tits_multiply", "titsops.tits_multiply", "titsops.tits_multiply",
         False, _note_tits_multiply),
        ("titsops", "characteristic_op", "titsops.charop", "titsops.charop", False, None),
        ("titsops", "primitive_dimension_ranks", "titsops.primitive", "titsops.primitive", True, None),
        ("titsops", "primitive_part", "titsops.primitive_part", "titsops.primitive_part", True, None),
        ("titsops", "eulerian_decomposition", "titsops.eulerian_decomposition",
         "titsops.eulerian_decomposition", True, None),
        ("cli", "_emit", "cli.emit", "cli.emit", False, None),
    ]
    out += [("series", f, "series." + f, "series", False, None) for f in SERIES]
    return out


class Tracer:
    """Spans and per-span leaf aggregates for one traced pass.

    ``spans[i]`` is ``[name, parent index, start, end, self_s, fractions,
    label]``; ``leaves[(span index, name)]`` is ``[count, total_s, self_s]``.
    Span index -1 is the root (outside any span).
    """

    def __init__(self):
        self.spans = []
        self.leaves = {}
        self.extra = {k: 0 for k in (
            "rref_rows", "rref_cells", "rref_pivots", "delta_key_calls",
            "delta_key_useful", "takeuchi_accumulated", "takeuchi_surviving",
            "tits_term_pairs")}
        self.fractions = [0]
        self._child = [[0.0]]     # child-time accumulator of each open frame
        self._span_stack = [-1]
        self._flags = {}
        self._undo = []

    def flag(self, group):
        return self._flags.setdefault(group, [False])[0]

    def _wrap(self, fn, name, group, is_span, note):
        flag = self._flags.setdefault(group, [False])
        child, span_stack, spans, leaves = self._child, self._span_stack, self.spans, self.leaves
        fractions = self.fractions
        tracer = self

        def wrapper(*args, **kwargs):
            if flag[0]:
                return fn(*args, **kwargs)
            flag[0] = True
            frame = [0.0]
            child.append(frame)
            if is_span:
                rec = [name, span_stack[-1], 0.0, 0.0, 0.0, fractions[0], None]
                span_stack.append(len(spans))
                spans.append(rec)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                child.pop()
                flag[0] = False
                child[-1][0] += dur
                if is_span:
                    span_stack.pop()
                    rec[2], rec[3], rec[4] = t0, t1, dur - frame[0]
                    rec[5] = fractions[0] - rec[5]
                else:
                    key = (span_stack[-1], name)
                    acc = leaves.get(key)
                    if acc is None:
                        leaves[key] = [1, dur, dur - frame[0]]
                    else:
                        acc[0] += 1
                        acc[1] += dur
                        acc[2] += dur - frame[0]
            if note is not None:
                note(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def request(self, label, fn):
        """Run ``fn()`` as a top-level ``request`` span labelled ``label``."""
        index = len(self.spans)
        try:
            return self._wrap(fn, "request", "request", True, None)()
        finally:
            self.spans[index][6] = label

    def install(self, package="species_forge"):
        """Wrap every boundary at every import site; undone by uninstall()."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        replace = {}
        for mod, fname, name, group, is_span, note in boundaries():
            fn = getattr(mods[mod], fname)
            replace[id(fn)] = (fn, self._wrap(fn, name, group, is_span, note))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        base = mods["species"].SpeciesModel
        classes = {value for mod in (mods["species"], mods["models"]) for value in vars(mod).values()
                   if isinstance(value, type) and issubclass(value, base)}
        for cls in classes:
            for meth, name in STRUCTURE_MAPS.items():
                if meth in vars(cls):
                    self._set(cls, meth, self._wrap(vars(cls)[meth], name, "models", False, None))
        lincomb = mods["exactlin"].LinComb
        for meth in LINCOMB_OPS:
            self._set(lincomb, meth, self._wrap(
                vars(lincomb)[meth], "exactlin.lincomb", "exactlin.lincomb", False, None))
        orig_new = vars(Fraction)["__new__"]
        new_fn = orig_new.__func__
        count = self.fractions

        def counted_new(cls, *args, **kwargs):
            count[0] += 1
            return new_fn(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(counted_new), orig_new)

    def _set(self, owner, attr, value, original=None):
        if original is None:
            original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading the trace ---------------------------------------------------

    def _leaf_sum(self, pred, field):
        return sum(acc[field] for (_, name), acc in self.leaves.items() if pred(name))

    def _span_sum(self, pred):
        return sum(s[3] - s[2] for s in self.spans if pred(s[0]))

    def _span_count(self, pred):
        return sum(1 for s in self.spans if pred(s[0]))

    def metrics(self):
        """Per-layer counts and seconds of the traced pass, by metric name."""
        leaf_count = lambda *names: self._leaf_sum(lambda n: n in names, 0)
        leaf_total = lambda *names: self._leaf_sum(lambda n: n in names, 1)
        group_leaf = lambda prefix, field: self._leaf_sum(lambda n: n.startswith(prefix), field)
        x = self.extra
        ratio = lambda a, b: a / b if b else 0.0
        checker = lambda n: n.startswith("species.check_")
        higher = lambda n: n.startswith("species.check_higher_compatibility")
        return {
            "kernels.calls": group_leaf("kernels.", 0),
            "kernels.self_s": group_leaf("kernels.", 2),
            "setcomb.enum_calls": group_leaf("setcomb.", 0),
            "setcomb.self_s": group_leaf("setcomb.", 2),
            "models.product_calls": leaf_count("models.product"),
            "models.coproduct_calls": leaf_count("models.coproduct"),
            "models.relabel_calls": leaf_count("models.relabel"),
            "models.self_s": group_leaf("models.", 2),
            "graphs.calls": group_leaf("graphs.", 0),
            "graphs.self_s": group_leaf("graphs.", 2),
            "species.mu_calls": leaf_count("species.mu"),
            "species.delta_calls": leaf_count("species.delta"),
            "species.delta_useful_ratio": ratio(x["delta_key_useful"], x["delta_key_calls"]),
            "species.mu_delta_self_s": self._leaf_sum(lambda n: n in ("species.mu", "species.delta"), 2),
            "species.naturality_s": self._span_sum(lambda n: n == "species.check_naturality"),
            "species.higher_compat_s": self._span_sum(higher),
            "species.other_axioms_s": self._span_sum(
                lambda n: checker(n) and not higher(n) and n != "species.check_naturality"),
            "species.convolve_s": self._span_sum(lambda n: n == "species.convolve"),
            "exactlin.lincomb_ops": leaf_count("exactlin.lincomb"),
            "exactlin.lincomb_self_s": self._leaf_sum(lambda n: n == "exactlin.lincomb", 2),
            "exactlin.rref_calls": self._span_count(lambda n: n == "exactlin.rref"),
            "exactlin.rref_cells": x["rref_cells"],
            "exactlin.rref_pivot_ratio": ratio(x["rref_pivots"], x["rref_rows"]),
            "exactlin.rref_s": self._span_sum(lambda n: n == "exactlin.rref"),
            "exactlin.fraction_new": self.fractions[0],
            "antipode.family_builds": self._span_count(lambda n: n == "antipode.family"),
            "antipode.takeuchi_columns": leaf_count("antipode.takeuchi_column"),
            "antipode.takeuchi_useful_ratio": ratio(x["takeuchi_surviving"], x["takeuchi_accumulated"]),
            "antipode.takeuchi_s": self._span_sum(lambda n: n == "antipode.takeuchi"),
            "antipode.mm_s": self._span_sum(lambda n: n == "antipode.mm"),
            "antipode.closed_s": leaf_total("antipode.closed"),
            "antipode.verify_s": self._span_sum(lambda n: n == "antipode.verify"),
            "titsops.tits_multiply_calls": leaf_count("titsops.tits_multiply"),
            "titsops.tits_term_pairs": x["tits_term_pairs"],
            "titsops.tits_multiply_s": leaf_total("titsops.tits_multiply"),
            "titsops.charop_calls": leaf_count("titsops.charop"),
            "titsops.charop_s": leaf_total("titsops.charop"),
            "titsops.primitive_s": self._span_sum(lambda n: n == "titsops.primitive"),
            "series.calls": group_leaf("series.", 0),
            "series.self_s": group_leaf("series.", 2),
            "cli.emit_s": leaf_total("cli.emit"),
        }

    def span_totals(self):
        """Summed duration per span name, requests excluded."""
        out = {}
        for s in self.spans:
            if s[0] != "request":
                out[s[0]] = out.get(s[0], 0.0) + (s[3] - s[2])
        return out

    def accounting(self):
        """For each request: (label, duration, sum of self times beneath it).

        Self times telescope, so the two agree up to rounding unless a frame
        was lost or counted twice."""
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s[1], []).append(i)
        leaf_self = {}
        for (parent, _), acc in self.leaves.items():
            leaf_self[parent] = leaf_self.get(parent, 0.0) + acc[2]
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != "request":
                continue
            total, todo = 0.0, [i]
            while todo:
                j = todo.pop()
                total += self.spans[j][4] + leaf_self.get(j, 0.0)
                todo.extend(children.get(j, ()))
            out.append((s[6], s[3] - s[2], total))
        return out

    def dump(self):
        return {
            "spans": [dict(zip(("name", "parent", "start", "end", "self_s", "fraction_new", "label"), s))
                      for s in self.spans],
            "leaves": [{"span": k[0], "name": k[1], "count": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.leaves.items())],
        }
