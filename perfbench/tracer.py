"""Spans around posetlie's public functions, installed from outside the package.

Each public function is wrapped under every name its callers look it up by:
``chains.enumerate_AM`` as well as ``bijections.enumerate_AM``, and
``bijections.weak_crowns`` for the cached crown steps.  A span is
(name, start, end, parent, op, counts); spans stay in memory until the pass
ends.  Self time is a span's duration minus those of its direct children.
"""

from __future__ import annotations

import time
from math import factorial


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index, counts]
        self.stack = []
        self.op = -1
        self.m_items = 0  # M elements handed out so far, for candidates_tested

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            before = self.m_items
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[5] = {}
                result = after(self, span[5], args, result, before)
            return result

        return traced

    def install(self):
        from posetlie import algebra, bijections, chains, cli, families, groups, poset, suites

        def found(key):
            def after(tracer, counts, args, result, before):
                counts[key] = len(result)
                return result
            return after

        def count_m(tracer, counts, args, result, before):
            counts["bijections.M_order"] = 0

            def counted():
                for theta in result:
                    counts["bijections.M_order"] += 1
                    tracer.m_items += 1
                    yield theta
            return counted()

        def count_am(tracer, counts, args, result, before):
            target = args[0]
            if target.length <= 1:
                counts["bijections.candidates_tested"] = factorial(len(target.strict_pairs))
            else:
                counts["bijections.candidates_tested"] = tracer.m_items - before
            counts["bijections.am_found"] = len(result)
            return result

        def count_calls(tracer, counts, args, result, before):
            counts["bijections.count_stats_calls"] = 1
            return result

        def count_products(tracer, counts, args, result, before):
            counts["groups.products_checked"] = result.order ** 2 + result.order
            return result

        targets = [
            (poset.Poset, "__init__", "poset.build", None),
            (poset, "parse_poset", "poset.build", None),
            (families, "from_selector", "poset.build", None),
            (poset, "weak_crowns", "poset.weak_crowns", found("poset.weak_crowns_found")),
            (bijections, "weak_crowns", "poset.weak_crowns", found("poset.weak_crowns_found")),
            (poset, "order_isomorphisms", "poset.order_isomorphisms", None),
            (poset, "closed_semiwalks", "poset.closed_semiwalks",
             found("poset.closed_semiwalks_found")),
            (bijections, "enumerate_M", "bijections.enumerate_M", count_m),
            (bijections, "enumerate_AM", "bijections.enumerate_AM", count_am),
            (chains, "enumerate_AM", "bijections.enumerate_AM", count_am),
            (bijections, "enumerate_P", "bijections.enumerate_P", None),
            (chains, "enumerate_P", "bijections.enumerate_P", None),
            (bijections, "count_stats", "bijections.count_stats", count_calls),
            (bijections, "is_admissible_oracle", "bijections.is_admissible_oracle", None),
            (chains, "decide_all_proper", "chains.decide_all_proper", None),
            (chains, "chain_classes", "chains.chain_classes", None),
            (chains, "support_maps", "chains.support_maps", None),
            (groups, "verify_group", "groups.verify_group", count_products),
            (groups.FiniteGroupOnEdges, "to_json", "groups.to_json", None),
            (groups, "dihedral_witness", "groups.dihedral_witness", None),
            (algebra, "commutator_subspace", "algebra.commutator_subspace", None),
            (algebra, "center", "algebra.center", None),
            (algebra, "is_lie_automorphism", "algebra.is_lie_automorphism", None),
            (algebra, "check_proper_decomposition", "algebra.check_proper_decomposition", None),
            (suites, "algebra_block", "suites.algebra", None),
            (cli, "main", "cli.main", None),
        ]
        for owner, attr, name, after in targets:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))
        # from_relations is a classmethod: wrap the function, keep the binding
        raw = poset.Poset.__dict__["from_relations"].__func__
        poset.Poset.from_relations = classmethod(self.wrap("poset.build", raw))
        # run_suite looks blocks up in the SUITES table
        for block, fn in list(suites.SUITES.items()):
            suites.SUITES[block] = self.wrap("suites." + block, fn)

    def summary(self):
        """Per op: span name -> [self seconds, calls], and count -> total."""
        durations = [span[2] - span[1] for span in self.spans]
        own = list(durations)
        for k, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= durations[k]
        table = {}
        for k, (name, _, _, _, op, counts) in enumerate(self.spans):
            entry = table.setdefault(op, {"self": {}, "counts": {}})
            row = entry["self"].setdefault(name, [0.0, 0])
            row[0] += own[k]
            row[1] += 1
            for key, value in (counts or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return table
