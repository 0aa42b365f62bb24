"""Unnesting equivalences and the rewrite driver (paper §3).

The entry point :func:`unnest` rewrites a canonical plan into a bypass
DAG.  Per-selection logic:

* split the predicate into disjuncts (after NNF normalisation and the
  count reduction of quantified subqueries);
* **disjunctive linking** (≥ 2 disjuncts, some containing subqueries):
  order disjuncts by rank and build a bypass-selection chain.  A
  subquery-free disjunct first is Equivalence 2; a subquery disjunct
  first is Equivalence 3 — both fall out of the same chain builder.  The
  positive stream of each stage is emitted; the last disjunct is handled
  conjunctively on the final negative stream.  The union of all streams
  (disjoint by construction) is the result.
* **conjunctive linking** (single disjunct): every subquery conjunct has
  its aggregate value *attached* to the stream as a fresh attribute
  ``g`` and the conjunct rewritten to reference ``g``;
* the attachment itself dispatches on the inner block's correlation:
  - conjunctive equality correlation → Γ + ⟕ with ``g:f(∅)``
    (**Equivalence 1**);
  - disjunctive correlation, decomposable aggregate, equality
    correlation, simple ``p`` → bypass selection on the inner relation,
    partial aggregates recombined by a map (**Equivalence 4**);
  - anything else (non-equality or mixed correlation, ``p`` containing a
    subquery, non-decomposable aggregates such as COUNT(DISTINCT ·)) →
    numbering ν + bypass join ⋈± + binary grouping Γ
    (**Equivalence 5**), recursing into ``σp`` on the negative stream —
    which is how linear queries (Q4) unnest all the way down.

Because the disjunct chain composes with the attachment dispatch, the
driver also covers the paper's outlook case (1): queries whose linking
*and* correlation predicates both occur disjunctively.

Tree queries (Q3) unnest by consuming one subquery disjunct per chain
stage; linear queries (Q4) by the Eqv.-5 recursion.  Everything applies
equally under bag semantics (§3.7): grouping keys are unique before the
outer join, ν numbers the outer tuples before the bypass join, and each
bypass operator partitions its input, so the final disjoint union neither
loses nor duplicates tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra import expr as E
from repro.algebra import ops as L
from repro.algebra.aggregates import AggSpec
from repro.errors import NotUnnestableError
from repro.rewrite import normalize as N
from repro.rewrite.quantified import reduce_quantified
from repro.rewrite.rank import Estimator, order_disjuncts


@dataclass(frozen=True)
class UnnestOptions:
    """Strategy knobs for the rewriter.

    ``disjunct_order``
        ``"rank"`` (default) orders the bypass chain by Slagle's rank;
        ``"simple_first"`` forces Equivalence 2, ``"subquery_first"``
        forces Equivalence 3, ``"as_written"`` keeps the SQL order.
    ``enable_eqv4``
        When false, disjunctive correlation always uses Equivalence 5 —
        the ablation switch for the Eqv. 4 vs. 5 benchmark.
    ``enable_quantified``
        Reduce EXISTS/IN/ANY/ALL subqueries to counting subqueries so
        they unnest too (technical-report extension).
    ``strict``
        Raise :class:`~repro.errors.NotUnnestableError` when a correlated
        scalar subquery survives the rewrite (tests use this; the default
        pipeline silently falls back to nested-loop evaluation).
    """

    disjunct_order: str = "rank"
    enable_eqv4: bool = True
    enable_quantified: bool = True
    strict: bool = False
    estimator: Estimator = field(default_factory=Estimator)


def unnest(plan: L.Operator, options: UnnestOptions | None = None) -> L.Operator:
    """Rewrite ``plan`` (a canonical translation) into a bypass DAG."""
    rewriter = _Rewriter(options or UnnestOptions())
    result = rewriter.rewrite_plan(plan)
    if rewriter.options.strict:
        _assert_unnested(result)
    return result


class _Rewriter:
    def __init__(self, options: UnnestOptions):
        self.options = options
        self._uid = 0
        self._memo: dict[int, L.Operator] = {}

    def fresh(self, suffix: str) -> str:
        self._uid += 1
        return f"u{self._uid}.{suffix}"

    # -- plan traversal ------------------------------------------------------

    def rewrite_plan(self, node: L.Operator) -> L.Operator:
        cached = self._memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, L.Select):
            result = self._apply_predicate(self.rewrite_plan(node.child), node.predicate)
        elif isinstance(node, L.Map) and node.expression.contains_subquery():
            result = self._apply_map(node)
        else:
            result = node.map_children(self.rewrite_plan)
        self._memo[id(node)] = result
        return result

    def _apply_map(self, node: L.Map) -> L.Operator:
        """Unnest subqueries in a map subscript (select-clause nesting).

        Attachments preserve the input cardinality (one output row per
        input row for ⟕-after-Γ and for the binary grouping), so a map
        over the extended stream followed by a projection back to the
        original schema is exact.
        """
        child = self.rewrite_plan(node.child)
        # Note: no NNF / count reduction here.  A map subscript is a
        # *value* expression — conflating UNKNOWN with FALSE would change
        # the produced value, so only the exact scalar attachment applies;
        # quantified expressions stay nested (their blocks still unnest
        # internally via _attach_all's fallback).
        new_child, new_expression = self._attach_all(child, node.expression)
        mapped = L.Map(new_child, node.name, new_expression)
        if new_child is child:
            return mapped
        return L.Project(mapped, node.schema.names)

    # -- per-selection driver ----------------------------------------------------

    def _apply_predicate(self, child: L.Operator, predicate: E.Expr) -> L.Operator:
        """Build the (possibly bypass) plan for ``σ predicate (child)``.

        The result always has ``child``'s schema.
        """
        predicate = N.to_nnf(predicate)
        if not predicate.contains_subquery():
            return L.Select(child, predicate)
        if self.options.enable_quantified:
            predicate = reduce_quantified(predicate, self.fresh)

        disjuncts = E.disjuncts(predicate)
        if len(disjuncts) == 1:
            return self._conjunctive(child, predicate)
        if not any(d.contains_subquery() for d in disjuncts):
            return L.Select(child, predicate)

        ordered = self._order(disjuncts)
        streams: list[L.Operator] = []
        current = child
        for disjunct in ordered[:-1]:
            positive, negative = self._bypass_stage(current, disjunct)
            streams.append(positive)
            current = negative
        streams.append(self._conjunctive(current, ordered[-1]))
        return L.union_all(streams)

    def _order(self, disjuncts: list[E.Expr]) -> list[E.Expr]:
        mode = self.options.disjunct_order
        if mode == "as_written":
            return list(disjuncts)
        if mode == "simple_first":
            return sorted(disjuncts, key=lambda d: d.contains_subquery())
        if mode == "subquery_first":
            return sorted(disjuncts, key=lambda d: not d.contains_subquery())
        return order_disjuncts(disjuncts, self.options.estimator)

    def _bypass_stage(self, current: L.Operator, disjunct: E.Expr):
        """One stage of the bypass chain; returns (emitted, negative)."""
        if not disjunct.contains_subquery():
            bypass = L.BypassSelect(current, disjunct)
            return bypass.positive, bypass.negative
        names = current.schema.names
        expanded, rewritten = self._attach_all(current, disjunct)
        bypass = L.BypassSelect(expanded, rewritten)
        if expanded is current:
            return bypass.positive, bypass.negative
        return (
            L.Project(bypass.positive, names),
            L.Project(bypass.negative, names),
        )

    def _conjunctive(self, input_plan: L.Operator, predicate: E.Expr) -> L.Operator:
        """Handle ``σ predicate`` with conjunctive (or absent) linking."""
        conjs = E.conjuncts(predicate)
        plain = [c for c in conjs if not c.contains_subquery()]
        nested = [c for c in conjs if c.contains_subquery()]
        current = input_plan
        if plain:
            current = L.Select(current, E.conjunction(plain))
        rewritten: list[E.Expr] = []
        for conjunct in nested:
            current, new_conjunct = self._attach_all(current, conjunct)
            rewritten.append(new_conjunct)
        if rewritten:
            current = L.Select(current, E.conjunction(rewritten))
        if current.schema != input_plan.schema:
            current = L.Project(current, input_plan.schema.names)
        return current

    # -- aggregate attachment -----------------------------------------------------

    def _attach_all(self, input_plan: L.Operator, expression: E.Expr):
        """Attach every attachable subquery in ``expression``.

        Returns ``(new_input, new_expression)``.  Subqueries that cannot
        be attached are rewritten internally (their own nesting still
        unnests) and stay as nested expressions.
        """
        done: set[int] = set()
        while True:
            target = None
            for sub in N.find_subquery_exprs(expression):
                if id(sub) not in done:
                    target = sub
                    break
            if target is None:
                return input_plan, expression
            replacement = None
            if isinstance(target, E.ScalarSubquery):
                attached = self._attach_scalar(input_plan, target.plan)
                if attached is not None:
                    input_plan, g_name = attached
                    replacement = E.ColumnRef(g_name)
            if replacement is None:
                # Leave nested, but unnest inside the block.
                replacement = target.map_subplans(self.rewrite_plan)
                done.add(id(replacement))
            expression = N.replace_expr_node(expression, target, replacement)

    def _attach_scalar(self, input_plan: L.Operator, plan: L.Operator):
        """Attach one scalar-aggregate block; returns (new_input, g) or None."""
        free = plan.free_attrs()
        if not free:
            return None  # type A: evaluate once, keep as (cached) expression
        input_names = set(input_plan.schema.names)
        if free - input_names:
            return None  # correlation reaches past this stream: leave nested
        shape = N.peel_scalar_aggregate(plan)
        if shape is None:
            return None  # not a single-aggregate block (type-J scalar)
        if shape.source.free_attrs():
            return None  # correlation hidden below the block's selection
        source_names = frozenset(shape.source.schema.names)
        split = N.split_conjuncts(N.to_nnf(shape.predicate), source_names)
        source = N.apply_local_filter(self.rewrite_plan(shape.source), split.local)
        if not split.correlating:
            return None  # defensive: free attrs but no correlating conjunct
        analysis = N.analyse_correlation(split.correlating, source_names)

        if analysis.eq_pairs and analysis.or_conjunct is None and not analysis.general:
            return self._attach_eqv1(input_plan, source, analysis.eq_pairs, shape.spec)

        if analysis.or_conjunct is not None and not analysis.general and not analysis.eq_pairs:
            return self._attach_disjunctive(
                input_plan, source, analysis.or_conjunct, shape.spec, source_names
            )

        # Mixed or non-equality conjunctive correlation: the general route
        # with the whole correlating conjunction as the join predicate.
        q_corr = E.conjunction(split.correlating)
        return self._attach_eqv5(input_plan, source, q_corr, None, shape.spec)

    # -- Equivalence 1 ---------------------------------------------------------

    def _attach_eqv1(self, input_plan, source, pairs, spec: AggSpec):
        """Γ on the correlation keys + ⟕ with ``g:f(∅)`` defaults."""
        g_name = self.fresh("g")
        keys: list[str] = []
        for pair in pairs:
            if pair.inner_column not in keys:
                keys.append(pair.inner_column)
        grouped = L.GroupBy(source, keys, [(g_name, spec)])
        join_predicate = E.conjunction(
            [E.Comparison("=", pair.outer, E.ColumnRef(pair.inner_column)) for pair in pairs]
        )
        joined = L.LeftOuterJoin(
            input_plan, grouped, join_predicate, defaults={g_name: spec.empty_result()}
        )
        return joined, g_name

    # -- Equivalences 4 and 5 -----------------------------------------------------

    def _attach_disjunctive(self, input_plan, source, or_conjunct, spec, source_names):
        """Dispatch disjunctive correlation to Eqv. 4 or Eqv. 5."""
        ds = E.disjuncts(or_conjunct)
        corr_ds = [d for d in ds if N.outer_refs(d, source_names)]
        p_ds = [d for d in ds if not N.outer_refs(d, source_names)]

        if p_ds and self._eqv4_applicable(spec, corr_ds, p_ds, source_names):
            pairs, locals_ = self._split_corr_disjunct(corr_ds[0], source_names)
            return self._attach_eqv4(
                input_plan, source, pairs, locals_, E.disjunction(p_ds), spec
            )

        q_corr = E.disjunction(corr_ds)
        p = E.disjunction(p_ds) if p_ds else None
        return self._attach_eqv5(input_plan, source, q_corr, p, spec)

    def _eqv4_applicable(self, spec, corr_ds, p_ds, source_names) -> bool:
        """Eqv. 4 preconditions: decomposable f, equality correlation,
        ``p`` simple (no subquery — footnote 1 and the text of §3.3)."""
        if not self.options.enable_eqv4:
            return False
        if not spec.is_decomposable:
            return False
        if len(corr_ds) != 1:
            return False
        if any(p.contains_subquery() for p in p_ds):
            return False
        split = self._split_corr_disjunct(corr_ds[0], source_names)
        return split is not None and bool(split[0])

    @staticmethod
    def _split_corr_disjunct(disjunct: E.Expr, source_names):
        """Split one correlation disjunct into eq-pairs + local conjuncts.

        Returns ``None`` when the disjunct has a non-equality correlating
        part (which forces Eqv. 5).
        """
        pairs = []
        locals_: list[E.Expr] = []
        for conjunct in E.conjuncts(disjunct):
            pair = N.match_equality_correlation(conjunct, source_names)
            if pair is not None:
                pairs.append(pair)
                continue
            if N.outer_refs(conjunct, source_names):
                return None
            locals_.append(conjunct)
        return pairs, locals_

    def _attach_eqv4(self, input_plan, source, pairs, corr_locals, p, spec: AggSpec):
        """Bypass σ± on the inner relation; recombine partials with χ.

        Positive stream of ``σp±(S)``: pre-aggregated once into the
        scalar ``g2 = fI(σp+(S))``.  Negative stream: filtered by the
        correlation disjunct's local part, grouped on the correlation
        keys into ``g1``.  After the outer join (default ``g1:fI(∅)``),
        ``χ g := fO(g1, g2)`` produces the total.
        """
        partial = spec.with_partial()
        bypass = L.BypassSelect(source, p)

        negative = N.apply_local_filter(bypass.negative, corr_locals)
        g1_name = self.fresh("g1")
        keys: list[str] = []
        for pair in pairs:
            if pair.inner_column not in keys:
                keys.append(pair.inner_column)
        grouped = L.GroupBy(negative, keys, [(g1_name, partial)])
        join_predicate = E.conjunction(
            [E.Comparison("=", pair.outer, E.ColumnRef(pair.inner_column)) for pair in pairs]
        )
        joined = L.LeftOuterJoin(
            input_plan, grouped, join_predicate, defaults={g1_name: partial.empty_result()}
        )

        g2_plan = L.ScalarAggregate(bypass.positive, [(self.fresh("g2"), partial)])
        g_name = self.fresh("g")
        combine = E.AggCombine(
            spec.resolved_name(),
            (E.ColumnRef(g1_name), E.ScalarSubquery(g2_plan)),
        )
        mapped = L.Map(joined, g_name, combine)
        return mapped, g_name

    def _attach_eqv5(self, input_plan, source, q_corr, p, spec: AggSpec):
        """ν + bypass join + binary grouping — the general route.

        ``p`` (the correlation-free disjuncts) is applied to the bypass
        join's negative stream *through the full driver*, so a nested
        linking predicate inside ``p`` — a linear query — unnests
        recursively, exactly as in Fig. 6.
        """
        t_name = self.fresh("t")
        t2_name = self.fresh("t2")
        g_name = self.fresh("g")
        numbered = L.Numbering(input_plan, t_name)

        if p is None:
            union = L.Join(numbered, source, q_corr)
        else:
            bypass = L.BypassJoin(numbered, source, q_corr)
            matched = bypass.positive
            checked = self._apply_predicate(bypass.negative, p)
            union = L.UnionAll(matched, checked)

        renamed = L.Rename(union, {t_name: t2_name})
        grouped = L.BinaryGroupBy(
            numbered,
            renamed,
            g_name,
            left_key=t_name,
            right_key=t2_name,
            spec=spec,
            op="=",
            star_names=source.schema.names,
        )
        return grouped, g_name


def _assert_unnested(plan: L.Operator) -> None:
    """Strict mode: no correlated subquery expression may survive."""
    for node in plan.iter_dag(nested=True):
        for expression in node.exprs():
            for sub in N.find_subquery_exprs(expression):
                if sub.plan.free_attrs():
                    raise NotUnnestableError(
                        f"correlated subquery survived the rewrite in {node.label()}"
                    )
