"""Canonicalization: deterministic normal form and an exact zero decision.

The syntactic pipeline expands symmetrization groups into signed permutation
sums, passes each term once through ``eliminate_constants`` (the fixpoint of
the declared kernel-symmetry slot sort, delta substitution and epsilon-pair
contraction, worked on one list of factors in time linear in the deltas),
orders factors (constants first; fields sorted within operator scopes),
renames dummies canonically and collects like terms.  Between
rewrite steps ``light_fold`` runs the same per-term step, ``_fold_term``,
without the group expansion: a term that keeps its symmetrization groups is
only eliminated.  That fold is a projection, so a rewrite step folds only
the terms it adds, and ``collect_folded`` collects them into the rest.  A
group names index occurrences, so it follows its labels as factors go and
is renamed with a label that a delta substitutes; the factors it names are
left unsorted, and a metric spinor or delta among them (the bridge of a
displaced grouped index) waits for ``expand_groups``.

Dimension-2 facts that relate differently wired epsilon products (the
three-term epsilon shuffle) are not reachable by those local rewrites, so
the zero decision is completed by an exact expansion over all component
assignments with opaque kernel symbols.  The metric spinor is the only
antisymmetric kernel, on its pair of slots (in two dimensions any skew pair
is a metric spinor times a trace): a kernel's pair is skew exactly when its
components are ``EPS``, and a field kernel declares symmetric groups at
most.  Under one assignment a constant factor is +1, -1 or 0 (the integer
components of the metric spinors and deltas) and a field factor is one
component sorted within its symmetric groups, so each assignment adds an
integer sign to one symbol.  An expression canonicalizes to literal zero
precisely when that expansion vanishes identically.  ``canonicalize``
expands once per call: one ``component_map`` of its collected terms decides
zero, and a nonzero result drops the terms whose clusters' counts vanish,
which only a metric spinor can make them do.

The expansion of a term factorizes over its clusters, the connected sets of
factors that share labels: an assignment's sign is the product of its
clusters' signs and its symbol is put together from theirs.  Each cluster
is enumerated alone, with one component table per field factor, and the
clusters are combined by product.  A field table depends only on the
kernel's name and symmetric groups, the operator scope and the slot shape,
so each is built once per process.  A cluster's counts are enumerated for
each term and dropped with it, so a symmetrization group of n slots costs
n! expanded terms in time, but only one term's counts in memory.

Dummies are named, however many there are, by one exact search for the
least first-occurrence numbering over the arrangements of the term.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from ..core.indices import DELTA, DIMENSION, EPS, IndexKind
from .expr import Expr, Factor, Idx, Term, expand_groups, fresh_label, slot_map
from .kernels import KernelTable


# -- kernel symmetries ----------------------------------------------------------


def _sort_slots(items: list, sym, skew: bool, label) -> int:
    """Sort ``items`` (one per slot) in place, stably by ``label``, inside
    each symmetric slot group and, when ``skew``, inside the metric spinor's
    antisymmetric pair of slots.  Returns the sign of the pair swap, or 0
    when the pair repeats a label."""
    for group in sym:
        ordered = sorted((items[s] for s in group), key=label)
        for slot, item in zip(group, ordered):
            items[slot] = item
    if skew:
        first, second = label(items[0]), label(items[1])
        if first == second:
            return 0
        if first > second:
            items[0], items[1] = items[1], items[0]
            return -1
    return 1


_IDX_NAME = operator.attrgetter("name")


def _named_factors(term: Term) -> set[int]:
    """The positions of the factors that a symmetrization group names."""
    if not term.groups:
        return set()
    where = slot_map(term.factors)
    return {where[idx][0] for _, members in term.groups for idx in members}


def _sort_factor(factor: Factor, table: KernelTable) -> tuple[Factor, int]:
    """``factor`` with its indices ordered inside its kernel's symmetric
    groups and metric-spinor pair (``factor`` itself when they already
    are), and the sign of the pair swap: 0 when the pair repeats a label."""
    kernel = table.get(factor.kernel)
    skew = kernel.components == EPS
    if not (kernel.sym_groups or skew):
        return factor, 1
    indices = list(factor.indices)
    sign = _sort_slots(indices, kernel.sym_groups, skew, _IDX_NAME)
    if tuple(indices) == factor.indices:
        return factor, sign
    return Factor(factor.kernel, tuple(indices)), sign


def sort_kernel_slots(term: Term, table: KernelTable) -> Term | None:
    """Order indices inside declared symmetric groups and metric-spinor
    pairs, except in the factors a symmetrization group names.

    Returns None when a metric spinor carries a repeated label.
    """
    coeff, sorted_factors, named = term.coeff, None, _named_factors(term)
    for fpos, factor in enumerate(term.factors):
        if fpos in named:
            continue
        ordered, sign = _sort_factor(factor, table)
        if not sign:
            return None
        if sign < 0:
            coeff = -coeff
        if ordered is not factor:
            sorted_factors = sorted_factors or list(term.factors)
            sorted_factors[fpos] = ordered
    if sorted_factors is None:
        return term if coeff is term.coeff else term.with_coeff(coeff)
    return Term(coeff, tuple(sorted_factors), term.groups)


# -- delta / epsilon elimination ---------------------------------------------------


def eliminate_constants(term: Term, table: KernelTable) -> Term | None:
    """Fixpoint of the kernel-symmetry slot sort, delta substitution and
    epsilon-pair contraction; None when a metric spinor repeats a label.
    A metric spinor or delta that a group names is left in place: removing
    it would leave the group naming another factor.

    Each step removes the first delta that can go (a trace, or a label
    substituted into its partner) or, when none can, contracts the first
    two metric spinors of opposite variance that share a label.  The steps
    edit one list of factors: a removed factor leaves a hole, a partner is
    found through a (label, up) index, only the factor it is in is sorted
    again, and the term is rebuilt once.  A step only moves or deletes
    label occurrences, so no earlier delta can go after it, and after a
    contraction only its new delta can go and no metric spinor before the
    contracted pair can find a partner: both searches resume there, and a
    chain of n deltas or of n metric spinors costs time linear in n."""
    term = sort_kernel_slots(term, table)
    if term is None:
        return None
    named = _named_factors(term)
    factors: list[Factor | None] = list(term.factors)
    # the integer components of each factor that may go: None for a hole,
    # for a factor that a group names and for a field
    components = [None if fpos in named else table.get(f.kernel).components
                  for fpos, f in enumerate(factors)]
    if DELTA not in components and components.count(EPS) < 2:  # nothing can go
        return term
    # (label, up) -> the position of the factor that carries it.  Only a
    # substitution enters a label again, where it moved: a removed label
    # occurs nowhere else, and no other delta looks up a contraction's delta
    # (one that shared a label with it shared it with a metric spinor, so it
    # would have gone before the contraction).
    where = {(idx.name, idx.up): fpos for fpos, f in enumerate(factors) for idx in f.indices}
    coeff, groups, deltas, search = term.coeff, term.groups, range(len(factors)), 0
    while True:
        for fpos in deltas:
            if components[fpos] != DELTA:
                continue
            up, down = factors[fpos].indices
            if up.name == down.name:
                factors[fpos] = components[fpos] = None
                coeff *= 2
                continue
            # delta^A_B X_A = X_B, else delta^A_B X^B = X^A
            old, new = (up.name, False), down
            partner = where.get(old)
            if partner is None:
                old, new = (down.name, True), up
                partner = where.get(old)
                if partner is None:
                    continue
            factors[fpos] = components[fpos] = None
            where[new.name, new.up] = partner
            factor = factors[partner]
            factor = Factor(factor.kernel, tuple([new if (idx.name, idx.up) == old else idx
                                                  for idx in factor.indices]))
            if partner in named:
                groups = tuple((mode, tuple([new if (idx.name, idx.up) == old else idx
                                             for idx in members])) for mode, members in groups)
            else:
                factor, sign = _sort_factor(factor, table)
                if not sign:
                    return None
                if sign < 0:
                    coeff = -coeff
            factors[partner] = factor
        # the first two metric spinors of opposite variance that share a
        # label, and the least label they share; a metric spinor's partners
        # are where its labels occur with the other variance
        pair = None
        for p1 in range(search, len(factors)):
            if components[p1] != EPS:
                continue
            first = factors[p1].indices
            flip = not first[0].up
            p2 = min([q for idx in first if (q := where.get((idx.name, flip))) is not None
                      and q > p1 and components[q] == EPS
                      and idx._replace(up=flip) in factors[q].indices], default=None)
            if p2 is not None:
                shared = {idx.name for idx in first} & {idx.name for idx in factors[p2].indices}
                pair = p1, p2, min(shared)
                break
        if pair is None:
            break
        p1, p2, name = pair
        start, lo_pos = (p1, p2) if factors[p1].indices[0].up else (p2, p1)
        # eps^{AB} eps_{CB} = delta^A_C, with a sign where the shared label comes first
        (a, b), (c, d) = factors[start].indices, factors[lo_pos].indices
        if a.name == name:
            a, coeff = b, -coeff
        if c.name == name:
            c, coeff = d, -coeff
        factors[lo_pos] = components[lo_pos] = None
        components[start] = DELTA
        factors[start] = Factor(table.resolve_delta(a.kind).name, (a, c))
        # only the new delta can go now, and only a metric spinor after p1
        # can have a partner (neither gives one to a metric spinor before)
        deltas, search = (start,), p1 + 1
    kept = tuple([factor for factor in factors if factor is not None])
    if len(kept) == len(factors):
        return term
    return Term(coeff, kept, groups)


# -- ordering and renaming ------------------------------------------------------------


def _factor_key(factor: Factor) -> tuple:
    return (factor.kernel, tuple([(i.up, i.name) for i in factor.indices]))


def _term_key(term: Term) -> tuple:
    """Like-term key: the ordered factors with their labels, coefficient aside."""
    return tuple([_factor_key(f) for f in term.factors])


_LABEL_TAG = {IndexKind.UNPRIMED: "!U", IndexKind.PRIMED: "!P", IndexKind.WORLD: "!w"}


def _dummy_label(kind: IndexKind, number: int) -> str:
    """Canonical dummy label: ``!U<n>``, ``!P<n>'`` or ``!w<n>``."""
    return fresh_label(_LABEL_TAG[kind], kind, number)


def _normalize_term(term: Term, table: KernelTable) -> Term:
    """Canonical dummy labeling: the least term, by factor keys and then the
    sign (negative first), over every arrangement (the order of the
    constants, of the fields in each operator segment and of the slots in
    each symmetry group, whose slots share one variance), its dummies
    numbered in order of first appearance.

    The search emits one factor key at a time, keeps the branches that give
    the least and merges those whose sign and remaining factors agree.  No
    two constants share a label, so the constants take one branch.  A metric
    spinor with two dummies, a bridge, is emitted with the next two numbers
    unbound; the first of its ends met among the fields takes the least
    unbound label of its kernel, its other end the other of that pair."""
    kinds, dummies = {}, set()
    for factor in term.factors:
        for idx in factor.indices:
            if idx.name in kinds:
                dummies.add(idx.name)
            kinds[idx.name] = idx.kind
    plans, fixed, blocks, bridges, bridged = [], {}, [[], []], {}, set()
    constant_dummies = []
    for position, factor in enumerate(term.factors):
        kernel = table.get(factor.kernel)
        sym, skew = kernel.sym_groups, kernel.components == EPS
        items = tuple([(idx.up, idx.name) for idx in factor.indices])
        labels = [name for _, name in items]
        sign = _sort_slots(labels, sym, skew, str) if sym or skew else 1
        assert sign, "eliminate_constants drops a metric spinor that repeats a label"
        if dummies.isdisjoint(labels):  # one key, whatever the labels so far
            key = tuple(zip([up for up, _ in items], labels)) if sym or skew else items
            fixed[position] = ((factor.kernel, key), sign)
        plans.append((factor.kernel, items, sym, skew))
        if kernel.components is not None:
            blocks[0].append(position)
            constant_dummies += dummies.intersection(labels)
            if len(items) == 2 and dummies.issuperset(labels):
                assert skew, "a bridge is a metric spinor"
                (_, a), (_, b) = items
                bridges[a], bridges[b] = (factor.kernel, b, 0), (factor.kernel, a, 1)
                bridged.add(position)
        elif kernel.operator:
            blocks += [[position], []]
        else:
            blocks[-1].append(position)
    # eliminate_constants contracts every label shared by two constants
    assert len(set(constant_dummies)) == len(constant_dummies)

    def label_of(name, names, counter, pairs):
        """The label that ``name`` would take next."""
        if name in names or name not in dummies:
            return names.get(name, name)
        if name in bridges:
            return min(min(pair) for pair in pairs[bridges[name][0]])
        return _dummy_label(kinds[name], counter)

    def bind(name, low, names, sign, counter, pairs):
        """Bind the dummy ``name`` to ``low`` in ``names`` (a copy the caller
        owns), and a bridge end's partner to the other label of its pair."""
        names[name] = low
        if name not in bridges:
            return sign, counter + 1, pairs
        bridge, partner, end = bridges[name]
        pair = next(pair for pair in pairs[bridge] if low in pair)
        names[partner] = pair[pair[0] == low]
        return (-sign if (pair[1] == low) != end else sign, counter,
                {**pairs, bridge: tuple(q for q in pairs[bridge] if q != pair)})

    def arrangements(p, names, counter, pairs):
        """Each least slot order of factor p after the labels so far, as
        (key, names, sign, counter, unbound label pairs by kernel)."""
        kernel, items, sym, skew = plans[p]
        if p in bridged:
            pair = tuple(_dummy_label(kinds[x], counter + n) for n, (_, x) in enumerate(items))
            return [((kernel, ((items[0][0], pair[0]), (items[1][0], pair[1]))), names, 1,
                     counter + 2, {**pairs, kernel: pairs.get(kernel, ()) + (pair,)})]
        if not (sym or skew):  # one slot order
            key, sign, copied = [], 1, False
            for up, name in items:
                low = label_of(name, names, counter, pairs)
                if name not in names and name in dummies:
                    if not copied:
                        names, copied = dict(names), True
                    sign, counter, pairs = bind(name, low, names, sign, counter, pairs)
                key.append((up, low))
            return [((kernel, tuple(key)), names, sign, counter, pairs)]
        done = [((), names, 1, counter, pairs, ())]
        for slot in range(len(items)):
            # the slots that may take this slot's place: its symmetry group
            pool = (0, 1) if skew else next((group for group in sym if slot in group), (slot,))
            grown = []
            for key, names, sign, counter, pairs, placed in done:
                free = [s for s in pool if s not in placed]
                labels = [label_of(items[s][1], names, counter, pairs) for s in free]
                low = min(labels)
                for j, s in enumerate(free):
                    if labels[j] != low:
                        continue
                    up, name = items[s]
                    state = (names, -sign if j % 2 and skew else sign, counter, pairs)
                    if name not in names and name in dummies:
                        bound = dict(names)
                        state = (bound, *bind(name, low, bound, *state[1:]))
                    grown.append((key + ((up, low),), *state, placed + (s,)))
            done = grown
        return [((kernel, key), *state) for key, *state, _ in done]

    def signature(rest, names, sign, index):
        """The sign and the factors with dummies left, renamed and slot-sorted."""
        keys = []
        for p in rest + tuple(p for block in blocks[index + 1:] for p in block if p not in fixed):
            kernel, items, sym, skew = plans[p]
            if p in bridged:  # interchangeable until their ends are met
                keys.append((kernel,))
                continue
            labels = [names.get(name, name) for _, name in items]
            sign *= _sort_slots(labels, sym, skew, str)
            keys.append((kernel, tuple(labels)))
        return sign, tuple(sorted(keys[:len(rest)])), tuple(keys[len(rest):])

    out, states, common = [], [((), {}, 1, 0, {})], 1
    for index, block in enumerate(blocks):
        # a factor without dummies has one key whatever the labels: sorted once
        static = sorted([(fixed[p], p) for p in block if p in fixed])
        rest = tuple([p for p in block if p not in fixed])
        if rest:  # every state has placed the factors of the blocks before
            states = [(rest, *state[1:]) for state in states]
        for _ in rest:
            options = [(key, n, p, *found) for n, state in enumerate(states)
                       for p in state[0]
                       for key, *found in arrangements(p, state[1], *state[3:])]
            low = min([option[0] for option in options])
            while static and static[0][0][0] < low:
                # a factor without dummies binds no label: the options hold
                (key, sign), p = static.pop(0)
                out.append((key, p))
                common *= sign
            winners = [option for option in options if option[0] == low]
            out.append((low, winners[0][2]))
            grown = {}
            for _, n, p, names, sign, counter, pairs in winners:
                left = tuple([q for q in states[n][0] if q != p])
                state = (left, names, states[n][2] * sign, counter, pairs)
                grown.setdefault(len(winners) > 1 and signature(*state[:3], index), state)
            states = list(grown.values())
        for (key, sign), p in static:
            out.append((key, p))
            common *= sign
    positive = term.coeff.numerator > 0
    _, names, sign, _, _ = min(states, key=lambda s: (s[2] * common > 0) == positive) \
        if len(states) > 1 else states[0]
    kinds.update({label: kinds[name] for name, label in names.items()})
    factors = tuple([term.factors[p] if key == plans[p][1] else
                     Factor(kernel, tuple(Idx(label, kinds[label], up) for up, label in key))
                     for (kernel, key), p in out])
    return Term(term.coeff if sign * common > 0 else -term.coeff, factors)


# -- exact component expansion ------------------------------------------------------


# (kernel name, symmetric groups, scope, shape) -> the field table of that
# key, which depends on nothing else: built once
_FIELD_TABLES: dict[tuple, dict] = {}


def _field_table(kernel, scope: int, shape: tuple[int, ...]) -> dict:
    """Slot values -> (scope, kernel name, component sorted within the
    kernel's symmetric groups).  A field kernel declares no antisymmetry."""
    key = (kernel.name, kernel.sym_groups, scope, shape)
    out = _FIELD_TABLES.get(key)
    if out is None:
        out = _FIELD_TABLES[key] = {}
        for v in itertools.product(*map(range, shape)):
            component = list(v)
            # component values are ints, which sort as themselves
            _sort_slots(component, kernel.sym_groups, False, int)
            out[v] = (scope, kernel.name, tuple(component))
    return out


def _values_getter(slots: tuple[int, ...]):
    """The values at ``slots`` of an assignment, as a tuple."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    return lambda value: tuple([value[s] for s in slots])


def _cluster_counts(dims, free, constant_plan, op_plan, field_plan) -> dict[tuple, int]:
    """(operators, sorted fields, free values) -> sign count of one cluster,
    enumerated over the assignments of its own labels, free labels first."""
    counts: dict[tuple, int] = {}
    for value in itertools.product(*map(range, dims)):
        sign = 1
        for numbers, i, j in constant_plan:
            sign *= numbers[value[i]][value[j]]
        if not sign:
            continue
        fields = sorted([table[getter(value)] for table, getter in field_plan])
        ops = tuple([(name, get(value)) for name, get in op_plan]) if op_plan else ()
        key = (ops, tuple(fields), tuple(zip(free, value)))
        counts[key] = counts.get(key, 0) + sign
    return {key: count for key, count in counts.items() if count}


def _parts(term: Term, table: KernelTable) -> list[tuple] | None:
    """(counts, field keys, free labels, operator positions) per cluster, the
    connected sets of factors that share labels, in factor order; None when
    a cluster's counts all vanish.  Each cluster is enumerated alone, its
    labels numbered free first, and nothing is kept once the term is done."""
    uses: dict[str, int] = {}
    dimension: dict[str, int] = {}
    # [labels, [(position, operators to the left, kernel, factor), ...]]
    clusters: list[list] = []
    n_ops = 0
    for position, factor in enumerate(term.factors):
        kernel = table.get(factor.kernel)
        labels = set()
        for idx in factor.indices:
            name = idx.name
            labels.add(name)
            if name in uses:
                uses[name] += 1
            else:
                uses[name] = 1
                dimension[name] = DIMENSION[idx.kind]
        own = [labels, [(position, n_ops, kernel, factor)]]
        rest = []
        for cluster in clusters:
            if labels.isdisjoint(cluster[0]):
                rest.append(cluster)
            else:
                own[0] |= cluster[0]
                own[1] = sorted(cluster[1] + own[1])
        clusters = rest + [own]
        n_ops += kernel.operator
    parts = []
    for labels, factors in clusters:
        free = sorted([label for label in labels if uses[label] == 1])
        order = free + sorted(labels.difference(free)) if len(free) < len(labels) else free
        local = {label: n for n, label in enumerate(order)}
        dims = tuple([dimension[label] for label in order])
        constant_plan, op_plan, field_plan, field_keys, ops = [], [], [], [], []
        for position, scope, kernel, factor in factors:
            where = tuple([local[idx.name] for idx in factor.indices])
            if kernel.components is not None:
                constant_plan.append((kernel.components, *where))
            elif kernel.operator:
                op_plan.append((factor.kernel, _values_getter(where)))
                ops.append(position)
            else:
                # a field component is told apart by the operators acting on it
                table_of = _field_table(kernel, scope, tuple([dims[s] for s in where]))
                field_plan.append((table_of, _values_getter(where)))
                field_keys.append((scope, factor.kernel))
        counts = _cluster_counts(dims, free, constant_plan, op_plan, field_plan)
        if not counts:
            return None
        parts.append((counts, tuple(field_keys), free, ops))
    return parts


def _product(left: dict[tuple, int], right: dict[tuple, int], sort_fields: bool,
             free_order, out: dict[tuple, int], weight: int) -> dict[tuple, int]:
    """Add ``weight`` times the count of every pair of partial symbols,
    concatenated, into ``out``.  The fields are sorted again where the two
    parts' fields interleave; the free values are put in label order by
    ``free_order`` (None where they already are), since every partial
    symbol of a part holds the same free labels in the same order.  Unless
    the fields are sorted, every pair gives its own symbol, so into an
    empty ``out`` each count is stored without a lookup."""
    add = sort_fields or bool(out)
    for (ops1, fields1, free1), count1 in left.items():
        count1 *= weight
        for (ops2, fields2, free2), count2 in right.items():
            fields, free = fields1 + fields2, free1 + free2
            if sort_fields:
                fields = tuple(sorted(fields))
            if free_order:
                free = free_order(free)
            key = (ops1 + ops2, fields, free)
            out[key] = out.get(key, 0) + count1 * count2 if add else count1 * count2
    return out


def _add_sign_counts(term: Term, table: KernelTable, weight: int,
                     acc: dict[tuple, int]) -> None:
    """Add ``weight`` times the sign count of every symbol of one group-free
    term into ``acc``.

    Every factor is a metric spinor, a delta or a field component sorted
    within its symmetric groups, so each assignment adds +1, -1 or nothing
    to one symbol.  Factors that share a label form a cluster, and an
    assignment's sign is the product of its clusters' signs: each cluster is
    enumerated alone, and the clusters' partial symbols are combined by
    product.
    """
    parts = _parts(term, table)
    if parts is None:
        return
    # a term without factors is the one empty symbol
    parts = parts or [({((), (), ()): 1}, (), [], [])]
    # operators concatenate part by part: in factor order unless parts interleave
    parts.sort(key=lambda part: part[3][:1])
    positions = [n for part in parts for n in part[3]]
    in_order = positions == sorted(positions)
    result, field_keys, free, _ = parts[0]
    if len(parts) == 1:
        for key, count in result.items():
            acc[key] = acc.get(key, 0) + weight * count
        return
    for n, (counts, keys, labels, _) in enumerate(parts[1:], 2):
        sort_fields = bool(field_keys and keys) and max(field_keys) >= min(keys)
        # both label lists are sorted; where they interleave, one order
        # puts every partial symbol's free values back in label order
        merged, free_order = free + labels, None
        if free and labels and free[-1] > labels[0]:
            order = sorted(range(len(merged)), key=merged.__getitem__)
            merged, free_order = [merged[i] for i in order], _values_getter(order)
        last = n == len(parts) and in_order
        result = _product(result, counts, sort_fields, free_order,
                          acc if last else {}, weight if last else 1)
        field_keys, free = field_keys + keys, merged
    if not in_order:
        op_order = _values_getter(sorted(range(len(positions)), key=positions.__getitem__))
        for (ops, fields, values), count in result.items():
            key = (op_order(ops), fields, values)
            acc[key] = acc.get(key, 0) + weight * count


def component_map(expr: Expr, table: KernelTable) -> dict[tuple, Fraction]:
    """Exact multilinear expansion: symbol -> rational coefficient.

    Integer sign counts of each group-expanded term are weighted by the
    term's coefficient over the common denominator of all coefficients, so
    the sums are integer; one Fraction is built per distinct surviving value.
    ``canonicalize`` makes one call, on its collected terms, to decide zero.
    """
    terms = [term for raw in expr.terms for term in expand_groups(raw)]
    denominator = math.lcm(*(term.coeff.denominator for term in terms))
    acc: dict[tuple, int] = {}
    for term in terms:
        weight = term.coeff.numerator * (denominator // term.coeff.denominator)
        _add_sign_counts(term, table, weight, acc)
    # the sums are small multiples of a few weights: one Fraction per value
    values = {n: Fraction(n, denominator) for n in set(acc.values()) if n}
    return {symbol: values[n] for symbol, n in acc.items() if n}


# -- public pipeline ------------------------------------------------------------------


def _fold_term(term: Term, table: KernelTable) -> Term | None:
    """``eliminate_constants``, then, on a group-free term, ``_normalize_term``:
    a projection, so a folded term folds to itself.  A grouped term keeps its
    groups and is only eliminated."""
    term = eliminate_constants(term, table)
    if term is None or term.groups:
        return term
    return _normalize_term(term, table)


def canonicalize(expr: Expr, table: KernelTable) -> Expr:
    """Deterministic normal form; literal zero iff the expression vanishes.

    The group-expanded terms are folded and collected as between rewrite
    steps and ordered by ``_term_key``; one ``component_map`` of them
    decides zero.  A nonzero result drops the terms whose own expansion
    vanishes.  A term's expansion is the product of its clusters' counts,
    nonzero integer polynomials over disjoint symbols, so it vanishes
    exactly when a cluster's counts do (``_parts`` is None).  Only a metric
    spinor can make them cancel: without one every sign is 0 or +1, and a
    delta that ``eliminate_constants`` leaves carries two free labels."""
    expanded = Expr(tuple([term for raw in expr.terms for term in expand_groups(raw)]))
    terms = sorted(collect_folded(light_fold(expanded, table).terms).terms, key=_term_key)
    if not component_map(Expr(tuple(terms)), table):
        return Expr.zero()
    return Expr(tuple([term for term in terms
                       if not any(table.get(f.kernel).components == EPS for f in term.factors)
                       or _parts(term, table) is not None]))


def collect_folded(terms) -> Expr:
    """Folded ``terms`` as an expression: the grouped ones as they are, then
    the group-free ones with like terms collected (the first term of each
    ``_term_key`` at the summed coefficient), in order of first appearance;
    a collected term whose coefficient sums to zero is dropped."""
    collected: dict[tuple, tuple[Fraction, Term]] = {}
    for term in terms:
        if not term.groups:
            key = _term_key(term)
            found = collected.get(key)
            collected[key] = (term.coeff, term) if found is None else (found[0] + term.coeff, found[1])
    return Expr(tuple([term for term in terms if term.groups]) + tuple(
        term.with_coeff(coeff) for coeff, term in collected.values() if coeff))


def light_fold(expr: Expr, table: KernelTable) -> Expr:
    """The fold between rewrite steps: ``_fold_term`` on every term, the
    terms that vanish dropped; ``collect_folded`` then makes like terms
    meet.  A projection: a folded term folds to itself."""
    folded = [_fold_term(term, table) for term in expr.terms]
    return Expr(tuple([term for term in folded if term is not None]))
