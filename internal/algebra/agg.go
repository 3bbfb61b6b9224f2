package algebra

import (
	"sofos/internal/rdf"
	"sofos/internal/sparql"
)

// Accumulator incrementally computes one aggregate over the values of a
// group. Result returns the aggregate as an RDF literal; it returns an
// unbound value for empty MIN/MAX/AVG groups and for type errors, mirroring
// SPARQL's error-as-unbound aggregate semantics.
type Accumulator interface {
	Add(v Value)
	// Fold absorbs another accumulator of the same concrete kind, as if o's
	// inputs had been Added after the receiver's. The engine's parallel
	// aggregation builds per-partition accumulators and folds them in
	// partition order, so grouped results match serial execution. o must come
	// from the same NewAccumulator item; Fold panics on mismatched kinds.
	Fold(o Accumulator)
	Result() Value
}

// NewAccumulator builds the accumulator for an aggregate select item.
func NewAccumulator(item sparql.SelectItem) Accumulator {
	switch item.Agg {
	case sparql.AggCount:
		if item.AggDistinct {
			return &countDistinctAcc{seen: make(map[rdf.Term]struct{})}
		}
		return &countAcc{}
	case sparql.AggSum:
		return &sumAcc{}
	case sparql.AggAvg:
		return &avgAcc{}
	case sparql.AggMin:
		return &minMaxAcc{min: true}
	case sparql.AggMax:
		return &minMaxAcc{}
	default:
		return &sampleAcc{}
	}
}

// Retractor is an Accumulator that additionally supports exact retraction:
// Unadd removes one previously Added value, as if it had never been fed.
// The self-maintainable aggregates under deletion implement it — COUNT,
// SUM, and AVG (via its carried (sum, count) state). COUNT DISTINCT and
// MIN/MAX deliberately do not: a distinct set or an extremum cannot be
// maintained backwards without the group's full value multiset, which is
// exactly why incremental view maintenance recomputes a MIN/MAX group when
// a delete touches its stored extremum.
type Retractor interface {
	Accumulator
	// Unadd retracts one value. Retracting a value that was never Added
	// leaves the accumulator in an undefined (but non-panicking) state;
	// callers are responsible for feeding only genuine deletions.
	Unadd(v Value)
}

// countAcc counts bound values (or all rows for COUNT(*), where the caller
// feeds a bound placeholder per row).
type countAcc struct{ n int64 }

func (a *countAcc) Add(v Value) {
	if v.Bound {
		a.n++
	}
}

func (a *countAcc) Unadd(v Value) {
	if v.Bound {
		a.n--
	}
}

func (a *countAcc) Fold(o Accumulator) { a.n += o.(*countAcc).n }

func (a *countAcc) Result() Value { return Bind(rdf.NewInteger(a.n)) }

// countDistinctAcc counts distinct bound terms.
type countDistinctAcc struct {
	seen map[rdf.Term]struct{}
}

func (a *countDistinctAcc) Add(v Value) {
	if v.Bound {
		a.seen[v.Term] = struct{}{}
	}
}

func (a *countDistinctAcc) Fold(o Accumulator) {
	for t := range o.(*countDistinctAcc).seen {
		a.seen[t] = struct{}{}
	}
}

func (a *countDistinctAcc) Result() Value {
	return Bind(rdf.NewInteger(int64(len(a.seen))))
}

// sumAcc sums numeric values. Non-numeric input poisons the group (unbound
// result), matching SPARQL aggregate error semantics. An empty SUM is 0.
type sumAcc struct {
	sum float64
	errored
}

// errored is a mixin tracking whether a type error occurred.
type errored struct{ failed bool }

func (a *sumAcc) Add(v Value) {
	if a.failed || !v.Bound {
		return
	}
	f, ok := NumericValue(v.Term)
	if !ok {
		a.failed = true
		return
	}
	a.sum += f
}

func (a *sumAcc) Unadd(v Value) {
	if a.failed || !v.Bound {
		return
	}
	f, ok := NumericValue(v.Term)
	if !ok {
		// A non-numeric retraction means the value was never cleanly added
		// (its addition would have poisoned the group); poison rather than
		// silently corrupt the sum.
		a.failed = true
		return
	}
	a.sum -= f
}

func (a *sumAcc) Fold(o Accumulator) {
	b := o.(*sumAcc)
	a.failed = a.failed || b.failed
	if !a.failed {
		a.sum += b.sum
	}
}

func (a *sumAcc) Result() Value {
	if a.failed {
		return Unbound
	}
	return Bind(FormatFloat(a.sum))
}

// avgAcc averages numeric values; empty groups yield unbound.
type avgAcc struct {
	sum float64
	n   int64
	errored
}

func (a *avgAcc) Add(v Value) {
	if a.failed || !v.Bound {
		return
	}
	f, ok := NumericValue(v.Term)
	if !ok {
		a.failed = true
		return
	}
	a.sum += f
	a.n++
}

func (a *avgAcc) Unadd(v Value) {
	if a.failed || !v.Bound {
		return
	}
	f, ok := NumericValue(v.Term)
	if !ok {
		a.failed = true
		return
	}
	a.sum -= f
	a.n--
}

func (a *avgAcc) Fold(o Accumulator) {
	b := o.(*avgAcc)
	a.failed = a.failed || b.failed
	if !a.failed {
		a.sum += b.sum
		a.n += b.n
	}
}

func (a *avgAcc) Result() Value {
	if a.failed || a.n == 0 {
		return Unbound
	}
	return Bind(FormatFloat(a.sum / float64(a.n)))
}

// minMaxAcc tracks the minimum or maximum value under aggCompare — a single
// transitive total order (numeric order for numerics, lexical for strings,
// class rank across heterogeneous terms). Transitivity makes accumulation
// order-independent, which the parallel aggregation merge relies on: folding
// per-partition bests yields exactly the serial result. (The seed's
// two-regime Compare-then-SortCompare fallback was not transitive, so
// heterogeneous groups produced order-dependent answers.)
type minMaxAcc struct {
	min  bool
	best Value
	errored
}

func (a *minMaxAcc) Add(v Value) {
	if a.failed || !v.Bound {
		return
	}
	if !a.best.Bound {
		a.best = v
		return
	}
	c := AggCompare(a.best.Term, v.Term)
	if (a.min && c > 0) || (!a.min && c < 0) {
		a.best = v
	}
}

func (a *minMaxAcc) Fold(o Accumulator) {
	b := o.(*minMaxAcc)
	a.failed = a.failed || b.failed
	if a.failed || !b.best.Bound {
		return
	}
	// aggCompare ties keep the receiver's best, i.e. the earlier partition's
	// first-seen value — matching a serial left-to-right pass.
	a.Add(b.best)
}

func (a *minMaxAcc) Result() Value {
	if a.failed {
		return Unbound
	}
	return a.best
}

// AggCompare orders any two bound terms for MIN/MAX accumulation. Terms in
// the same comparison class order by Compare semantics (numeric order,
// lexical strings); across classes the class rank decides. The relation is a
// transitive total preorder — the property that makes min/max folds
// associative — which Compare alone (partial) and SortCompare (two-regime
// within literals) are not. Exported so incremental view maintenance can
// merge insert-side MIN/MAX deltas with exactly the accumulator's order
// (and detect the ambiguous ties that force a recompute).
func AggCompare(a, b rdf.Term) int {
	ca, cb := aggClass(a), aggClass(b)
	if ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	switch ca {
	case aggClassNumeric:
		fa, _ := NumericValue(a)
		fb, _ := NumericValue(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case aggClassTyped:
		// Distinct datatypes are mutually incomparable: key order on
		// (datatype, value) keeps the relation transitive.
		if a.Datatype != b.Datatype {
			if a.Datatype < b.Datatype {
				return -1
			}
			return 1
		}
	}
	switch {
	case a.Value < b.Value:
		return -1
	case a.Value > b.Value:
		return 1
	default:
		return 0
	}
}

// MIN/MAX comparison classes, in rank order. The blank < IRI < literal
// progression matches sortRank (ORDER BY), so MIN over a mixed IRI/literal
// group agrees with ORDER BY ... LIMIT 1; literals split into sub-classes
// because they need three mutually incomparable in-class orders.
const (
	aggClassBlank   = iota // blank nodes, lexical order
	aggClassIRI            // IRIs, lexical order
	aggClassNumeric        // numeric literals, numeric order
	aggClassString         // plain/string/lang-tagged literals, lexical order
	aggClassTyped          // other typed literals, (datatype, value) order
)

func aggClass(t rdf.Term) int {
	switch t.Kind {
	case rdf.KindIRI:
		return aggClassIRI
	case rdf.KindBlank:
		return aggClassBlank
	}
	if _, ok := NumericValue(t); ok {
		return aggClassNumeric
	}
	if t.Datatype == "" || t.Datatype == rdf.XSDString || t.Lang != "" {
		return aggClassString
	}
	return aggClassTyped
}

// sampleAcc keeps the first bound value; used for plain variables that are
// implicitly grouped (never reached for validated queries but kept safe).
type sampleAcc struct{ v Value }

func (a *sampleAcc) Add(v Value) {
	if !a.v.Bound && v.Bound {
		a.v = v
	}
}

func (a *sampleAcc) Fold(o Accumulator) { a.Add(o.(*sampleAcc).v) }

func (a *sampleAcc) Result() Value { return a.v }

// MergeAggregates combines two already-aggregated values of the same kind,
// used when rolling up a materialized view to a coarser granularity:
// SUM⊕SUM, COUNT⊕COUNT (by summation), MIN⊕MIN, MAX⊕MAX. AVG is not
// directly mergeable — the caller must merge (SUM, COUNT) pairs — so AVG
// returns a type error here.
func MergeAggregates(kind sparql.AggKind, a, b rdf.Term) (rdf.Term, error) {
	switch kind {
	case sparql.AggSum, sparql.AggCount:
		fa, err := ParseNumeric(a)
		if err != nil {
			return rdf.Term{}, err
		}
		fb, err := ParseNumeric(b)
		if err != nil {
			return rdf.Term{}, err
		}
		return FormatFloat(fa + fb), nil
	case sparql.AggMin, sparql.AggMax:
		c, err := Compare(a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		if (kind == sparql.AggMin && c <= 0) || (kind == sparql.AggMax && c >= 0) {
			return a, nil
		}
		return b, nil
	default:
		return rdf.Term{}, TypeErrorf("aggregate %v is not mergeable", kind)
	}
}

// MergeDelta applies a delta aggregate to a stored aggregate of the same
// kind — the entry point incremental view maintenance uses, mirroring
// MergeAggregates. With retract false it merges an insert-side delta
// (identical to MergeAggregates); with retract true it removes a
// delete-side delta. SUM and COUNT are delta-mergeable in both directions;
// MIN and MAX only insert-side (retracting a value that ties the stored
// extremum needs the group's full multiset, so it is a type error here and
// the caller must recompute); AVG is maintained through its (sum, count)
// companions, so — as in MergeAggregates — it is always a type error.
func MergeDelta(kind sparql.AggKind, cur, delta rdf.Term, retract bool) (rdf.Term, error) {
	if !retract {
		return MergeAggregates(kind, cur, delta)
	}
	switch kind {
	case sparql.AggSum, sparql.AggCount:
		fa, err := ParseNumeric(cur)
		if err != nil {
			return rdf.Term{}, err
		}
		fb, err := ParseNumeric(delta)
		if err != nil {
			return rdf.Term{}, err
		}
		return FormatFloat(fa - fb), nil
	default:
		return rdf.Term{}, TypeErrorf("aggregate %v is not retractable", kind)
	}
}
