package store

import (
	"fmt"

	"sofos/internal/rdf"
)

// Delta is the effective change ΔG of one committed update batch: the
// triples that were actually new and the triples that were actually present
// and removed, tagged with the graph-version interval the batch moved the
// graph across. Writers capture it at commit time (see Graph.Apply) so view
// maintenance can replay exactly the batches a stale view missed instead of
// re-deriving the difference from two full graphs.
type Delta struct {
	Inserted []rdf.Triple // triples that were new (absent before, present after)
	Deleted  []rdf.Triple // triples that were removed (present before, absent after)

	// FromVersion and ToVersion are the graph's Version immediately before
	// and after the batch; chained deltas with matching endpoints reconstruct
	// ΔG across any retained interval.
	FromVersion int64
	ToVersion   int64
}

// Len is |ΔG|: the number of effective insertions plus deletions.
func (d *Delta) Len() int { return len(d.Inserted) + len(d.Deleted) }

// Empty reports whether the batch changed nothing.
func (d *Delta) Empty() bool { return d.Len() == 0 }

// Apply commits one batched update — inserts first, then deletes, matching
// the /update endpoint's order — under a single lock acquisition and returns
// the effective delta. A triple inserted (as new) and deleted by the same
// batch cancels out of the delta entirely: the graph is unchanged with
// respect to it. Inserts are validated up front, so an error means nothing
// was applied.
func (g *Graph) Apply(inserts, deletes []rdf.Triple) (Delta, error) {
	for _, t := range inserts {
		if err := t.Validate(); err != nil {
			return Delta{}, fmt.Errorf("store: %w", err)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	d := Delta{FromVersion: g.version}
	var insIdx map[rdf.EncodedTriple]int // effective insert key -> index in d.Inserted
	if len(inserts) > 0 && len(deletes) > 0 {
		insIdx = make(map[rdf.EncodedTriple]int, len(inserts))
	}
	b := batch{g: g}
	for _, t := range inserts {
		k := rdf.EncodedTriple{g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O)}
		if b.add(k) {
			if insIdx != nil {
				insIdx[k] = len(d.Inserted)
			}
			d.Inserted = append(d.Inserted, t)
			// The compaction policy applies insert by insert, as it does for
			// single Adds; deletes wait for the end of the batch.
			b.maybeCompact()
		}
	}
	var cancelled map[int]bool // indices of d.Inserted undone by a same-batch delete
	for _, t := range deletes {
		s, ok := g.dict.Lookup(t.S)
		if !ok {
			continue
		}
		p, ok := g.dict.Lookup(t.P)
		if !ok {
			continue
		}
		o, ok := g.dict.Lookup(t.O)
		if !ok {
			continue
		}
		if !b.remove(rdf.EncodedTriple{s, p, o}) {
			continue
		}
		if i, ok := insIdx[rdf.EncodedTriple{s, p, o}]; ok {
			if cancelled == nil {
				cancelled = make(map[int]bool)
			}
			cancelled[i] = true
			delete(insIdx, rdf.EncodedTriple{s, p, o})
			continue
		}
		d.Deleted = append(d.Deleted, t)
	}
	if len(cancelled) > 0 {
		kept := d.Inserted[:0]
		for i, t := range d.Inserted {
			if !cancelled[i] {
				kept = append(kept, t)
			}
		}
		d.Inserted = kept
	}
	b.commit()
	d.ToVersion = g.version
	return d, nil
}

// ComposeDeltas flattens a sequence of consecutively committed deltas into
// one net delta spanning the whole interval: a triple inserted by one
// statement and deleted by a later one (or vice versa) cancels out entirely,
// exactly as if the statements had been one batch. Multi-statement /update
// transactions use it to log a single WAL record for the transaction. The
// input deltas must chain (each FromVersion equal to the previous ToVersion);
// surviving triples keep first-touch order.
func ComposeDeltas(ds []Delta) Delta {
	if len(ds) == 0 {
		return Delta{}
	}
	if len(ds) == 1 {
		return ds[0]
	}
	net := Delta{FromVersion: ds[0].FromVersion, ToVersion: ds[len(ds)-1].ToVersion}
	sign := make(map[rdf.Triple]int8)
	var order []rdf.Triple
	for _, d := range ds {
		for _, t := range d.Inserted {
			if _, seen := sign[t]; !seen {
				order = append(order, t)
			}
			sign[t]++
		}
		for _, t := range d.Deleted {
			if _, seen := sign[t]; !seen {
				order = append(order, t)
			}
			sign[t]--
		}
	}
	for _, t := range order {
		switch {
		case sign[t] > 0:
			net.Inserted = append(net.Inserted, t)
		case sign[t] < 0:
			net.Deleted = append(net.Deleted, t)
		}
	}
	return net
}

// OverlayWith returns a read-only union of the graph and the extra triples,
// sharing the receiver's immutable sorted runs and its term dictionary: the
// extra triples are merged into a copy of the sorted delta overlay, so the
// cost is O(|delta overlay| + |extra|), never O(|G|). Incremental view
// maintenance uses it to evaluate delete-side joins against G ∪ Δ⁻ without
// rebuilding the pre-update graph.
//
// The overlay supports the read API only (Scan, Match, Contains, Estimate,
// Len, Triples and the distinct-component statistics); mutating it — or
// mutating the receiver or its dictionary while the overlay is in use — is
// undefined, and it keeps the receiver's Version.
// Extra triples whose terms were never interned in the receiver's dictionary
// are skipped: such a triple cannot have been part of any earlier graph
// state, and adding it would mutate the shared dictionary.
func (g *Graph) OverlayWith(extra []rdf.Triple) *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	o := g.forkLocked()
	b := batch{g: o}
	for _, t := range extra {
		s, ok := g.dict.Lookup(t.S)
		if !ok {
			continue
		}
		p, ok := g.dict.Lookup(t.P)
		if !ok {
			continue
		}
		ob, ok := g.dict.Lookup(t.O)
		if !ok {
			continue
		}
		b.add(rdf.EncodedTriple{s, p, ob})
	}
	b.flush() // no compaction: that would be O(|G|)
	o.version = g.version
	return o
}
