package store

import (
	"sort"

	"sofos/internal/rdf"
)

// PredicateStat summarizes one predicate's usage in a graph. These statistics
// feed both the planner's selectivity estimates and the learned cost model's
// feature encoding ("statistics about the relationship frequency and the
// attribute frequency", §3.1 of the paper).
type PredicateStat struct {
	Predicate        rdf.Term
	Count            int // number of triples with this predicate
	DistinctSubjects int
	DistinctObjects  int
}

// Stats is a snapshot of graph-level statistics.
type Stats struct {
	Triples            int
	DistinctSubjects   int
	DistinctPredicates int
	DistinctObjects    int
	DistinctNodes      int
	Predicates         []PredicateStat // sorted by descending Count, then IRI

	// byIRI indexes Predicates by IRI for O(1) lookup; nil for Stats values
	// constructed literally, in which case lookups fall back to a scan.
	byIRI map[string]int
}

// Predicate returns the statistics of a predicate IRI, if present.
func (s *Stats) Predicate(iri string) (PredicateStat, bool) {
	if s.byIRI != nil {
		if i, ok := s.byIRI[iri]; ok {
			return s.Predicates[i], true
		}
		return PredicateStat{}, false
	}
	for _, p := range s.Predicates {
		if p.Predicate.Value == iri {
			return p, true
		}
	}
	return PredicateStat{}, false
}

// PredicateCount returns the triple count of a predicate IRI, 0 if absent.
func (s *Stats) PredicateCount(iri string) int {
	p, ok := s.Predicate(iri)
	if !ok {
		return 0
	}
	return p.Count
}

// Snapshot computes current statistics for the graph. Per-predicate counts
// and distinct-object counts are read directly off the POS permutation run —
// each predicate is one contiguous range sorted by object — so only the
// per-predicate distinct-subject sets need scratch memory.
func (g *Graph) Snapshot() *Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	st := &Stats{
		Triples:            g.n,
		DistinctSubjects:   g.counts[0].distinct,
		DistinctPredicates: g.counts[1].distinct,
		DistinctObjects:    g.counts[2].distinct,
		DistinctNodes:      g.distinctNodesLocked(),
	}
	it := g.scanPermLocked(permPOS, rdf.EncodedTriple{}, 0)

	// The iterator yields (p, o, s)-sorted triples: predicate ranges are
	// contiguous and objects are grouped within each range.
	var cur PredicateStat
	curP, curO := rdf.NoID, rdf.NoID
	subjects := make(map[rdf.ID]struct{})
	flush := func() {
		if curP == rdf.NoID {
			return
		}
		cur.DistinctSubjects = len(subjects)
		st.Predicates = append(st.Predicates, cur)
	}
	for it.Next() {
		s, p, o := it.Triple()
		if p != curP {
			flush()
			curP, curO = p, rdf.NoID
			cur = PredicateStat{Predicate: g.dict.Term(p)}
			clear(subjects)
		}
		cur.Count++
		if o != curO {
			cur.DistinctObjects++
			curO = o
		}
		subjects[s] = struct{}{}
	}
	flush()
	sort.Slice(st.Predicates, func(i, j int) bool {
		if st.Predicates[i].Count != st.Predicates[j].Count {
			return st.Predicates[i].Count > st.Predicates[j].Count
		}
		return st.Predicates[i].Predicate.Value < st.Predicates[j].Predicate.Value
	})
	st.byIRI = make(map[string]int, len(st.Predicates))
	for i, p := range st.Predicates {
		st.byIRI[p.Predicate.Value] = i
	}
	return st
}

// overlayEntryBytes is what one overlay entry occupies: a 12-byte key in each
// of the three permutations' sorted slices.
const overlayEntryBytes = 3 * 12

// EstimatedBytes approximates the in-memory footprint of the graph's triple
// data, used for the paper's storage-amplification reports and the memory-
// budget selection variant. It counts dictionary string bytes once plus the
// columnar index cost: three permutation runs at 12 bytes (three 4-byte IDs)
// per triple, and the same three 12-byte keys per uncompacted delta entry.
func (g *Graph) EstimatedBytes() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var total int64
	g.dict.EachTerm(func(_ rdf.ID, t rdf.Term) bool {
		total += int64(len(t.Value) + len(t.Datatype) + len(t.Lang) + 16)
		return true
	})
	total += int64(runSize(g.runs[permSPO])) * (3 * 12)
	total += int64(g.ov.size()) * overlayEntryBytes
	return total
}

// IndexMemStats is the resident footprint of one permutation index.
type IndexMemStats struct {
	Keys   int   `json:"keys"`                   // triples stored in the run
	Blocks int   `json:"blocks,omitempty"`       // compressed blocks (0 for flat)
	Bytes  int64 `json:"bytes"`                  // heap-resident bytes of the run encoding
	Mapped int64 `json:"mapped_bytes,omitempty"` // mmap-backed payload bytes
}

// MemStats reports the actual resident bytes of the graph's storage, broken
// down per permutation index, plus the active run codec. Unlike
// EstimatedBytes — which is a codec-independent cost-model quantity the
// planner and selection variants consume — MemStats measures the real
// encoding, so the block codec's compression win is observable in /stats.
type MemStats struct {
	Codec       string        `json:"codec"`
	Storage     string        `json:"storage"` // mmap for a mapped snapshot, else heap
	Triples     int           `json:"triples"`
	Pages       int           `json:"pages,omitempty"`     // paged-snapshot pages backing the runs
	PageSize    int           `json:"page_size,omitempty"` // bytes per page
	SPO         IndexMemStats `json:"spo"`
	POS         IndexMemStats `json:"pos"`
	OSP         IndexMemStats `json:"osp"`
	OverlayAdds int           `json:"overlay_adds"`
	OverlayDels int           `json:"overlay_dels"`
	DictBytes   int64         `json:"dict_bytes"`
	IndexBytes  int64         `json:"index_bytes"`  // SPO+POS+OSP+overlay, heap-resident
	MappedBytes int64         `json:"mapped_bytes"` // mmap-backed snapshot bytes (not heap)
	TotalBytes  int64         `json:"total_bytes"`  // IndexBytes + DictBytes
}

// MemStats measures the graph's current resident storage footprint.
func (g *Graph) MemStats() MemStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ms := MemStats{
		Codec:       g.codec.name(),
		Storage:     "heap",
		Triples:     g.n,
		OverlayAdds: len(g.ov.adds[permSPO]),
		OverlayDels: len(g.ov.dels[permSPO]),
	}
	if p := g.pages; p != nil {
		ms.Pages, ms.PageSize = p.pages, p.psz
		if p.mapped {
			ms.Storage, ms.MappedBytes = "mmap", int64(len(p.data))
		}
	}
	perms := [numPerms]*IndexMemStats{&ms.SPO, &ms.POS, &ms.OSP}
	for k := permKind(0); k < numPerms; k++ {
		if r := g.runs[k]; r != nil {
			perms[k].Keys = r.size()
			perms[k].Blocks = r.numBlocks()
			perms[k].Bytes = r.memBytes()
			perms[k].Mapped = r.mappedBytes()
		}
		ms.IndexBytes += perms[k].Bytes
	}
	ms.IndexBytes += int64(g.ov.size()) * overlayEntryBytes
	g.dict.EachTerm(func(_ rdf.ID, t rdf.Term) bool {
		ms.DictBytes += int64(len(t.Value) + len(t.Datatype) + len(t.Lang) + 16)
		return true
	})
	ms.TotalBytes = ms.IndexBytes + ms.DictBytes
	return ms
}
