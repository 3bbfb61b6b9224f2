package store

import "sofos/internal/rdf"

// A run is one immutable sorted sequence of permuted triple keys — the
// storage behind a permutation index — and the store has one representation
// of it, the block-compressed *blockRun (block.go). Runs are immutable once
// built; compaction and bulk loads replace a graph's runs wholesale through a
// blockBuilder, so a live Iterator can keep reading a replaced run forever.
// Positions are global key ordinals in [0, size()).

// spanArena is a per-iterator reusable decode buffer: one block at a time is
// decoded into SoA column slices, and iteration consumes [idx, n). Reusing
// the arena across refills and scans means steady-state iteration performs
// zero per-triple allocation.
//
// src/bi remember which block run and block index the columns currently hold,
// so refills and point lookups that land in the same block skip the decode —
// the common case for index-ordered probe streams like join bindings. Any
// path that overwrites the columns through grow invalidates the cache; only
// the decode paths set it.
type spanArena struct {
	c0, c1, c2 []rdf.ID
	idx, n     int
	src        *blockRun
	bi         int
}

// grow ensures capacity for n decoded keys and resets the window to [0, n).
// The caller is about to overwrite the columns, so the block cache is
// invalidated.
func (a *spanArena) grow(n int) {
	if cap(a.c0) < n {
		a.c0 = make([]rdf.ID, n)
		a.c1 = make([]rdf.ID, n)
		a.c2 = make([]rdf.ID, n)
	}
	a.c0, a.c1, a.c2 = a.c0[:cap(a.c0)][:n], a.c1[:cap(a.c1)][:n], a.c2[:cap(a.c2)][:n]
	a.idx, a.n = 0, n
	a.src = nil
}

// key assembles the permuted key at arena index i.
func (a *spanArena) key(i int) rdf.EncodedTriple {
	return rdf.EncodedTriple{a.c0[i], a.c1[i], a.c2[i]}
}

// reset empties the window without releasing capacity.
func (a *spanArena) reset() { a.idx, a.n = 0, 0 }
