//go:build race

package store

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation budgets cannot be asserted.
const raceEnabled = true
