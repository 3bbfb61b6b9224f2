//go:build race

package views

// raceEnabled reports that the race detector is on: it instruments and
// allocates on its own, so allocation budgets cannot be asserted.
const raceEnabled = true
