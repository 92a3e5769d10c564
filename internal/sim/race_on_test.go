//go:build race

package sim

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random and per-run allocation counts stop being comparable.
const raceEnabled = true
