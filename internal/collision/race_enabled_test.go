//go:build race

package collision

// raceEnabled reports whether the race detector is compiled in; the
// allocation-gate tests skip under it because the race runtime inflates
// allocation counts.
const raceEnabled = true
