//go:build !race

package collision

const raceEnabled = false
