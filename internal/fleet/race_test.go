//go:build race

package fleet

// raceEnabled reports whether the race detector instruments this test
// binary.
const raceEnabled = true
