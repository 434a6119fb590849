//go:build !race

package db

// raceEnabled reports a -race build, whose instrumentation changes what
// allocation counts can promise.
const raceEnabled = false
