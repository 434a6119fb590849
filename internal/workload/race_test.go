//go:build race

package workload_test

// raceEnabled reports a -race build, whose instrumentation changes what
// allocation counts can promise.
const raceEnabled = true
