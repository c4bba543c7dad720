//go:build race

package serve

// raceEnabled skips the allocation tripwires: race-detector
// instrumentation allocates on its own, so AllocsPerRun counts measured
// under -race do not reflect the production allocation behaviour.
const raceEnabled = true
