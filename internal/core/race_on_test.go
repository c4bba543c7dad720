//go:build race

package core

// raceEnabled skips the byte-count tripwire: the detector's own
// instrumentation allocates, as in internal/nn.
const raceEnabled = true
