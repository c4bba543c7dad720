//go:build race

package tensor

// raceEnabled marks a -race build, where sync.Pool drops items on
// purpose, so a kernel that draws from a pool may allocate.
const raceEnabled = true
