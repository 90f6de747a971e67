//go:build race

package kernels

// raceEnabled lets allocation pins skip under the race detector, whose
// instrumentation forces heap escapes the production build does not have.
const raceEnabled = true
