//go:build race

package central

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation perturbs allocation counts, so the AllocsPerRun
// assertions skip under it; the zero-allocation guarantees are enforced
// by the non-race test run.
const raceEnabled = true
