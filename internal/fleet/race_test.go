//go:build race

package fleet_test

// raceDetector reports that the tests were built with -race, whose
// instrumentation allocates on its own account.
const raceDetector = true
