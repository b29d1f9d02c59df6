//go:build race

package core

// raceDetector reports that the tests were built with -race, under which a
// restore costs about twenty times as much.
const raceDetector = true
