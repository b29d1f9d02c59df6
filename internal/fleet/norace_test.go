//go:build !race

package fleet_test

const raceDetector = false
