//go:build !race

package scenario_test

// raceInstrumented is false in regular builds — see race_on_test.go.
const raceInstrumented = false
