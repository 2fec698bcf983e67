//go:build !race

package emul_test

// raceInstrumented is false in regular builds — see race_on_test.go.
const raceInstrumented = false
