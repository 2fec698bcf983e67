//go:build !race

package emul

// RaceShedAllocs is zero in regular builds — see race_on_test.go.
const RaceShedAllocs = 0
