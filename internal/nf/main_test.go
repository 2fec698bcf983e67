package nf

import (
	"fmt"
	"os"
	"testing"
)

// TestMain runs the package's tests and then checks that the shared
// all-pass verdict array still reads all pass: every ProcessBatch caller in
// these tests treated its verdicts as read-only, and setVerdict never wrote
// through to the array.
func TestMain(m *testing.M) {
	code := m.Run()
	for i, v := range allPass {
		if v != VerdictPass {
			fmt.Fprintf(os.Stderr, "nf: shared verdict %d reads %v after the tests: something wrote through a ProcessBatch result\n", i, v)
			code = 1
		}
	}
	os.Exit(code)
}
