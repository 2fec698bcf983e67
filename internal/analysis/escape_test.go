package analysis

import "testing"

const sampleOutput = `# repro/internal/fake
internal/fake/fake.go:10:6: can inline helper
internal/fake/fake.go:14:13: inlining call to helper
internal/fake/fake.go:20:9: make([]byte, n) escapes to heap
internal/fake/fake.go:25:2: moved to heap: counter
internal/fake/fake.go:31:10: leaking param: dst to result ~r0 level=0
internal/fake/fake.go:40:12: &job{} escapes to heap
other/pkg.go:7:3: composite literal escapes to heap
not a diagnostic line
bad:line:numbers: escapes to heap
`

func TestParseEscapes(t *testing.T) {
	got := parseEscapes(sampleOutput)
	want := []escape{
		{file: "internal/fake/fake.go", line: 20, col: 9, msg: "make([]byte, n) escapes to heap"},
		{file: "internal/fake/fake.go", line: 25, col: 2, msg: "moved to heap: counter"},
		{file: "internal/fake/fake.go", line: 40, col: 12, msg: "&job{} escapes to heap"},
		{file: "other/pkg.go", line: 7, col: 3, msg: "composite literal escapes to heap"},
	}
	if len(got) != len(want) {
		t.Fatalf("parseEscapes: got %d escapes, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("escape %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
