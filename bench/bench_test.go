package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// update rewrites /BENCHMARK.json from the program's tables:
//
//	go -C bench test -run TestBenchmarkJSON -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's tables")

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: merged
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "orphan", Start: 5, End: 9, Parent: 99}, // unknown parent: a root
	}
	want := []int64{50, 14, 30, 30, 6, 4}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestStampRoundTrip sends stamped and unstamped frames of both workload
// sizes through all four Figure-1 NFs, as the emulator would, and checks the
// due time in the payload tail survives them.
func TestStampRoundTrip(t *testing.T) {
	c := scenario.Figure1Chain()
	var nfs []nf.NF
	for i := 0; i < c.Len(); i++ {
		inst, err := nf.New(c.At(i).Name, c.At(i).Type)
		if err != nil {
			t.Fatal(err)
		}
		nfs = append(nfs, inst)
	}
	synth := traffic.NewSynth(8, 3) // flows alternate UDP and TCP
	dec := packet.NewDecoder()
	for _, size := range []int{64, 512} {
		for fl := uint64(0); fl < 8; fl++ {
			for _, stamped := range []bool{true, false} {
				frame := synth.Frame(fl, size)
				due := int64(1_234_567_890_123 + fl)
				if stamped {
					putStamp(frame, due)
				}
				for _, inst := range nfs {
					if _, err := dec.Decode(frame); err != nil {
						t.Fatalf("size %d flow %d: decode before %s: %v", size, fl, inst.Name(), err)
					}
					ctx := &nf.Ctx{Frame: frame, Decoder: dec}
					if k, ok := flow.FromDecoder(dec); ok {
						ctx.FlowKey, ctx.HasFlow = k, true
					}
					if v := inst.ProcessBatch([]*nf.Ctx{ctx}); len(v) != 1 || v[0] != nf.VerdictPass {
						t.Fatalf("size %d flow %d: %s verdict %v", size, fl, inst.Name(), v)
					}
				}
				got, ok := readStamp(frame)
				if ok != stamped || (stamped && got != due) {
					t.Errorf("size %d flow %d stamped=%v: read (%d, %v), want (%d, %v)", size, fl, stamped, got, ok, due, stamped)
				}
			}
		}
	}
}

func TestBalancedFrames(t *testing.T) {
	for _, flows := range []int{16, 160, 1024} {
		frames := balancedFrames(9, flows, 64)
		if len(frames) != flows {
			t.Fatalf("%d flows: got %d frames", flows, len(frames))
		}
		var shard [2]int
		for _, f := range frames {
			shard[packet.FlowHash(f)%2]++
		}
		if shard[0] != flows/2 || shard[1] != flows/2 {
			t.Errorf("%d flows: shards %v, want an even split", flows, shard)
		}
	}
}

func TestSummarizeIgnoresAStalledSecond(t *testing.T) {
	var samples []latSample
	for sec := int64(0); sec < 5; sec++ {
		for i := int64(0); i < 2000; i++ {
			lat := 100_000 + i*10 // 100..120 µs
			if sec == 2 {
				lat += 50_000_000 // one second sits behind a 50 ms stall
			}
			samples = append(samples, latSample{at: sec*int64(time.Second) + i, lat: lat})
		}
	}
	st := summarize(samples, 0)
	if st.slices != 5 || st.p50 < 100 || st.p50 > 120 || st.p99 > 121 {
		t.Errorf("summarize: slices %d p50 %.1f p99 %.1f, want 5 slices and both within 100..121 µs", st.slices, st.p50, st.p99)
	}
	if tail := quantile(st.all, 0.99); tail < 50_000 {
		t.Errorf("the pooled p99 %.0f should still show the stall", tail)
	}
}

func TestAgree(t *testing.T) {
	if a := agree([]float64{100, 104}, 0.05, 0); !a.unchanged {
		t.Errorf("4 %% apart under a 5 %% bound: %+v, want unchanged", a)
	}
	if a := agree([]float64{100, 112}, 0.05, 0); a.unchanged {
		t.Errorf("12 %% apart under a 5 %% bound: %+v, want unresolved", a)
	}
	if a := agree([]float64{0, 0.00005}, 0, 1e-4); !a.unchanged {
		t.Errorf("absolute bound: %+v, want unchanged", a)
	}
	// Four or more sets: the interquartile distance decides, so one outlier
	// does not.
	if a := agree([]float64{100, 101, 102, 103, 180}, 0.05, 0); !a.unchanged {
		t.Errorf("one outlier in five: %+v, want unchanged", a)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"-trace", "-trace=1"},
		{"--trace 0 --seed 3", "--trace=0 --seed 3"},
		{"--workload x --trace 1", "--workload x --trace=1"},
		{"-runs 2 -compare", "-runs 2 -compare=1"},
		{"-trace -seed 1", "-trace=1 -seed 1"},
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWorkloadSmoke runs every workload for a fraction of a second and
// asserts its correctness checks and the shape of its result line — never a
// timing.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			e := &env{seed: 5, window: 300 * time.Millisecond, layerCalls: 2000, outDir: t.TempDir()}
			if w.Name == "ctl_hotspot" {
				e.window = 600 * time.Millisecond // calm, three hot polls, the move, relief
			}
			o, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			o.print(&report, false)
			if !o.correct() || o.attempted < 1 {
				t.Fatalf("checks failed:\n%s", report.String())
			}
			assertResultLine(t, o.jsonLine(false), endToEnd)
		})
	}
}

// TestTracedSmoke does the same with spans on, for one workload of each
// kind, and checks a span file appears.
func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"fig1_migrate", "ctl_hotspot", "fleet_handoff"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := &env{seed: 6, window: 1200 * time.Millisecond, trace: true, layerCalls: 2000, outDir: dir}
			o, err := findWorkload(name).run(e)
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			o.print(&report, true)
			if !o.correct() {
				t.Fatalf("checks failed:\n%s", report.String())
			}
			assertResultLine(t, o.jsonLine(true), perLayer)
			data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			var first span
			line, _, _ := bytes.Cut(data, []byte("\n"))
			if err := json.Unmarshal(line, &first); err != nil || first.Name == "" || first.End < first.Start {
				t.Errorf("first span %q: %+v, %v", line, first, err)
			}
			if o.layers["trace.spans"] < 1 {
				t.Errorf("trace.spans = %v", o.layers["trace.spans"])
			}
		})
	}
}

func assertResultLine(t *testing.T, line string, defs []metricDef) {
	t.Helper()
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
		t.Fatalf("result line %q lacks correct/attempted/failed", line)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s: %+v (present %v), want unit %q", d.Name, m, ok, d.Unit)
		}
	}
}

// TestBenchmarkJSONMirrorsTheTables keeps /BENCHMARK.json equal to the
// tables this program reports from.
func TestBenchmarkJSONMirrorsTheTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		out, err := json.MarshalIndent(map[string]any{
			"command":     []string{"go", "-C", "bench", "run", "."},
			"paths":       []string{"bench"},
			"run_seconds": runSeconds,
			"workloads":   contract,
			"end_to_end":  endToEnd,
			"per_layer":   perLayer,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || b.RunSeconds != runSeconds || len(b.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", b.Paths, b.RunSeconds, b.Command)
	}
	var names, whys []string
	for _, w := range contract {
		names, whys = append(names, w.Name), append(whys, w.Why)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	for i, w := range b.Workloads {
		if i >= len(names) || w.Name != names[i] || w.Why != whys[i] {
			t.Errorf("workload %d: %+v differs from the program's table", i, w)
		}
	}
	if len(b.Workloads) != len(contract) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program's contract", len(b.Workloads), len(contract))
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
}
