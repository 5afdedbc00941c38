package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: rnrsim/internal/sim
cpu: some CPU
BenchmarkSimulatorThroughput-8   	       1	 95000000 ns/op	   1.2e+06 cycles/s	 5000000 B/op	   12345 allocs/op
BenchmarkSimulatorThroughput/obs-8   	   1	100000000 ns/op	   1.1e+06 cycles/s	 5100000 B/op	   12400 allocs/op
PASS
ok  	rnrsim/internal/sim	1.2s
pkg: rnrsim/internal/telemetry
BenchmarkCounterInc-8           	1000000	       2.1 ns/op	       0 B/op	       0 allocs/op
ok  	rnrsim/internal/telemetry	0.5s
`

func TestParseBenchOutput(t *testing.T) {
	art, err := parseBenchOutput(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(art.Benchmarks), art.Benchmarks)
	}
	byName := map[string]Bench{}
	for _, b := range art.Benchmarks {
		byName[b.Name] = b
	}
	st, ok := byName["SimulatorThroughput"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v", art.Benchmarks)
	}
	if st.Metrics["cycles/s"] != 1.2e6 || st.Metrics["ns/op"] != 95000000 {
		t.Errorf("metrics = %+v", st.Metrics)
	}
	if _, ok := byName["SimulatorThroughput/obs"]; !ok {
		t.Error("sub-benchmark name lost")
	}
	if byName["CounterInc"].Metrics["ns/op"] != 2.1 {
		t.Errorf("CounterInc = %+v", byName["CounterInc"])
	}
}

func TestParseTakesMedianOfRepeats(t *testing.T) {
	// go test -count 3 prints three lines per benchmark; an even count
	// takes the mean of the middle pair.
	text := "BenchmarkX-4 1 100 ns/op 1e6 cycles/s\n" +
		"BenchmarkX-4 1 50 ns/op 3e6 cycles/s\n" +
		"BenchmarkY-4 5 10 ns/op\n" +
		"BenchmarkX-4 2 70 ns/op 2e6 cycles/s\n" +
		"BenchmarkY-4 5 20 ns/op\n"
	art, err := parseBenchOutput(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 2 {
		t.Fatalf("repeats not collapsed: %+v", art.Benchmarks)
	}
	x, y := art.Benchmarks[0], art.Benchmarks[1]
	if x.Samples != 3 || x.Metrics["ns/op"] != 70 || x.Metrics["cycles/s"] != 2e6 || x.Iters != 2 {
		t.Errorf("X = %+v, want 3 samples, medians 70 ns/op and 2e6 cycles/s, last iters 2", x)
	}
	if y.Samples != 2 || y.Metrics["ns/op"] != 15 {
		t.Errorf("Y = %+v, want 2 samples, median 15 ns/op", y)
	}
}

func TestArtifactWithoutSamplesStillLoads(t *testing.T) {
	// The BENCH_*.json shape written before repeats were kept.
	legacy := `{"schema_version":"rnrsim.v1","benchmarks":[{"name":"X","iters":1,"metrics":{"ns/op":100}}]}`
	var a Artifact
	if err := json.Unmarshal([]byte(legacy), &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Benchmarks) != 1 || a.Benchmarks[0].Samples != 0 || a.Benchmarks[0].Metrics["ns/op"] != 100 {
		t.Fatalf("legacy artifact = %+v", a.Benchmarks)
	}
	out, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "samples") {
		t.Errorf("legacy bench re-encoded with a samples field: %s", out)
	}
}

func mkArtifact(metrics map[string]map[string]float64) Artifact {
	var a Artifact
	for name, m := range metrics {
		a.Benchmarks = append(a.Benchmarks, Bench{Name: name, Iters: 1, Metrics: m})
	}
	return a
}

func TestDiffDirectionAware(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{
		"Sim": {"cycles/s": 1e6, "ns/op": 100},
	})
	// cycles/s fell 20%, ns/op rose 20%: both are regressions at 10%.
	cur := mkArtifact(map[string]map[string]float64{
		"Sim": {"cycles/s": 0.8e6, "ns/op": 120},
	})
	d := diff(old, cur, 0.10)
	if len(d.Regressions) != 2 {
		t.Fatalf("regressions = %+v, want 2", d.Regressions)
	}
	// The same moves pass a 50% threshold.
	if d := diff(old, cur, 0.50); len(d.Regressions) != 0 {
		t.Errorf("lenient threshold still flagged: %+v", d.Regressions)
	}
	// Moves in the good direction are never regressions, however large.
	better := mkArtifact(map[string]map[string]float64{
		"Sim": {"cycles/s": 5e6, "ns/op": 10},
	})
	if d := diff(old, better, 0.01); len(d.Regressions) != 0 {
		t.Errorf("improvements flagged as regressions: %+v", d.Regressions)
	}
}

func TestDiffDisjointBenchmarks(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{
		"Gone": {"ns/op": 1}, "Shared": {"ns/op": 1}})
	cur := mkArtifact(map[string]map[string]float64{
		"Fresh": {"ns/op": 1}, "Shared": {"ns/op": 1}})
	d := diff(old, cur, 0.10)
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "Gone" {
		t.Errorf("OnlyOld = %v", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "Fresh" {
		t.Errorf("OnlyNew = %v", d.OnlyNew)
	}
	// Appearing/disappearing benchmarks never fail the diff.
	if len(d.Regressions) != 0 {
		t.Errorf("regressions = %+v", d.Regressions)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{"Z": {"allocs/op": 0}})
	cur := mkArtifact(map[string]map[string]float64{"Z": {"allocs/op": 5}})
	// A zero baseline cannot produce a relative change; it must not
	// panic or divide by zero, and is reported without a verdict.
	d := diff(old, cur, 0.10)
	if len(d.Regressions) != 0 || len(d.Deltas) != 1 {
		t.Errorf("diff = %+v", d)
	}
}

func TestWriteDiff(t *testing.T) {
	old := mkArtifact(map[string]map[string]float64{"Sim": {"ns/op": 100}})
	cur := mkArtifact(map[string]map[string]float64{"Sim": {"ns/op": 200}})
	d := diff(old, cur, 0.10)
	var b strings.Builder
	d.write(&b, "fc150d6", "abc1234")
	out := b.String()
	for _, want := range []string{"fc150d6", "abc1234", "<< REGRESSION", "+100.0%", "1 regression(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}
