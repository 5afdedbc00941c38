package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Artifact is one BENCH_*.json perf-trajectory point: every benchmark
// the suite ran, under the same rnrsim.v1 envelope as the simulator's
// result exports so downstream tooling shares one schema check.
type Artifact struct {
	SchemaVersion string  `json:"schema_version"`
	GeneratedAt   string  `json:"generated_at"`
	Commit        string  `json:"commit,omitempty"`
	Benchmarks    []Bench `json:"benchmarks"`
}

// Bench is one benchmark's measurements: the standard testing metrics
// plus any custom b.ReportMetric units (cycles/s, ...), keyed by unit.
// A benchmark run with `go test -count N` prints N lines; Metrics then
// holds each unit's median over them, Samples the number of lines and
// Iters the last line's iteration count. Artifacts written before
// repeats were kept have no samples field and load with Samples 0,
// meaning one.
type Bench struct {
	Name    string             `json:"name"`
	Iters   uint64             `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
	Samples int                `json:"samples,omitempty"`
}

// gomaxprocsSuffix strips the "-8" GOMAXPROCS tail from a benchmark
// name so artifacts recorded on machines with different core counts
// still line up. Sub-benchmark names keep their full path.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput reads `go test -bench` text: lines of the form
//
//	BenchmarkName-8   100   123 ns/op   5.0e+06 cycles/s   16 B/op   2 allocs/op
//
// interleaved with ok/PASS noise, which is skipped. A benchmark that
// appears more than once (-count > 1) is one benchmark with that many
// samples, reduced to per-unit medians.
func parseBenchOutput(r io.Reader) (Artifact, error) {
	var art Artifact
	index := map[string]int{}
	var samples []map[string][]float64 // per benchmark: unit -> values
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		at, ok := index[name]
		if !ok {
			at = len(art.Benchmarks)
			index[name] = at
			art.Benchmarks = append(art.Benchmarks, Bench{Name: name})
			samples = append(samples, map[string][]float64{})
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return art, fmt.Errorf("bad metric value in %q", line)
			}
			samples[at][fields[i+1]] = append(samples[at][fields[i+1]], v)
		}
		art.Benchmarks[at].Iters = iters
		art.Benchmarks[at].Samples++
	}
	if err := sc.Err(); err != nil {
		return art, err
	}
	for at := range art.Benchmarks {
		metrics := make(map[string]float64, len(samples[at]))
		for unit, vs := range samples[at] {
			metrics[unit] = median(vs)
		}
		art.Benchmarks[at].Metrics = metrics
	}
	sort.Slice(art.Benchmarks, func(i, j int) bool {
		return art.Benchmarks[i].Name < art.Benchmarks[j].Name
	})
	return art, nil
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), reordering vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// higherIsBetter classifies a metric unit's good direction: rates
// (anything per second) should go up, costs (ns/op, B/op, allocs/op
// and any other per-op unit) should go down.
func higherIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/s")
}

// Delta is one (benchmark, metric) comparison.
type Delta struct {
	Bench, Unit string
	Old, New    float64
	Change      float64 // relative: (new-old)/old
	Regression  bool
}

// Diff is the comparison of two artifacts.
type Diff struct {
	Deltas      []Delta
	Regressions []Delta
	OnlyOld     []string // benchmarks that disappeared
	OnlyNew     []string // benchmarks that appeared
}

func diff(old, cur Artifact, threshold float64) Diff {
	var d Diff
	oldBy := map[string]Bench{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	curSeen := map[string]bool{}
	for _, nb := range cur.Benchmarks {
		curSeen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, nb.Name)
			continue
		}
		units := make([]string, 0, len(nb.Metrics))
		for u := range nb.Metrics {
			if _, ok := ob.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			ov, nv := ob.Metrics[u], nb.Metrics[u]
			delta := Delta{Bench: nb.Name, Unit: u, Old: ov, New: nv}
			if ov != 0 {
				delta.Change = (nv - ov) / ov
			}
			worse := delta.Change > 0
			if higherIsBetter(u) {
				worse = delta.Change < 0
			}
			if ov != 0 && worse && abs(delta.Change) > threshold {
				delta.Regression = true
				d.Regressions = append(d.Regressions, delta)
			}
			d.Deltas = append(d.Deltas, delta)
		}
	}
	for _, ob := range old.Benchmarks {
		if !curSeen[ob.Name] {
			d.OnlyOld = append(d.OnlyOld, ob.Name)
		}
	}
	return d
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func (d Diff) write(w io.Writer, oldLabel, newLabel string) {
	if oldLabel == "" {
		oldLabel = "old"
	}
	if newLabel == "" {
		newLabel = "new"
	}
	fmt.Fprintf(w, "%-44s %-10s %14s %14s %9s\n", "benchmark", "metric", oldLabel, newLabel, "change")
	for _, dl := range d.Deltas {
		flag := ""
		if dl.Regression {
			flag = "  << REGRESSION"
		}
		fmt.Fprintf(w, "%-44s %-10s %14.4g %14.4g %+8.1f%%%s\n",
			dl.Bench, dl.Unit, dl.Old, dl.New, dl.Change*100, flag)
	}
	for _, n := range d.OnlyNew {
		fmt.Fprintf(w, "%-44s (new benchmark, no baseline)\n", n)
	}
	for _, n := range d.OnlyOld {
		fmt.Fprintf(w, "%-44s (gone: present only in %s)\n", n, oldLabel)
	}
	if len(d.Regressions) > 0 {
		fmt.Fprintf(w, "\n%d regression(s)\n", len(d.Regressions))
	}
}
