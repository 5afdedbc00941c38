// Command perfbench is the repository's end-to-end benchmark: four seeded
// workloads over the simulator (dense, idle), the experiment suite (suite)
// and both serving tiers (serve), each run in this one process. See
// README.md for what each workload exercises and why.
//
//	perfbench -workload dense -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Its metrics are exactly the ones BENCHMARK.json
// names, the same on every workload: endToEnd with -trace 0, perLayer with
// -trace 1. With -trace 1 the process measures the workload untraced, then
// again with spans and a CPU profile, and reports the per-layer metrics,
// the traced end-to-end numbers and the tracing overhead. A workload's own
// numbers (suite_wall_s, the serving latencies, its layers' spans) are
// printed as info lines above the result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"rnrsim/internal/telemetry"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start does not move it.
const setupRepeats = 5

// runDeadline bounds a whole run, traced or not, below the 180 s limit
// the benchmark contract sets.
const runDeadline = 170 * time.Second

type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value
}

// report is what one measurement of a workload produced.
type report struct {
	e2e   []metric
	layer []metric
	// counts is the work the timed phase did, for per-layer rates.
	counts    map[string]float64
	attempted int
	failed    int
}

// instance is a workload that has been set up and can be measured.
type instance interface {
	measure(ctx context.Context, seconds float64) (*report, error)
	close()
}

type runOpts struct {
	seed  int64
	nproc int
}

type workload struct {
	name  string
	setup func(ctx context.Context, o runOpts, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"dense", setupDense},
	{"idle", setupIdle},
	{"suite", setupSuite},
	{"serve", setupServe},
}

// spec is a metric BENCHMARK.json names, with its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of a -trace 0 result. Every workload measures
// all three: each simulates, and sim_mips aggregates whatever it simulated
// in its timed phase.
var endToEnd = []spec{{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"sim_mips", "Minstr/s"}}

// perLayer are the metrics of a -trace 1 result, again on every workload.
var perLayer = func() []spec {
	out := []spec{{"apps.build_ms", "ms"}, {"sim.allocs_per_run", "count"}, {"sim.bytes_per_run", "B"}}
	for _, b := range append(append([]string(nil), profiledPackages...), bucketGC, bucketMemmove) {
		out = append(out, spec{"cpu_share." + b, "fraction"})
	}
	for _, r := range workRates {
		out = append(out, spec{r.name, "ns"})
	}
	for _, m := range []spec{{"setup_s", "s"}, {"sim_mips", "Minstr/s"}} {
		out = append(out, spec{"traced." + m.name, m.unit}, spec{"trace_overhead_pct." + m.name, "%"})
	}
	return out
}()

// workRates divide a package's profiled CPU time by the work the Result
// counts say it did. Every workload's timed phase does all three kinds.
var workRates = []struct{ name, pkg, count string }{
	{"cache.ns_per_access", "cache", "cache.accesses"},
	{"dram.ns_per_request", "dram", "dram.requests"},
	{"cpu.ns_per_instr", "cpu", "cpu.instructions"},
}

// higherIsBetter lists the end-to-end metrics that are throughputs; every
// other one is a time or a size, where lower is better.
var higherIsBetter = map[string]bool{"sim_mips": true, "sim_cycles_per_s": true}

// stamp identifies a result: code, inputs and host.
type stamp struct {
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: dense, idle, suite or serve")
		seed    = flag.Int64("seed", 1, "seed for the run order and the request stream")
		seconds = flag.Int("seconds", 15, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 adds a traced, profiled measurement and reports per-layer metrics")
		outDir  = flag.String("out", ".bench_build/perfbench-out", "directory for spans and CPU profiles")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1 (got %d)", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	st := stamp{
		Commit: commit(ctx), Workload: w.name, Seed: *seed, Seconds: *seconds,
		Trace: *trace == 1, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
	}
	stampJSON, _ := json.Marshal(st) // a struct of strings and numbers always marshals
	fmt.Printf("stamp %s\n", stampJSON)

	o := runOpts{seed: *seed, nproc: runtime.NumCPU()}
	secs := float64(*seconds)
	untraced, err := measureOnce(ctx, w, o, secs, nil, setupRepeats, "")
	if err != nil {
		return err
	}
	untraced.e2e = append(untraced.e2e, metric{"peak_rss_mb", "MB", peakRSSMB(), 1})
	if _, err := pick(untraced.e2e, endToEnd, true); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if !st.Trace {
		return printResult(untraced.e2e, endToEnd, nil, untraced.attempted, untraced.failed)
	}
	layer, rep, err := traceRun(ctx, w, o, secs, untraced, *outDir, st)
	if err != nil {
		return err
	}
	return printResult(layer, perLayer, untraced.e2e,
		untraced.attempted+rep.attempted, untraced.failed+rep.failed)
}

// measureOnce measures the workload once, optionally under a CPU profile,
// and times `setups` set-ups: the one it measures, and the rest after the
// timed phase on throwaway instances, so that the set-up samples meet the
// host at different moments.
func measureOnce(ctx context.Context, w *workload, o runOpts, seconds float64,
	tr *tracer, setups int, profilePath string) (*report, error) {
	inst, s0, err := timedSetup(ctx, w, o, tr)
	if err != nil {
		return nil, err
	}
	rep, err := measureProfiled(ctx, inst, seconds, profilePath)
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	setupS := []float64{s0}
	for len(setupS) < setups {
		inst, s, err := timedSetup(ctx, w, o, nil)
		if err != nil {
			return nil, err
		}
		inst.close()
		setupS = append(setupS, s)
	}
	rep.e2e = append(rep.e2e, metric{"setup_s", "s", median(setupS), len(setupS)})
	return rep, nil
}

func timedSetup(ctx context.Context, w *workload, o runOpts, tr *tracer) (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(ctx, o, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

func measureProfiled(ctx context.Context, inst instance, seconds float64, profilePath string) (*report, error) {
	runtime.GC()
	stop, err := telemetry.StartCPUProfile(profilePath)
	if err != nil {
		return nil, err
	}
	defer stop()
	return inst.measure(ctx, seconds)
}

// traceRun measures the workload again with spans and a CPU profile and
// returns the per-layer metrics: the workload's own, CPU self-time shares
// by package, work rates, and its end-to-end numbers traced beside their
// overhead against the untraced measurement.
func traceRun(ctx context.Context, w *workload, o runOpts, seconds float64,
	untraced *report, outDir string, st stamp) ([]metric, *report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, st.Seed))
	tr := newTracer()
	rep, err := measureOnce(ctx, w, o, seconds, tr, 1, base+".pprof")
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(base+".spans.json", st); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	byBucket, total, err := attributeProfile(ctx, base+".pprof")
	if err != nil {
		return nil, nil, err
	}
	if total <= 0 {
		return nil, nil, errors.New("CPU profile holds no samples")
	}
	samples := int(total / (10 * time.Millisecond)) // pprof's default 100 Hz
	layer := append([]metric(nil), rep.layer...)
	share := func(b string) float64 { return float64(byBucket[b]) / float64(total) }
	for _, p := range profiledPackages {
		layer = append(layer, metric{"cpu_share." + p, "fraction", share(p), samples})
	}
	layer = append(layer,
		metric{"cpu_share." + bucketGC, "fraction", share(bucketGC), samples},
		metric{"cpu_share." + bucketMemmove, "fraction", share(bucketMemmove), samples})
	rates := append(workRates[:len(workRates):len(workRates)],
		struct{ name, pkg, count string }{"rnr.ns_per_prefetch", "rnr", "rnr.prefetches"})
	for _, r := range rates {
		if n := rep.counts[r.count]; n > 0 {
			layer = append(layer, metric{r.name, "ns", float64(byBucket[r.pkg]) / n, samples})
		}
	}
	plain := make(map[string]float64)
	for _, m := range untraced.e2e {
		plain[m.name] = m.value
	}
	for _, m := range rep.e2e {
		layer = append(layer, metric{"traced." + m.name, m.unit, m.value, m.n})
		if p := plain[m.name]; p != 0 {
			worse := m.value - p
			if higherIsBetter[m.name] {
				worse = -worse
			}
			layer = append(layer, metric{"trace_overhead_pct." + m.name, "%", 100 * worse / p, m.n})
		}
	}
	return layer, rep, nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the metrics of ms that want names, checking that each was
// measured in its unit as a finite number, and positive if positive is set.
func pick(ms []metric, want []spec, positive bool) (map[string]value, error) {
	have := make(map[string]metric, len(ms))
	for _, m := range ms {
		have[m.name] = m
	}
	out := make(map[string]value, len(want))
	for _, w := range want {
		m, ok := have[w.name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", w.name)
		case m.unit != w.unit:
			return nil, fmt.Errorf("metric %s is in %s, not %s", w.name, m.unit, w.unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0) || (positive && !(m.value > 0)):
			return nil, fmt.Errorf("metric %s = %v", w.name, m.value)
		}
		out[w.name] = value{m.value, m.unit}
	}
	return out, nil
}

// printResult prints every measured metric with its sample count, those
// of the result as "metric" lines and the rest (info, and any of ms that
// want does not name) as "info" lines, then the result object, holding
// exactly the metrics want names, as the last line.
func printResult(ms []metric, want []spec, info []metric, attempted, failed int) error {
	metrics, err := pick(ms, want, false)
	if err != nil {
		return err
	}
	printLines(ms, func(m metric) bool { _, ok := metrics[m.name]; return ok })
	printLines(info, func(metric) bool { return false })
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printLines prints ms sorted by name, each as a "metric" line if inResult
// holds for it, else as an "info" line.
func printLines(ms []metric, inResult func(metric) bool) {
	ms = append([]metric(nil), ms...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		kind := "info"
		if inResult(m) {
			kind = "metric"
		}
		fmt.Printf("%-6s %-36s %14.6g %-9s n=%d\n", kind, m.name, m.value, m.unit, m.n)
	}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // requireMetrics rejects the zero
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit names the code under test: the git HEAD when the working
// directory is the top of a git checkout, else "unknown". The search for a
// repository stops there, so an enclosing repository is never reported.
func commit(ctx context.Context) string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
