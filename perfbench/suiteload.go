package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rnrsim/internal/apps"
	"rnrsim/internal/bench"
	"rnrsim/internal/sim"
)

// suiteTablesDigest is the sha256 of the JSON of every experiment's table
// at test scale, in bench.ExperimentIDs order. It is the same at any
// parallelism; TestSuiteDigestIndependentOfParallelism checks 1 against 2.
const suiteTablesDigest = "7b02419b77797f447943dcfe810b2487c16d13e6a2334d0eee5d990a7be4827d"

// suiteInstance runs the whole experiment suite in-process, as
// cmd/experiments -scale test -j nproc does: Plan, PrewarmContext over
// nproc workers, then every Runner.
type suiteInstance struct {
	o  runOpts
	tr *tracer
	s  *bench.Suite

	// Traced runs only: the pool's busy time and longest run, from
	// Suite.OnRunDone, while the prewarm span is open.
	prewarmID atomic.Int64
	mu        sync.Mutex
	busy, max time.Duration
}

func setupSuite(ctx context.Context, o runOpts, tr *tracer) (instance, error) {
	si := &suiteInstance{o: o, tr: tr}
	s, err := si.newSuite(ctx)
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, s); err != nil {
		return nil, err
	}
	si.s = s
	return si, nil
}

// newSuite makes a suite whose inputs are already built, so the timed
// phase starts with the input memo warm.
func (si *suiteInstance) newSuite(ctx context.Context) (*bench.Suite, error) {
	s := bench.NewSuite(apps.ScaleTest)
	s.Parallelism = si.o.nproc
	if si.tr != nil {
		s.OnRunDone = si.onRunDone
	}
	seen := make(map[string]bool)
	for _, r := range s.Plan(bench.ExperimentIDs...) {
		if k := appKey(r.Workload, r.Input); !seen[k] {
			seen[k] = true
			t0 := time.Now()
			if _, err := s.AppContext(ctx, r.Workload, r.Input); err != nil {
				return nil, err
			}
			si.tr.record(0, 0, 0, "apps.build", t0, time.Now())
		}
	}
	return s, nil
}

// warmUp runs one untimed pass over the suite's inputs: a baseline
// simulation of each on the suite's machine, through sim.New and
// RunAllContext, so it leaves the suite's run memo empty and the timed
// suite still simulates every planned run.
func warmUp(ctx context.Context, s *bench.Suite) error {
	seen := make(map[string]bool)
	for _, r := range s.Plan(bench.ExperimentIDs...) {
		k := appKey(r.Workload, r.Input)
		if seen[k] {
			continue
		}
		seen[k] = true
		app, err := s.AppContext(ctx, r.Workload, r.Input)
		if err != nil {
			return err
		}
		cfg := s.Config
		cfg.Prefetcher = sim.PFNone
		sys, err := sim.New(cfg, app)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", k, err)
		}
		if _, err := sys.RunAllContext(ctx); err != nil {
			return fmt.Errorf("warm-up %s: %w", k, err)
		}
	}
	return nil
}

func (si *suiteInstance) onRunDone(key string, elapsed time.Duration) {
	end := time.Now()
	parent := si.prewarmID.Load()
	si.tr.record(0, parent, 0, "bench.run", end.Add(-elapsed), end)
	if parent == 0 {
		return // a run the assembly phase asked for
	}
	si.mu.Lock()
	defer si.mu.Unlock()
	si.busy += elapsed
	if elapsed > si.max {
		si.max = elapsed
	}
}

func (si *suiteInstance) close() {}

// measure runs whole suites, each on freshly set-up inputs, for as long
// as the next one is expected to end within the time (always at least
// one), and checks each one's tables against the pinned digest. sim_mips
// is the instructions of every run the suites simulated over their wall
// time; the suite's simulations are deterministic, so it moves as the
// inverse of suite_wall_s.
func (si *suiteInstance) measure(ctx context.Context, seconds float64) (*report, error) {
	rep := &report{}
	var walls []float64
	var work workCounts
	var before, after runtime.MemStats
	if si.tr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+walls[len(walls)-1] <= seconds {
		if len(walls) > 0 {
			s, err := si.newSuite(ctx)
			if err != nil {
				return nil, err
			}
			si.s = s
		}
		wall, digest, err := si.runSuite(ctx)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		for _, r := range si.s.Exports() {
			work.addJSON(&r.ResultJSON)
		}
		rep.attempted++
		if digest != suiteTablesDigest {
			rep.failed++
			fmt.Printf("suite tables digest %s, pinned %s\n", digest, suiteTablesDigest)
		}
	}
	wallS := 0.0
	for _, w := range walls {
		wallS += w
	}
	rep.e2e = append(rep.e2e,
		metric{"sim_mips", "Minstr/s", work.instructions / wallS / 1e6, work.sims},
		metric{"suite_wall_s", "s", median(walls), len(walls)})
	rep.counts = work.counts()
	if si.tr == nil {
		return rep, nil
	}
	runtime.ReadMemStats(&after)
	builds := si.tr.durations("apps.build")
	prewarm := si.tr.durations("bench.prewarm")
	plan := si.tr.durations("bench.plan")
	assemble := si.tr.durations("bench.assemble")
	planned := len(si.s.Plan(bench.ExperimentIDs...))
	si.mu.Lock()
	busy, longest := si.busy, si.max
	si.mu.Unlock()
	prewarmS := 0.0
	for _, d := range prewarm {
		prewarmS += d / 1e3
	}
	rep.layer = append(allocMetrics(&before, &after, work.sims),
		metric{"apps.build_ms", "ms", median(builds), len(builds)},
		metric{"bench.plan_ms", "ms", median(plan), len(plan)},
		metric{"bench.prewarm_s", "s", median(prewarm) / 1e3, len(prewarm)},
		metric{"bench.assemble_ms", "ms", median(assemble), len(assemble)},
		metric{"bench.planned_runs", "count", float64(planned), 1},
		metric{"bench.fresh_runs", "count", float64(si.s.FreshRuns()), 1},
		metric{"bench.pool_busy_frac", "fraction", busy.Seconds() / (prewarmS * float64(si.o.nproc)), len(prewarm)},
		metric{"bench.run_s_max", "s", longest.Seconds(), len(walls)},
	)
	return rep, nil
}

// runSuite plans, prewarms and assembles every experiment, and returns the
// wall time and the digest of the tables' JSON.
func (si *suiteInstance) runSuite(ctx context.Context) (float64, string, error) {
	s, tr := si.s, si.tr
	t0 := time.Now()
	plan := s.Plan(bench.ExperimentIDs...)
	t1 := time.Now()
	prewarmID := tr.newID()
	si.prewarmID.Store(prewarmID)
	if _, err := s.PrewarmContext(ctx, plan); err != nil {
		return 0, "", err
	}
	si.prewarmID.Store(0)
	t2 := time.Now()
	tables := make([]*bench.Table, 0, len(bench.ExperimentIDs))
	for _, id := range bench.ExperimentIDs {
		run, ok := s.Runner(id)
		if !ok {
			return 0, "", fmt.Errorf("no runner for experiment %q", id)
		}
		tables = append(tables, run())
	}
	t3 := time.Now()
	tr.record(0, 0, 0, "bench.plan", t0, t1)
	tr.record(prewarmID, 0, 0, "bench.prewarm", t1, t2)
	tr.record(0, 0, 0, "bench.assemble", t2, t3)
	b, err := json.Marshal(tables)
	if err != nil {
		return 0, "", err
	}
	sum := sha256.Sum256(b)
	return t3.Sub(t0).Seconds(), hex.EncodeToString(sum[:]), nil
}
