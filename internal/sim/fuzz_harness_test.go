package sim

import (
	"fmt"
	"testing"

	"rnrsim/internal/audit"
	"rnrsim/internal/trace"
)

// fuzzMachine is the miniature machine the fuzz harness drives: the
// test machine resized to the fuzzer's core count, with the auditor
// sweeping at a tight cadence and a hard cycle ceiling so a wedged
// interleaving fails fast instead of hanging the suite.
func fuzzMachine(cores int) Config {
	cfg := Test()
	cfg.Cores = cores
	cfg.Audit = &audit.Config{Interval: 64}
	cfg.MaxCycles = 5_000_000
	return cfg
}

// TestFuzzedTracesAuditClean is the fuzz harness: randomized
// marker/load interleavings — including the pathological shapes real
// workloads never emit — run under the invariant checker and the
// rnr.Stats monotonicity watcher on every RnR configuration. Any
// violation fails with the seed, so a red run reproduces from the test
// log alone. Short mode trims the seed pool, full mode sweeps more.
func TestFuzzedTracesAuditClean(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 42, 1337, 99991, 2026}
	if testing.Short() {
		seeds = seeds[:4]
	}
	kinds := []PrefetcherKind{PFNone, PFNextLine, PFStream, PFRnR, PFRnRCombined}
	for _, patho := range []bool{false, true} {
		for _, pf := range kinds {
			patho, pf := patho, pf
			name := fmt.Sprintf("%s/patho=%v", pf, patho)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, seed := range seeds {
					fc := audit.FuzzConfig{Seed: seed, Pathological: patho}.WithDefaults()
					app := audit.Fuzz(fc)
					cfg := fuzzMachine(fc.Cores).WithPrefetcher(pf)
					s, err := New(cfg, app)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if _, err := s.RunAll(); err != nil {
						t.Errorf("seed %d: %v", seed, err)
						for _, v := range s.Audit().Violations() {
							t.Logf("seed %d: %s", seed, v)
						}
					}
				}
			})
		}
	}
}

// TestFuzzedTracesDeterministic pins the fuzzer's reproducibility end
// to end: same seed, same app, same machine, same state hash. This is
// what makes a fuzz failure reportable as a seed.
func TestFuzzedTracesDeterministic(t *testing.T) {
	fc := audit.FuzzConfig{Seed: 7, Pathological: true}.WithDefaults()
	run := func() uint64 {
		s, err := New(fuzzMachine(fc.Cores).WithPrefetcher(PFRnR), audit.Fuzz(fc))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		return r.StateHash
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed hashed %016x then %016x", a, b)
	}
}

// TestFuzzedHugeIterAuxBounded is the Bug H harness-level regression: a
// pathological trace marks iteration indices around 2^20, far past
// maxTrackedIterations. The run must complete without ballooning the
// per-iteration bookkeeping (the slices stay far below the cap, since
// the huge index is dropped rather than allocated) and without wedging
// the barrier.
func TestFuzzedHugeIterAuxBounded(t *testing.T) {
	// Sweep seeds until one actually emits the huge-Aux marker
	// (probability a few percent per iteration per core).
	hit := false
	for seed := int64(1); seed <= 40 && !hit; seed++ {
		fc := audit.FuzzConfig{Seed: seed, Pathological: true, Iterations: 6}.WithDefaults()
		app := audit.Fuzz(fc)
		huge := false
		for _, tr := range app.Traces {
			for _, rec := range tr {
				if rec.Marker == trace.MarkIterEnd && int(rec.Aux) >= maxTrackedIterations {
					huge = true
				}
			}
		}
		if !huge {
			continue
		}
		hit = true
		s, err := New(fuzzMachine(fc.Cores), app)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RunAll()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The huge index must have been dropped, not allocated: the
		// tables stay sized by the real iteration count, not the Aux.
		if len(r.IterEnd) > 4*fc.Iterations {
			t.Fatalf("seed %d: IterEnd grew to %d entries for a %d-iteration trace",
				seed, len(r.IterEnd), fc.Iterations)
		}
	}
	if !hit {
		t.Fatal("no seed in the sweep emitted a huge IterEnd Aux; fuzzer changed?")
	}
}

// TestFuzzedTracesEngineDifferential is the event-engine safety net the
// curated differential matrix cannot provide: every fuzz seed —
// randomized marker/load interleavings including pathological shapes —
// runs through both the event-driven and cycle-stepped engines, and the
// final results — state hash, export envelope, every statistic — must
// be identical.
// A divergence here is a wakeup-computation bug (a component reported a
// wakeup later than its true next state change, and the scheduler
// skipped a cycle that mattered).
func TestFuzzedTracesEngineDifferential(t *testing.T) {
	seeds := make([]int64, 0, 32)
	for s := int64(1); s <= 32; s++ {
		seeds = append(seeds, s)
	}
	if testing.Short() {
		seeds = seeds[:8]
	}
	for _, patho := range []bool{false, true} {
		t.Run(fmt.Sprintf("patho=%v", patho), func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				fc := audit.FuzzConfig{Seed: seed, Pathological: patho}.WithDefaults()
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					requireIdentical(t, fuzzMachine(fc.Cores).WithPrefetcher(PFRnR), audit.Fuzz(fc))
				})
			}
		})
	}
}
