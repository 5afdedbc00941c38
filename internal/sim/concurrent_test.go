package sim

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"rnrsim/internal/audit"
	"rnrsim/internal/obs"
)

// concurrentCopies is how many copies of one configuration each row of
// TestParallelDifferentialMatrix runs at the same time.
const concurrentCopies = 3

// TestParallelDifferentialMatrix holds simulations that run at the same
// time in one process to the result of a run alone. The experiment pool,
// the bench planner and rnrd all run many Systems concurrently over one
// shared *apps.App, and copies of one Config share its pointer fields
// (Audit, Obs), so a run may read or write nothing another run can
// reach. Each row runs its configuration once alone, then
// concurrentCopies copies at once, and requires every copy to match the
// lone run: state hash, full Result and export envelope byte for byte.
func TestParallelDifferentialMatrix(t *testing.T) {
	app := testApp(t)
	type tcase struct {
		name string
		cfg  Config
	}
	cases := []tcase{
		{"none", testConfig().WithPrefetcher(PFNone)},
		{"nextline", testConfig().WithPrefetcher(PFNextLine)},
		{"stream", testConfig().WithPrefetcher(PFStream)},
		{"rnr", testConfig().WithPrefetcher(PFRnR)},
		{"rnr-combined", testConfig().WithPrefetcher(PFRnRCombined)},
	}

	audited := testConfig().WithPrefetcher(PFRnR)
	audited.Audit = &audit.Config{Interval: 256}
	cases = append(cases, tcase{"rnr+audit", audited})

	observed := testConfig().WithPrefetcher(PFRnR)
	observed.Obs = &obs.Config{}
	cases = append(cases, tcase{"rnr+obs", observed})

	ideal := testConfig().WithPrefetcher(PFNone)
	ideal.IdealLLC = true
	cases = append(cases, tcase{"ideal-llc", ideal})

	ctxCfg := testConfig().WithPrefetcher(PFRnR)
	ctxCfg.CtxSwitch = CtxSwitchConfig{Period: 20_000, Duration: 7_000}
	cases = append(cases, tcase{"rnr+ctx", ctxCfg})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			alone := runOne(t, tc.cfg, app)
			want := exportBytes(t, alone)

			results := make([]*Result, concurrentCopies)
			errs := make([]error, concurrentCopies)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = Run(tc.cfg, app)
				}()
			}
			wg.Wait()

			for i, r := range results {
				if errs[i] != nil {
					t.Fatalf("copy %d: %v", i, errs[i])
				}
				if r.StateHash != alone.StateHash {
					t.Errorf("copy %d: state hash %016x != alone %016x", i, r.StateHash, alone.StateHash)
				}
				if got := exportBytes(t, r); !bytes.Equal(got, want) {
					t.Errorf("copy %d: export envelope differs from the lone run\ncopy:  %.2048s\nalone: %.2048s", i, got, want)
				}
				if !reflect.DeepEqual(r, alone) {
					t.Errorf("copy %d: result diverged from the lone run beyond the export", i)
				}
			}
		})
	}
}
