package sim

import (
	"testing"
)

func TestContextSwitchesStallAndPollute(t *testing.T) {
	app := testApp(t)
	plain := runOne(t, testConfig(), app)

	cfg := testConfig()
	cfg.CtxSwitch = CtxSwitchConfig{Period: 20000, Duration: 5000}
	switched := runOne(t, cfg, app)

	// Same work retired despite the interruptions.
	if switched.Instructions != plain.Instructions {
		t.Fatalf("instructions %d != %d", switched.Instructions, plain.Instructions)
	}
	// Descheduling time plus cold-cache warmup must cost cycles.
	if switched.Cycles <= plain.Cycles {
		t.Errorf("context switches were free: %d vs %d cycles", switched.Cycles, plain.Cycles)
	}
	// Pollution shows up as extra misses.
	if switched.L2.DemandMisses <= plain.L2.DemandMisses {
		t.Errorf("no pollution misses: %d vs %d", switched.L2.DemandMisses, plain.L2.DemandMisses)
	}
}

func TestContextSwitchRnRResumesWithoutRetraining(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	cfg.CtxSwitch = CtxSwitchConfig{Period: 20000, Duration: 5000}
	res := runOne(t, cfg, app)

	// The engine must have been paused and resumed by the OS at least once.
	if res.RnR.Pauses == 0 || res.RnR.Resumes == 0 {
		t.Fatalf("no OS pause/resume recorded: %+v", res.RnR)
	}
	// The recording must be intact (one record iteration's worth, no
	// truncation from the switches) and replay must still work.
	plain := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	if res.RnR.RecordedEntries == 0 {
		t.Fatal("recording lost across context switches")
	}
	// Within 25% of the undisturbed recording (pollution adds misses).
	lo := plain.RnR.RecordedEntries * 3 / 4
	hi := plain.RnR.RecordedEntries * 3 / 2
	if res.RnR.RecordedEntries < lo || res.RnR.RecordedEntries > hi {
		t.Errorf("recorded %d entries vs %d undisturbed", res.RnR.RecordedEntries, plain.RnR.RecordedEntries)
	}
	if res.RnR.Prefetches == 0 {
		t.Error("replay dead after context switches")
	}
	if acc := res.Accuracy(); acc < 0.5 {
		t.Errorf("accuracy %.2f collapsed under context switches", acc)
	}
}

func TestContextSwitchRnRAdvantage(t *testing.T) {
	// The paper's §IV-C claim, measured: under context switches RnR keeps
	// its recorded pattern (metadata in memory) while a temporal
	// prefetcher loses its tables and must retrain. RnR's relative
	// slowdown from switching must not exceed the conventional one's by
	// much — and its accuracy must stay high.
	app := testApp(t)
	sw := CtxSwitchConfig{Period: 30000, Duration: 2000}

	cfgR := testConfig().WithPrefetcher(PFRnR)
	cfgR.CtxSwitch = sw
	rnrSwitched := runOne(t, cfgR, app)

	if acc := rnrSwitched.Accuracy(); acc < 0.6 {
		t.Errorf("RnR accuracy %.2f under switching, want >= 0.6", acc)
	}

	cfgG := testConfig().WithPrefetcher(PFGHB)
	cfgG.CtxSwitch = sw
	ghbSwitched := runOne(t, cfgG, app)
	if ghbSwitched.Instructions != rnrSwitched.Instructions {
		t.Fatal("mismatched work")
	}
	// RnR must outperform the retraining temporal prefetcher under
	// switching on the irregular input.
	if rnrSwitched.Cycles >= ghbSwitched.Cycles {
		t.Errorf("RnR (%d cycles) not faster than GHB (%d) under context switches",
			rnrSwitched.Cycles, ghbSwitched.Cycles)
	}
}

func TestContextSwitchDisabledByDefault(t *testing.T) {
	cfg := testConfig()
	if cfg.CtxSwitch.Period != 0 {
		t.Fatal("context switching enabled by default")
	}
	app := testApp(t)
	a := runOne(t, cfg, app)
	b := runOne(t, testConfig(), app)
	if a.Cycles != b.Cycles {
		t.Error("zero-period config changed behaviour")
	}
}

// TestDescheduledCyclesNotCharged pins that a switched-out process's
// cores count no cycles, on either engine: both charge skipped cycles
// lazily (cpu.Core.Settle), so an accounting that forgot to hold the
// cores over a descheduled window would agree with itself across the
// engines while still charging the window.
func TestDescheduledCyclesNotCharged(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFNone)
	cfg.CtxSwitch = CtxSwitchConfig{Period: 10_000, Duration: 100_000}
	for _, stepped := range []bool{false, true} {
		r, s := runEngine(t, cfg, app, stepped)
		out := s.ctx.switches * cfg.CtxSwitch.Duration
		if out == 0 {
			t.Fatal("the run never switched out")
		}
		for c, st := range r.CoreStats {
			if st.Cycles+out > r.Cycles {
				t.Errorf("stepped=%v core %d: %d cycles counted + %d descheduled > %d run cycles",
					stepped, c, st.Cycles, out, r.Cycles)
			}
		}
	}
}
