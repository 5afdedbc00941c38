package cpu

import (
	"reflect"
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// capStub is a stubMem that also answers the L1 capacity probe, so a
// rejected dispatch is a frozen state under Core.Wakeup, as it is
// behind a full cache read queue.
type capStub struct{ *stubMem }

func (s capStub) CanAcceptDemand() bool { return !s.rejectAll }

// twin is one core of a pair driven through identical histories, with
// the barrier gate of the SPMD simulator: the iteration-end marker
// closes it until the test opens it again.
type twin struct {
	c     *Core
	m     *stubMem
	gated bool
}

func newTwin(cfg Config, build func(*trace.Builder), latency uint64, reject bool) *twin {
	b := trace.NewBuilder(0)
	build(b)
	tw := &twin{m: newStubMem(latency)}
	tw.m.rejectAll = reject
	tw.c = New(0, cfg, b.Source(), capStub{tw.m})
	tw.c.Gate = func() bool { return !tw.gated }
	tw.c.OnMarker = func(rec trace.Record, _ uint64) {
		if rec.Marker == trace.MarkIterEnd {
			tw.gated = true
		}
	}
	return tw
}

func (tw *twin) step(now uint64) {
	tw.c.Tick(now)
	tw.m.Tick(now)
}

func coreDigest(c *Core) []uint64 {
	var words []uint64
	c.HashState(func(v uint64) { words = append(words, v) })
	return words
}

// TestSettleMatchesFrozenTicks pins Core.Settle to the per-cycle
// accounting it replaces: for every frozen state, k ticks of one core
// must leave exactly the statistics and hashed state that one Settle
// over the same k cycles leaves on its twin, and the two must stay
// identical when the state thaws and both run to completion.
func TestSettleMatchesFrozenTicks(t *testing.T) {
	const k = 37
	small := Default()
	small.ROB, small.LSQ = 8, 2
	loads := func(n int) func(*trace.Builder) {
		return func(b *trace.Builder) {
			for i := 0; i < n; i++ {
				b.Load(uint64(i), mem.Addr(0x1000+i*64), 8, -1)
				b.Exec(2)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		build   func(*trace.Builder)
		reject  bool
		frozen  func(*twin) bool
		release func(*twin)
	}{
		{
			name:   "rob-full",
			cfg:    small,
			build:  func(b *trace.Builder) { b.Load(1, 0x1000, 8, -1); b.Exec(20) },
			frozen: func(tw *twin) bool { return tw.c.count == tw.c.cfg.ROB },
		},
		{
			name:    "barrier-gated",
			cfg:     Default(),
			build:   func(b *trace.Builder) { b.Exec(8); b.IterEnd(0); b.Exec(8) },
			frozen:  func(tw *twin) bool { return tw.gated && tw.c.count == 0 },
			release: func(tw *twin) { tw.gated = false },
		},
		{
			name:   "lsq-full",
			cfg:    small,
			build:  loads(4),
			frozen: func(tw *twin) bool { return tw.c.lsqUsed == tw.c.cfg.LSQ && tw.c.pendingValid },
		},
		{
			name:    "l1-backpressure",
			cfg:     Default(),
			build:   loads(2),
			reject:  true,
			frozen:  func(tw *twin) bool { return tw.c.pendingReq != nil },
			release: func(tw *twin) { tw.m.rejectAll = false },
		},
		{
			name:   "drained",
			cfg:    Default(),
			build:  func(b *trace.Builder) { b.Exec(4) },
			frozen: func(tw *twin) bool { return tw.c.Done() },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ticked := newTwin(tc.cfg, tc.build, 200, tc.reject)
			settled := newTwin(tc.cfg, tc.build, 200, tc.reject)
			var now uint64
			for !tc.frozen(ticked) {
				if now++; now > 1000 {
					t.Fatal("core never reached the frozen state")
				}
				ticked.step(now)
				settled.step(now)
			}
			if w := ticked.c.Wakeup(now); w <= now+k {
				t.Fatalf("state is not frozen over the span: wakeup %d at cycle %d", w, now)
			}
			// Only the core is skipped: the memory below runs on, as the
			// caches do under the event scheduler.
			before := ticked.c.Stats
			for i := uint64(1); i <= k; i++ {
				ticked.step(now + i)
				settled.m.Tick(now + i)
			}
			now += k
			settled.c.Settle(now)
			if tc.name != "drained" && ticked.c.Stats.Cycles != before.Cycles+k {
				t.Fatalf("ticked core counted %d cycles over a %d-cycle span",
					ticked.c.Stats.Cycles-before.Cycles, k)
			}
			if ticked.c.Stats != settled.c.Stats {
				t.Fatalf("after the span:\nticked  %+v\nsettled %+v", ticked.c.Stats, settled.c.Stats)
			}
			if !reflect.DeepEqual(coreDigest(ticked.c), coreDigest(settled.c)) {
				t.Fatal("hashed core state differs after the span")
			}
			for _, tw := range []*twin{ticked, settled} {
				if tc.release != nil {
					tc.release(tw)
				}
			}
			for !ticked.c.Done() || !settled.c.Done() {
				if now++; now > 10_000 {
					t.Fatal("cores never drained after the span")
				}
				ticked.step(now)
				settled.step(now)
			}
			if ticked.c.Stats != settled.c.Stats {
				t.Fatalf("at the end:\nticked  %+v\nsettled %+v", ticked.c.Stats, settled.c.Stats)
			}
		})
	}
}
