package main

import (
	"strings"
	"testing"
	"time"
)

const tracesFixture = `File: perfbench
Build ID: e658397c09b85e0a7171694664f07c403b315cbf
Type: cpu
Duration: 1.21s, Total samples = 1.07s (88.41%)
-----------+-------------------------------------------------------
      10ms   runtime.roundupsize (inline)
             runtime.growslice
             rnrsim/internal/cache.(*Cache).access
             main.main
-----------+-------------------------------------------------------
      20ms   rnrsim/internal/dram.(*Controller).bankOf
             rnrsim/internal/dram.(*Controller).Wakeup
             rnrsim/internal/sim.(*System).mcWakeAt
-----------+-------------------------------------------------------
      30ms   rnrsim/internal/mem.ReqType.IsDemand (inline)
             rnrsim/internal/cache.(*Cache).access
-----------+-------------------------------------------------------
      40ms   runtime.memmove
             rnrsim/internal/rnr.(*Engine).Tick
-----------+-------------------------------------------------------
     1.5s    runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     250us   rnrsim/internal/sim.New.func1
             rnrsim/internal/sim.New
-----------+-------------------------------------------------------
      10ms   rnrsim/internal/prefetch.(*Stream)[go.shape.int].Train
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             runtime.growslice
             runtime.gcAssistAlloc
-----------+-------------------------------------------------------
`

func TestParseTracesAttributesSelfTimeByPackage(t *testing.T) {
	got, total, err := parseTraces(strings.NewReader(tracesFixture))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		bucketOther:   10 * time.Millisecond, // runtime leaf outside GC
		"dram":        20 * time.Millisecond,
		"mem":         30 * time.Millisecond, // inlined leaf keeps its own package
		bucketMemmove: 40 * time.Millisecond,
		bucketGC:      1510 * time.Millisecond, // mark worker and assist, memmove included
		"sim":         250 * time.Microsecond,
		"prefetch":    10 * time.Millisecond,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want exactly %v", got, want)
	}
	if wantTotal := 1620*time.Millisecond + 250*time.Microsecond; total != wantTotal {
		t.Errorf("total = %v, want %v", total, wantTotal)
	}
}

func TestParseTracesRejectsMalformedValue(t *testing.T) {
	in := "-----------+----\n     tenms   runtime.memmove\n"
	if _, _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("parseTraces accepted an unreadable sample value")
	}
}

func TestBucketOfRootFacadeIsOther(t *testing.T) {
	if b := bucketOf([]string{"rnrsim.Simulate"}); b != bucketOther {
		t.Fatalf("bucketOf(rnrsim.Simulate) = %q, want %q", b, bucketOther)
	}
}
