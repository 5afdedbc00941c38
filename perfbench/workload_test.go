package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"rnrsim/internal/bench"
)

func TestGenStreamsIsSeeded(t *testing.T) {
	a, b := genStreams(1), genStreams(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if reflect.DeepEqual(a, genStreams(2)) {
		t.Fatal("seeds 1 and 2 gave the same request stream")
	}
}

func TestGenStreamsFreshSpecsAreDistinctAndHitsRepeatOwnFresh(t *testing.T) {
	streams := genStreams(7)
	seen := make(map[string]int)
	hits := 0
	for c, st := range streams {
		if len(st) == 0 || !st[0].fresh {
			t.Fatalf("client %d stream does not start with a fresh spec", c)
		}
		own := make(map[string]bool)
		for _, rq := range st {
			v := rq.spec.Variant
			if !strings.HasPrefix(v, "win") {
				t.Fatalf("variant %q is not a window size", v)
			}
			if rq.fresh {
				if prev, dup := seen[v]; dup {
					t.Fatalf("fresh %s appears for clients %d and %d", v, prev, c)
				}
				seen[v] = c
				own[v] = true
				continue
			}
			hits++
			if !own[v] {
				t.Fatalf("client %d resubmits %s before submitting it", c, v)
			}
		}
	}
	total := len(streams[0]) + len(streams[1])
	if share := float64(hits) / float64(total); share < hitShare-0.05 || share > hitShare+0.05 {
		t.Fatalf("hit share %.3f, want about %.2f", share, hitShare)
	}
}

// TestSuiteDigestIndependentOfParallelism runs the whole test-scale suite
// serially and two wide, each after the set-up's warm-up, and checks both
// against the pinned digest. The warm-up must leave the run memo empty, so
// that the suite still simulates every planned run.
func TestSuiteDigestIndependentOfParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment suite twice")
	}
	for _, p := range []int{1, 2} {
		inst, err := setupSuite(context.Background(), runOpts{nproc: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		si := inst.(*suiteInstance)
		_, digest, err := si.runSuite(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if digest != suiteTablesDigest {
			t.Errorf("parallelism %d: tables digest %s, pinned %s", p, digest, suiteTablesDigest)
		}
		if fresh, planned := si.s.FreshRuns(), len(si.s.Plan(bench.ExperimentIDs...)); fresh != uint64(planned) {
			t.Errorf("parallelism %d: %d fresh runs, want all %d planned", p, fresh, planned)
		}
	}
}

// TestManifestMatchesBenchmarkJSON checks that the metrics the program
// puts in its result are the ones BENCHMARK.json names, in its units.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		got  []spec
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, manifest.EndToEnd}, {"per_layer", perLayer, manifest.PerLayer}} {
		want := make(map[spec]bool)
		for _, m := range c.want {
			want[spec{m.Name, m.Unit}] = true
		}
		have := make(map[spec]bool)
		for _, m := range c.got {
			have[m] = true
			if !want[m] {
				t.Errorf("%s: the program reports %s (%s), which BENCHMARK.json does not name", c.key, m.name, m.unit)
			}
		}
		for m := range want {
			if !have[m] {
				t.Errorf("%s: BENCHMARK.json names %s (%s), which the program does not report", c.key, m.name, m.unit)
			}
		}
	}
}
