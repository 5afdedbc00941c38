package multicore

import (
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// parseJobCases is TestParseJob's table and FuzzParseJob's seed corpus.
var parseJobCases = []struct {
	in   string
	want JobSpec
	ok   bool
}{
	{"pagerank.urand", JobSpec{"pagerank", "urand"}, true},
	{"spcg/bbmat", JobSpec{"spcg", "bbmat"}, true},
	{"pagerank", JobSpec{}, false},
	{".urand", JobSpec{}, false},
	{"pagerank.", JobSpec{}, false},
	// Separator-precedence regression: the split must happen at the
	// earliest separator of either kind. The old code tried "." before
	// "/" regardless of position, so "a/b.c" parsed as workload "a/b".
	{"a/b.c", JobSpec{"a", "b.c"}, true},
	{"a.b/c", JobSpec{"a", "b/c"}, true},
	{"a.b.c", JobSpec{"a", "b.c"}, true},
	{"a/b/c", JobSpec{"a", "b/c"}, true},
	{"/urand", JobSpec{}, false},
	{"pagerank/", JobSpec{}, false},
	// A leading separator of one kind used to be skipped in favour of
	// a later one of the other: ".x/y" parsed to {".x", "y"}, whose
	// own String() ".x.y" was then rejected, and "/a.b" to {"/a", "b"}.
	{".x/y", JobSpec{}, false},
	{"/a.b", JobSpec{}, false},
}

func TestParseJob(t *testing.T) {
	for _, tc := range parseJobCases {
		got, err := ParseJob(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseJob(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// FuzzParseJob checks that ParseJob never panics, that an accepted spec
// has both parts, and that every accepted spec round-trips through its
// own String().
func FuzzParseJob(f *testing.F) {
	for _, tc := range parseJobCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseJob(s)
		if err != nil {
			return
		}
		if spec.Workload == "" || spec.Input == "" {
			t.Fatalf("ParseJob(%q) = %+v: empty part", s, spec)
		}
		back, err := ParseJob(spec.String())
		if err != nil || back != spec {
			t.Fatalf("ParseJob(%q) = %+v, but ParseJob(%q) = %+v, %v", s, spec, spec.String(), back, err)
		}
	})
}

func TestComposeSingleJobIsIdentity(t *testing.T) {
	solo, err := apps.BuildCores("pagerank", "urand", apps.ScaleTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Compose(apps.ScaleTest, []JobSpec{{"pagerank", "urand"}})
	if err != nil {
		t.Fatal(err)
	}
	if co.Cores != 1 || len(co.Traces) != 1 {
		t.Fatalf("composed single job has %d cores / %d traces", co.Cores, len(co.Traces))
	}
	if len(co.Traces[0]) != len(solo.Traces[0]) {
		t.Fatalf("trace length %d != solo %d", len(co.Traces[0]), len(solo.Traces[0]))
	}
	for i := range co.Traces[0] {
		if co.Traces[0][i] != solo.Traces[0][i] {
			t.Fatalf("record %d differs: %+v != %+v", i, co.Traces[0][i], solo.Traces[0][i])
		}
	}
	if co.Check != solo.Check || co.Iterations != solo.Iterations {
		t.Fatalf("metadata differs: check %v/%v iters %d/%d",
			co.Check, solo.Check, co.Iterations, solo.Iterations)
	}
}

func TestComposeRelocatesDisjointSlices(t *testing.T) {
	co, err := Compose(apps.ScaleTest, []JobSpec{
		{"pagerank", "urand"}, {"spcg", "bbmat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if co.Cores != 2 || len(co.Traces) != 2 || len(co.Groups) != 2 {
		t.Fatalf("shape: cores=%d traces=%d groups=%d", co.Cores, len(co.Traces), len(co.Groups))
	}
	for k, tr := range co.Traces {
		lo := Stride * mem.Addr(k)
		hi := lo + Stride
		for i, r := range tr {
			addr := r.Addr
			if addr == 0 {
				continue
			}
			if r.Kind == trace.KindExec {
				continue
			}
			if addr < lo || addr >= hi {
				t.Fatalf("core %d record %d addr %#x outside slice [%#x, %#x)",
					k, i, uint64(addr), uint64(lo), uint64(hi))
			}
		}
	}
	// Targets relocate with their jobs.
	seen := map[int]bool{}
	for _, r := range co.Targets {
		seen[int(r.Base/Stride)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("targets not spread across slices: %v", co.Targets)
	}
	// Barrier groups are singletons in job order.
	for k, g := range co.Groups {
		if len(g) != 1 || g[0] != k {
			t.Fatalf("group %d = %v, want [%d]", k, g, k)
		}
	}
	if co.Resolve != nil || co.MakeResolver != nil {
		t.Fatal("composed app must not carry an indirect resolver")
	}
}

func TestComposeRejectsUnknownJob(t *testing.T) {
	if _, err := Compose(apps.ScaleTest, []JobSpec{{"nosuch", "urand"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Compose(apps.ScaleTest, nil); err == nil {
		t.Fatal("empty job list accepted")
	}
}
