// Command benchdiff maintains the repo's perf trajectory (ROADMAP item
// 3): it converts `go test -bench` output into committed BENCH_*.json
// artifacts and compares two such artifacts with a configurable
// regression threshold, failing loudly (exit 1) when a metric moved the
// wrong way.
//
// Usage:
//
//	go test -bench . -benchtime=1x -run NONE ./... | benchdiff -parse -commit fc150d6 -o BENCH_fc150d6.json
//	benchdiff BENCH_fc150d6.json BENCH_new.json              # default 10% threshold
//	benchdiff -threshold 0.5 BENCH_fc150d6.json BENCH_new.json
//
// With `go test -count N` each benchmark prints N lines; -parse stores
// each metric's median over them and the sample count.
//
// Comparison is direction-aware: for throughput metrics (any unit
// ending in "/s", e.g. the simulator's cycles/s) lower is a regression;
// for cost metrics (ns/op, B/op, allocs/op) higher is. Benchmarks
// present in only one file are reported but never fail the diff — new
// benchmarks appear and old ones retire as the codebase grows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rnrsim/internal/sim"
)

func main() {
	parse := flag.Bool("parse", false, "read `go test -bench` text on stdin and write a BENCH_*.json artifact")
	commit := flag.String("commit", "", "commit label stored in the artifact (with -parse)")
	out := flag.String("o", "", "output file (with -parse; default stdout)")
	threshold := flag.Float64("threshold", 0.10,
		"relative change beyond which a wrong-direction move is a regression (0.10 = 10%)")
	flag.Parse()

	if *parse {
		if err := runParse(os.Stdin, *out, *commit); err != nil {
			fatal("%v", err)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.1] old.json new.json\n       benchdiff -parse [-commit c] [-o out.json] < bench.txt")
		os.Exit(2)
	}
	old, err := loadArtifact(flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	cur, err := loadArtifact(flag.Arg(1))
	if err != nil {
		fatal("%v", err)
	}
	d := diff(old, cur, *threshold)
	d.write(os.Stdout, old.Commit, cur.Commit)
	if len(d.Regressions) > 0 {
		os.Exit(1)
	}
}

func runParse(in io.Reader, out, commit string) error {
	art, err := parseBenchOutput(in)
	if err != nil {
		return err
	}
	if len(art.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin (expected `go test -bench` output)")
	}
	art.SchemaVersion, art.GeneratedAt = sim.Stamp()
	art.Commit = commit
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(art)
}

func loadArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %v", path, err)
	}
	if a.SchemaVersion != sim.ExportSchemaVersion {
		return a, fmt.Errorf("%s: schema %q, want %q", path, a.SchemaVersion, sim.ExportSchemaVersion)
	}
	return a, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
