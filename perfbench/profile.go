package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// profiledPackages are the program's packages whose self time the traced
// run reports as cpu_share.<name>.
var profiledPackages = []string{
	"sim", "cache", "dram", "cpu", "rnr", "prefetch", "trace", "mem",
	"coherence", "bench", "apps", "serve", "cluster",
}

const (
	bucketGC      = "runtime.gc"
	bucketMemmove = "runtime.memmove"
	bucketOther   = "other"
	modulePrefix  = "rnrsim/internal/"
)

// gcRoots mark a sample as garbage-collector work wherever they appear in
// its stack: background marking, mark assists, sweeping, scavenging and
// forced collections.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.GC",
}

// bucketOf attributes one sample to a bucket from its stack, leaf first:
// GC work anywhere in the stack, else runtime.memmove as the leaf, else
// the program package that owns the leaf frame (its self time).
func bucketOf(stack []string) string {
	for _, f := range stack {
		for _, root := range gcRoots {
			if f == root {
				return bucketGC
			}
		}
	}
	if len(stack) == 0 {
		return bucketOther
	}
	leaf := stack[0]
	if leaf == bucketMemmove {
		return bucketMemmove
	}
	if rest, ok := strings.CutPrefix(leaf, modulePrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	return bucketOther
}

// parseTraces reads the text of `go tool pprof -traces` for a CPU profile
// and returns the CPU time attributed to each bucket, and the total.
func parseTraces(r io.Reader) (map[string]time.Duration, time.Duration, error) {
	byBucket := make(map[string]time.Duration)
	var total time.Duration
	var value time.Duration
	var stack []string
	inSample := false
	flush := func() {
		if inSample && len(stack) > 0 {
			byBucket[bucketOf(stack)] += value
			total += value
		}
		inSample, stack = false, stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			value = -1
			continue
		}
		if !inSample {
			continue // header: File, Type, Duration...
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if value < 0 {
			if len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: sample line %q has no frame", line)
			}
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, 0, err
			}
			value = v
			fields = fields[1:]
		}
		stack = append(stack, fields[0]) // drops the " (inline)" marker
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	return byBucket, total, nil
}

// parseSampleValue reads a pprof time value such as "10ms", "1.2s" or
// "250us".
func parseSampleValue(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				continue // e.g. "10ms" tried against "s"
			}
			return time.Duration(v * u.scale), nil
		}
	}
	return 0, fmt.Errorf("pprof traces: unreadable sample value %q", s)
}

// attributeProfile runs the toolchain's pprof over a CPU profile written
// by this process and attributes its samples to buckets.
func attributeProfile(ctx context.Context, path string) (map[string]time.Duration, time.Duration, error) {
	var out, errOut bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errOut.String()))
	}
	return parseTraces(&out)
}
