// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time on inputs made from a seed, checks the
// program's outputs against computations of its own, and prints one JSON
// object as the last line of standard output:
//
//	bash perfbench/run.sh --workload toolchain --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// the run records a span around every layer call and the object carries the
// per-layer metrics reduced from them. See README.md for the workloads, the
// metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed int64
	run  time.Duration
	rng  *rand.Rand
	// tr records spans around layer calls; nil in an untraced run, and every
	// recording method is a no-op on nil.
	tr *tracer
}

// outcome is what a workload hands back: its operation counts, the outcome
// of its correctness checks, and both metric sets.
type outcome struct {
	attempted, failed int
	// checkErrs lists every correctness check that failed.
	checkErrs []error
	e2e       e2eMetrics
	layers    layerMetrics
}

var workloads = map[string]func(*config) (*outcome, error){
	"toolchain":   runToolchain,
	"fig6":        runFig6,
	"sched-mix":   runSchedMix,
	"wire-stream": runWireStream,
}

func main() {
	name := flag.String("workload", "", "workload: toolchain, fig6, sched-mix or wire-stream")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "how long the run measures, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("--seconds must be at least 1 and --trace 0 or 1")
	}
	cfg := &config{
		seed: *seed,
		run:  time.Duration(*seconds) * time.Second,
		rng:  rand.New(rand.NewSource(*seed)),
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	out, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	for _, e := range out.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", *name, e)
	}
	res := result{
		Correct:   len(out.checkErrs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if cfg.tr != nil {
		path := fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", *name, *seed)
		if err := cfg.tr.write(path); err != nil {
			fatalf("writing spans: %v", err)
		}
		out.layers["proc.peak_rss_mb"] = peakRSSMB()
		res.Metrics = cfg.tr.reduce(out.layers)
		// The traced run's own end-to-end figures, against an untraced run
		// of the same seed, give the tracing overhead.
		if e2e, err := json.Marshal(out.e2e.metrics()); err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced end-to-end: %s\n", e2e)
		}
	} else {
		res.Metrics = out.e2e.metrics()
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// e2eMetrics are the end-to-end metrics every workload reports. What the
// throughput and latency count differs per workload; README.md maps each to
// the workload's own unit of work.
type e2eMetrics struct {
	setupS      float64 // median of the repeated set-ups
	throughput  float64 // work items per second of measured time
	latencyP50  float64 // µs
	latencyTail float64 // µs: p99, or p90 where the parts are few (README.md)
}

func (m e2eMetrics) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":         {m.setupS, "s"},
		"throughput":      {m.throughput, "1/s"},
		"latency_p50_us":  {m.latencyP50, "us"},
		"latency_tail_us": {m.latencyTail, "us"},
	}
}
