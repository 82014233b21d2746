// Command matscalebench is matscale's benchmark. It runs one named
// workload with a seed, measures it for a fixed number of seconds,
// checks every output against an oracle, and prints its metrics as
// one JSON line, the last line of standard output:
//
//	bash matscalebench/run.sh --workload sweep-manyrank --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run instead.
// Two more modes support the measurement protocol of README.md:
//
//	bash matscalebench/run.sh compare -parent parent.jsonl -change change.jsonl
//	bash matscalebench/run.sh golden
//
// compare applies the paired decision rule to two sets of result
// lines; golden rewrites the stored per-cell CSVs the sweep workloads
// are checked against. Run every mode from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// workdir holds everything a run writes (checkpoints, spans).
	workdir string
}

// samplesLine is the line printed before the result: the Summary of
// each sample set a run's end-to-end metrics were derived from.
type samplesLine struct {
	Samples map[string]Summary `json:"samples"`
}

// result is the final line of a run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// tally counts the operations a run attempted and the ones that
// failed, were refused or returned wrong output.
type tally struct {
	attempted int
	failed    int
	first     string // first failure, for the log
}

// fail records n failed operations with a reason.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

// setupRepeats is how many times a run performs its set-up; setup_s
// is the median.
const setupRepeats = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain())
		}
	}
	fs := flag.NewFlagSet("matscalebench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: sweep-manyrank, sweep-largeblock or service-mixed")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	fs.Parse(os.Args[1:])

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "matscalebench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "matscalebench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "matscalebench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	res, samples, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "matscalebench:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, line := range []any{map[string]Stamp{"stamp": stampFor(cfg)}, samplesLine{samples}, res} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(os.Stderr, "matscalebench:", err)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
}

func (c runConfig) validate() error {
	known := false
	for _, w := range workloadNames {
		known = known || c.workload == w
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
	}
	if c.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	return nil
}

// run executes one invocation and assembles its result line and the
// summaries of the samples behind it.
func run(cfg runConfig) (*result, map[string]Summary, error) {
	var (
		ms      metricSet
		samples map[string]Summary
		t       tally
		err     error
	)
	if cfg.trace {
		ms, err = runTraced(cfg, &t)
	} else {
		ms, samples, err = runEndToEnd(cfg, &t)
	}
	if err != nil {
		return nil, nil, err
	}
	if t.first != "" {
		fmt.Fprintf(os.Stderr, "matscalebench: %d of %d operations failed; first: %s\n", t.failed, t.attempted, t.first)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   ms.output(defs),
	}, samples, nil
}

// runEndToEnd sets the workload up setupRepeats times, measures it for
// the configured seconds and derives the end-to-end metrics.
func runEndToEnd(cfg runConfig, t *tally) (metricSet, map[string]Summary, error) {
	measure := sweepEndToEnd
	if cfg.workload == wlService {
		measure = serviceEndToEnd
	}
	ms, samples, err := measure(cfg, t)
	if err != nil {
		return nil, nil, err
	}
	if t.attempted > 0 {
		ms["success_rate"] = 1 - float64(t.failed)/float64(t.attempted)
	}
	ms["peak_rss_mb"] = peakRSSMB()
	return ms, samples, nil
}

// timeSetups runs setup setupRepeats times, each from a collected heap,
// tearing down every state but the last, and returns the last state
// with the set-up times in seconds.
func timeSetups[S any](setup func() (S, error), teardown func(S)) (S, []float64, error) {
	var (
		st    S
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(st)
			var none S
			st = none // let the collection below free the torn-down state
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, times, nil
}

// writeSpans stores a traced run's spans next to its other output.
func writeSpans(cfg runConfig, rec *Recorder) {
	path := filepath.Join(filepath.Dir(cfg.workdir), fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := rec.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "matscalebench: writing spans:", err)
	}
}
