package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// Verdicts of the paired comparison.
const (
	verdictGain       = "gain"         // change wins ≥ 9/10 of ≥ 10 pairs by more than the parent's IQR
	verdictRegression = "regression"   // median worse than the parent's by more than the bound
	verdictUnresolved = "unresolved"   // the parent's own spread exceeds the bound
	verdictBetterAll  = "better"       // spread too wide to judge, but every change run beats every parent run
	verdictWithin     = "within-bound" // no gain shown, no regression beyond the bound
	verdictNoGain     = "no-gain"      // a metric without a bound that shows no gain
)

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// Comparison is the paired comparison of one metric between runs of a
// parent commit and runs of a change.
type Comparison struct {
	Metric   string  `json:"metric"`
	Pairs    int     `json:"pairs"`
	Parent   Summary `json:"parent"`
	Change   Summary `json:"change"`
	WinShare float64 `json:"win_share"`
	// WorseBy is how much worse the change's median is than the
	// parent's, as a share of the parent's median (negative: better).
	WorseBy float64 `json:"worse_by"`
	Verdict string  `json:"verdict"`
}

// judge applies the paired rule to one metric. parent[i] and change[i]
// are the i-th pair of runs, which the caller ran alternately.
func judge(def metricDef, parent, change []float64) Comparison {
	c := Comparison{Metric: def.Name, Parent: Summarize(parent), Change: Summarize(change)}
	sign := 1.0
	if def.Better == "lower" {
		sign = -1
	}
	c.Pairs = min(len(parent), len(change))
	wins := 0
	for i := 0; i < c.Pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	if c.Pairs > 0 {
		c.WinShare = float64(wins) / float64(c.Pairs)
	}
	gain := sign * (c.Change.Median - c.Parent.Median) // > 0: change better
	if c.Parent.Median != 0 {
		c.WorseBy = -gain / math.Abs(c.Parent.Median)
	}
	iqr := c.Parent.Q3 - c.Parent.Q1
	switch {
	case c.Pairs >= minPairs && c.WinShare >= 0.9 && gain > iqr:
		c.Verdict = verdictGain
	case def.Bound <= 0:
		c.Verdict = verdictNoGain
	case c.Parent.IQRShare() > def.Bound:
		if allBetter(sign, parent, change) {
			c.Verdict = verdictBetterAll
		} else {
			c.Verdict = verdictUnresolved
		}
	case c.WorseBy > def.Bound:
		c.Verdict = verdictRegression
	default:
		c.Verdict = verdictWithin
	}
	return c
}

// allBetter reports whether every change run beats every parent run.
func allBetter(sign float64, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	worstChange, bestParent := math.Inf(1), math.Inf(-1)
	for _, v := range change {
		worstChange = math.Min(worstChange, sign*v)
	}
	for _, v := range parent {
		bestParent = math.Max(bestParent, sign*v)
	}
	return worstChange > bestParent
}

// readResults reads the result lines of a file of benchmark output:
// every line that parses as a result object, in order.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain implements the compare mode: it pairs the i-th parent
// run with the i-th change run, judges every metric both sides report
// and exits 1 when any metric regressed or any run was incorrect.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("matscalebench compare", flag.ExitOnError)
	parentPath := fs.String("parent", "", "file of result lines from the parent commit")
	changePath := fs.String("change", "", "file of result lines from the change, run alternately with the parent's")
	fs.Parse(args)
	parent, err := readResults(*parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "matscalebench compare:", err)
		return 2
	}
	change, err := readResults(*changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "matscalebench compare:", err)
		return 2
	}
	comps, incorrect := compareRuns(parent, change)
	fmt.Printf("%-32s %5s %14s %14s %14s %14s %6s %8s  %s\n",
		"metric", "pairs", "parent.median", "parent.iqr", "change.median", "change.iqr", "wins", "worse_by", "verdict")
	for _, c := range comps {
		fmt.Printf("%-32s %5d %14.6g %14.6g %14.6g %14.6g %6.2f %+8.3f  %s\n",
			c.Metric, c.Pairs, c.Parent.Median, c.Parent.Q3-c.Parent.Q1,
			c.Change.Median, c.Change.Q3-c.Change.Q1, c.WinShare, c.WorseBy, c.Verdict)
	}
	code := 0
	if incorrect > 0 {
		fmt.Fprintf(os.Stderr, "matscalebench compare: %d runs reported incorrect output\n", incorrect)
		code = 1
	}
	for _, c := range comps {
		if c.Verdict == verdictRegression {
			code = 1
		}
	}
	return code
}

// compareRuns judges every metric of the registry that both sides
// report and counts the runs that reported incorrect output.
func compareRuns(parent, change []result) ([]Comparison, int) {
	incorrect := 0
	for _, r := range append(append([]result(nil), parent...), change...) {
		if !r.Correct {
			incorrect++
		}
	}
	var out []Comparison
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		p, c := values(parent, def.Name), values(change, def.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		out = append(out, judge(def, p, c))
	}
	return out, incorrect
}

// values extracts one metric from a sequence of runs.
func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
