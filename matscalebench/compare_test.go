package main

import "testing"

// runs returns n values alternating around base by ±jitter.
func runs(n int, base, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + jitter*float64(i%3-1)
	}
	return out
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	layer := metricDef{Name: "core.cannon.host_ms", Better: "lower"}
	for _, tc := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"clear gain, higher is better", higher, runs(10, 100, 1), runs(10, 120, 1), verdictGain},
		{"clear gain, lower is better", lower, runs(10, 100, 1), runs(10, 80, 1), verdictGain},
		{"gain needs ten pairs", higher, runs(9, 100, 1), runs(9, 120, 1), verdictWithin},
		{"gain needs a gap beyond the parent's IQR", higher, runs(10, 100, 2), runs(10, 103, 2), verdictWithin},
		{"no change", higher, runs(10, 100, 1), runs(10, 100, 1), verdictWithin},
		{"regression beyond the bound", higher, runs(10, 100, 1), runs(10, 85, 1), verdictRegression},
		{"lower-is-better regression", lower, runs(10, 100, 1), runs(10, 115, 1), verdictRegression},
		{"small loss within the bound", higher, runs(10, 100, 1), runs(10, 95, 1), verdictWithin},
		{"spread wider than the bound", higher, runs(10, 100, 30), runs(10, 80, 1), verdictUnresolved},
		{"wide spread but every change run better", lower, runs(10, 100, 30), runs(10, 50, 1), verdictBetterAll},
		{"per-layer metric without a bound", layer, runs(10, 100, 1), runs(10, 130, 1), verdictNoGain},
	} {
		if got := judge(tc.def, tc.parent, tc.change); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q (win share %.2f, worse by %.3f), want %q",
				tc.name, got.Verdict, got.WinShare, got.WorseBy, tc.want)
		}
	}
}

func TestJudgeCountsTiesForNeitherSide(t *testing.T) {
	def := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.10}
	parent := runs(10, 100, 0)
	change := append(runs(9, 100, 0), 200)
	if got := judge(def, parent, change); got.WinShare != 0.1 {
		t.Errorf("win share %g, want 0.1 (nine ties, one win)", got.WinShare)
	}
}

func TestCompareRunsCountsIncorrectRuns(t *testing.T) {
	mk := func(ok bool, v float64) result {
		return result{Correct: ok, Metrics: map[string]metricOut{"cells_per_s": {Value: v, Unit: "cells/s"}}}
	}
	comps, incorrect := compareRuns([]result{mk(true, 1), mk(true, 2)}, []result{mk(false, 1), mk(true, 2)})
	if incorrect != 1 {
		t.Errorf("incorrect = %d, want 1", incorrect)
	}
	if len(comps) != 1 || comps[0].Metric != "cells_per_s" || comps[0].Pairs != 2 {
		t.Errorf("comparisons = %+v, want one cells_per_s comparison over 2 pairs", comps)
	}
}
