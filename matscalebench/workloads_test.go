package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"matscale"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{wlManyrank, wlLargeblock} {
		a, b := specFor(w, 7), specFor(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two specs from seed 7 differ", w)
		}
		ca, _ := a.Cells()
		cb, _ := b.Cells()
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: two grids from seed 7 differ", w)
		}
	}
	a, b := serviceSchedule(7, 15), serviceSchedule(7, 15)
	if !reflect.DeepEqual(a, b) {
		t.Error("two service schedules from seed 7 differ")
	}
	if c := serviceSchedule(8, 15); reflect.DeepEqual(a.Arrivals, c.Arrivals) {
		t.Error("seeds 7 and 8 give the same arrival schedule")
	}
}

func TestServiceScheduleShape(t *testing.T) {
	const seconds = 15
	in := serviceSchedule(3, seconds)
	n := int(serviceRate * seconds)
	if len(in.Arrivals) != n {
		t.Fatalf("%d arrivals, want %d", len(in.Arrivals), n)
	}
	pool, suspends := 0, 0
	seen := map[int]bool{}
	for i, a := range in.Arrivals {
		if i > 0 && a.Due < in.Arrivals[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a.Due < 0 || a.Due.Seconds() >= seconds {
			t.Fatalf("arrival %d due at %v, outside the window", i, a.Due)
		}
		if a.Spec < poolSpecs {
			pool++
			if a.Suspend {
				t.Errorf("pool job %d is marked for suspension", i)
			}
			continue
		}
		if seen[a.Spec] {
			t.Errorf("unique spec %d used twice", a.Spec)
		}
		seen[a.Spec] = true
		if a.Suspend {
			suspends++
		}
	}
	if want := int(poolShare * float64(n)); pool != want || suspends != n/suspendEvery {
		t.Errorf("%d pool jobs and %d suspensions, want %d and %d", pool, suspends, want, n/suspendEvery)
	}
	keys := map[float64]bool{}
	for _, s := range in.Specs {
		if keys[s.Ts] {
			t.Errorf("two specs share ts = %g, so they would share cache keys", s.Ts)
		}
		keys[s.Ts] = true
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not valid", d.Name)
		}
		if !unitName.MatchString(d.Unit) {
			t.Errorf("unit %q of %s is not valid", d.Unit, d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" || d.On == "" {
			t.Errorf("per-layer metric %s does not say which layer it measures and what it moves", d.Name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one non-empty line", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []map[string]any, want []metricDef, withBound bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the registry", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			w := map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better}
			if withBound {
				w["bound"] = d.Bound
			}
			if !reflect.DeepEqual(got[i], w) {
				t.Errorf("%s[%d] = %v, want %v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

func TestGoldenCatchesAPerturbedCSV(t *testing.T) {
	golden, err := goldenCSV(wlLargeblock)
	if err != nil {
		t.Fatal(err)
	}
	if bad, first := csvMismatches(golden, golden); bad != 0 {
		t.Fatalf("golden differs from itself: %s", first)
	}
	lines := strings.SplitAfter(string(golden), "\n")
	// Perturb the first measured Tp in its last digit.
	row := strings.Split(lines[1], ",")
	row[5] += "1"
	perturbed := lines[0] + strings.Join(row, ",") + strings.Join(lines[2:], "")
	if bad, _ := csvMismatches([]byte(perturbed), golden); bad != 1 {
		t.Errorf("a perturbed Tp gives %d mismatches, want 1", bad)
	}
	dropped := strings.Join(append(append([]string(nil), lines[:3]...), lines[4:]...), "")
	if bad, _ := csvMismatches([]byte(dropped), golden); bad == 0 {
		t.Error("a dropped row goes unnoticed")
	}
}

func TestGoldenHoldsForAnySeed(t *testing.T) {
	golden, err := goldenCSV(wlLargeblock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := matscale.Sweep(specFor(wlLargeblock, 12345))
	if err != nil {
		t.Fatal(err)
	}
	if bad, first := csvMismatches(sweepCSV(res), golden); bad != 0 {
		t.Errorf("seed 12345: %d cells differ from golden; first %s", bad, first)
	}
}
