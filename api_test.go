package matscale_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"matscale"
	"matscale/internal/core"
)

func TestRunWithMetrics(t *testing.T) {
	m := matscale.NCube2(64)
	a := matscale.RandomMatrix(16, 16, 1)
	b := matscale.RandomMatrix(16, 16, 2)
	res, err := matscale.Run(matscale.GK, m, a, b, matscale.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "GK" {
		t.Fatalf("Algorithm = %q, want GK", res.Algorithm)
	}
	mt := res.Metrics
	if mt == nil {
		t.Fatal("Metrics nil with WithMetrics")
	}
	if mt.W != 16*16*16 {
		t.Fatalf("W = %v", mt.W)
	}
	if want := res.Overhead(); mt.Overhead != want {
		t.Fatalf("Metrics.Overhead = %v, Result.Overhead = %v", mt.Overhead, want)
	}
	for _, r := range mt.Ranks {
		if got := r.Compute + r.Send + r.Idle; got != mt.Tp {
			t.Fatalf("rank %d budget %v != Tp %v", r.Rank, got, mt.Tp)
		}
	}
	// The caller's machine is never mutated.
	if m.CollectMetrics {
		t.Fatal("Run mutated the caller's machine")
	}
}

func TestRunWithoutOptionsMatchesDirectCall(t *testing.T) {
	m := matscale.NCube2(16)
	a := matscale.RandomMatrix(8, 8, 1)
	b := matscale.RandomMatrix(8, 8, 2)
	direct, err := matscale.Cannon(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	viaRun, err := matscale.Run(matscale.Cannon, m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Sim.Tp != viaRun.Sim.Tp {
		t.Fatalf("Tp differs: %v vs %v", direct.Sim.Tp, viaRun.Sim.Tp)
	}
	if viaRun.Metrics != nil {
		t.Fatal("Metrics populated without WithMetrics")
	}
}

func TestRunWithTrace(t *testing.T) {
	var buf bytes.Buffer
	res, err := matscale.Run(matscale.Cannon, matscale.NCube2(16),
		matscale.RandomMatrix(8, 8, 1), matscale.RandomMatrix(8, 8, 2),
		matscale.WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WithTrace wrote invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("WithTrace wrote no events")
	}
	if res.Sim.Trace == nil {
		t.Fatal("trace not retained on Result.Sim.Trace")
	}
}

func TestWithDNSGridMatchesCoreDNSWithGrid(t *testing.T) {
	m := matscale.NCube2(64)
	a := matscale.RandomMatrix(16, 16, 1)
	b := matscale.RandomMatrix(16, 16, 2)
	old, err := core.DNSWithGrid(m, a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	viaOpt, err := matscale.Run(matscale.DNS, m, a, b, matscale.WithDNSGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if old.Sim.Tp != viaOpt.Sim.Tp || old.Sim.Messages != viaOpt.Sim.Messages {
		t.Fatalf("WithDNSGrid diverges from core.DNSWithGrid: Tp %v vs %v", old.Sim.Tp, viaOpt.Sim.Tp)
	}
	// nil algorithm with the grid option also runs DNS.
	viaNil, err := matscale.Run(nil, m, a, b, matscale.WithDNSGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if viaNil.Sim.Tp != old.Sim.Tp {
		t.Fatalf("Run(nil, WithDNSGrid) Tp = %v, want %v", viaNil.Sim.Tp, old.Sim.Tp)
	}
}

func TestWithDNSGridRejectsOtherAlgorithms(t *testing.T) {
	_, err := matscale.Run(matscale.Cannon, matscale.NCube2(64),
		matscale.RandomMatrix(16, 16, 1), matscale.RandomMatrix(16, 16, 2),
		matscale.WithDNSGrid(4))
	if err == nil || !strings.Contains(err.Error(), "WithDNSGrid") {
		t.Fatalf("err = %v, want a WithDNSGrid combination error", err)
	}
}

func TestRunNilAutoSelects(t *testing.T) {
	res, err := matscale.Run(nil, matscale.NCube2(64),
		matscale.RandomMatrix(16, 16, 1), matscale.RandomMatrix(16, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm == "" {
		t.Fatal("auto-selected result has no algorithm name")
	}
}

func TestRunAutoSelection(t *testing.T) {
	m := matscale.NCube2(64)
	res, sel, err := matscale.RunAuto(m, matscale.RandomMatrix(16, 16, 1),
		matscale.RandomMatrix(16, 16, 2), matscale.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name == "" || sel.Algorithm == nil {
		t.Fatalf("Selection = %+v", sel)
	}
	if res.Algorithm != sel.Name {
		t.Fatalf("result ran %q but selection says %q", res.Algorithm, sel.Name)
	}
	if sel.PredictedTp <= 0 {
		t.Fatalf("PredictedTp = %v, want > 0", sel.PredictedTp)
	}
	if res.Metrics == nil {
		t.Fatal("RunAuto dropped the WithMetrics option")
	}
}

func TestWithBackendRunEquivalence(t *testing.T) {
	m := matscale.NCube2(64)
	a := matscale.RandomMatrix(16, 16, 1)
	b := matscale.RandomMatrix(16, 16, 2)
	g, err := matscale.Run(matscale.Cannon, m, a, b, matscale.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	e, err := matscale.Run(matscale.Cannon, m, a, b,
		matscale.WithMetrics(), matscale.WithBackend(matscale.Events))
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend != matscale.Goroutines {
		t.Fatal("WithBackend mutated the caller's machine")
	}
	if !reflect.DeepEqual(g.Sim, e.Sim) {
		t.Fatalf("backends differ: goroutines Tp=%v, events Tp=%v", g.Sim.Tp, e.Sim.Tp)
	}
}

func TestWithBackendRunAutoAndSweep(t *testing.T) {
	m := matscale.NCube2(64)
	a := matscale.RandomMatrix(16, 16, 1)
	b := matscale.RandomMatrix(16, 16, 2)
	g, gsel, err := matscale.RunAuto(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	e, esel, err := matscale.RunAuto(m, a, b, matscale.WithBackend(matscale.Events))
	if err != nil {
		t.Fatal(err)
	}
	if gsel.Name != esel.Name || !reflect.DeepEqual(g.Sim, e.Sim) {
		t.Fatalf("RunAuto diverges across backends: %q vs %q", gsel.Name, esel.Name)
	}
	spec := &matscale.SweepSpec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"ncube2"},
		Ps:         []int{16, 64},
		Ns:         []int{16},
	}
	gs, err := matscale.Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	es, err := matscale.Sweep(spec, matscale.WithBackend(matscale.Events))
	if err != nil {
		t.Fatal(err)
	}
	if gs.CSV() != es.CSV() {
		t.Fatal("sweep CSV differs between backends")
	}
}

func TestWithBackendUnknownValue(t *testing.T) {
	m := matscale.NCube2(16)
	a := matscale.RandomMatrix(16, 16, 1)
	bad := matscale.WithBackend(matscale.Backend(99))
	var ube *matscale.UnsupportedBackendError
	if _, err := matscale.Run(matscale.Cannon, m, a, a, bad); !errors.As(err, &ube) {
		t.Fatalf("Run err = %v, want *UnsupportedBackendError", err)
	}
	if ube.Backend != matscale.Backend(99) || ube.Error() == "" {
		t.Fatalf("error carries %v: %q", ube.Backend, ube.Error())
	}
	if _, _, err := matscale.RunAuto(m, a, a, bad); !errors.As(err, &ube) {
		t.Fatalf("RunAuto err = %v, want *UnsupportedBackendError", err)
	}
	spec := &matscale.SweepSpec{Algorithms: []string{"cannon"}, Machines: []string{"ncube2"}, Ps: []int{16}, Ns: []int{16}}
	if _, err := matscale.Sweep(spec, bad); !errors.As(err, &ube) {
		t.Fatalf("Sweep err = %v, want *UnsupportedBackendError", err)
	}
}

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]matscale.Backend{
		"goroutines": matscale.Goroutines,
		"events":     matscale.Events,
	} {
		got, err := matscale.ParseBackend(name)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Fatalf("Backend %v renders as %q", got, got.String())
		}
	}
	if _, err := matscale.ParseBackend("quantum"); err == nil {
		t.Fatal("want error for unknown backend name")
	}
}

// HostMul is bit-identical to the serial Mul at every worker count
// (0 = all CPUs; counts the shape cannot feed are clamped), on square,
// rectangular and empty shapes.
func TestHostMul(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {33, 17, 29}, {13, 29, 7}, {65, 65, 65}, {0, 5, 3}} {
		a := matscale.RandomMatrix(shape[0], shape[1], 1)
		b := matscale.RandomMatrix(shape[1], shape[2], 2)
		want := matscale.Mul(a, b)
		for _, w := range []int{0, 1, 2, 3, 4, runtime.NumCPU(), 100} {
			requireHostMulBitIdentical(t, a, b, w, want)
		}
	}
}

// requireHostMulBitIdentical fails t unless HostMul(a, b) on the given
// worker count succeeds and has want's shape and bit pattern.
func requireHostMulBitIdentical(t *testing.T, a, b *matscale.Matrix, workers int, want *matscale.Matrix) {
	t.Helper()
	got, err := matscale.HostMul(a, b, matscale.WithWorkers(workers))
	if err != nil {
		t.Fatalf("%dx%d · %dx%d workers=%d: %v", a.Rows, a.Cols, b.Rows, b.Cols, workers, err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%dx%d · %dx%d workers=%d: product is %dx%d, want %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, workers, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%dx%d · %dx%d workers=%d element %d: %v vs %v",
				a.Rows, a.Cols, b.Rows, b.Cols, workers, i, got.Data[i], want.Data[i])
		}
	}
}

func TestHostMulMatchesSerial(t *testing.T) {
	a := matscale.RandomMatrix(65, 65, 3)
	b := matscale.RandomMatrix(65, 65, 4)
	requireHostMulBitIdentical(t, a, b, 4, matscale.Mul(a, b))
}

// Square integer products over a spread of sizes and worker counts,
// including more workers than rows.
func TestHostMulSquareSizes(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{1, 1}, {7, 2}, {16, 4}, {33, 3}, {64, 0}, {50, 100},
	} {
		a := intMatrix(c.n, uint64(c.n))
		b := intMatrix(c.n, uint64(c.n)+9)
		requireHostMulBitIdentical(t, a, b, c.workers, matscale.Mul(a, b))
	}
}

func TestHostMulRectangular(t *testing.T) {
	a := matscale.RandomMatrix(13, 29, 5)
	b := matscale.RandomMatrix(29, 7, 6)
	requireHostMulBitIdentical(t, a, b, 3, matscale.Mul(a, b))
}

func TestHostMulEmpty(t *testing.T) {
	c, err := matscale.HostMul(matscale.NewMatrix(0, 5), matscale.NewMatrix(5, 3), matscale.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 0 || c.Cols != 3 {
		t.Fatalf("empty product shape %dx%d", c.Rows, c.Cols)
	}
}

// Property: the worker count never changes HostMul's result.
func TestQuickHostMulWorkerInvariance(t *testing.T) {
	f := func(seed uint64, w1, w2 uint8) bool {
		a := matscale.RandomMatrix(17, 17, seed)
		b := matscale.RandomMatrix(17, 17, seed+1)
		r1, err1 := matscale.HostMul(a, b, matscale.WithWorkers(int(w1%8)+1))
		r2, err2 := matscale.HostMul(a, b, matscale.WithWorkers(int(w2%8)+1))
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range r1.Data {
			if math.Float64bits(r1.Data[i]) != math.Float64bits(r2.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHostMulDimensionMismatch(t *testing.T) {
	_, err := matscale.HostMul(matscale.NewMatrix(3, 4), matscale.NewMatrix(5, 3))
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want dimension mismatch", err)
	}
}

// Two equal non-square shapes: a.Cols != b.Rows although the shapes match.
func TestHostMulSameShapeMismatch(t *testing.T) {
	_, err := matscale.HostMul(matscale.NewMatrix(2, 3), matscale.NewMatrix(2, 3), matscale.WithWorkers(1))
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want dimension mismatch", err)
	}
}

// A mismatch is reported as an error with no product, never as a panic.
func TestHostMulMismatchDoesNotPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("HostMul panicked on a dimension mismatch: %v", r)
		}
	}()
	c, err := matscale.HostMul(matscale.NewMatrix(3, 4), matscale.NewMatrix(5, 3), matscale.WithWorkers(1))
	if err == nil || c != nil {
		t.Fatalf("HostMul = %v, %v; want nil product and an error", c, err)
	}
}

// intMatrix builds a matrix of small integers so parallel and serial
// products compare exactly regardless of summation order.
func intMatrix(n int, seed uint64) *matscale.Matrix {
	m := matscale.NewMatrix(n, n)
	state := seed
	for i := range m.Data {
		state = state*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(state >> 60) // 0..15
	}
	return m
}

func TestRunWithFaults(t *testing.T) {
	m := matscale.NCube2(64)
	a := intMatrix(16, 1)
	b := intMatrix(16, 2)
	clean, err := matscale.Run(matscale.GK, m, a, b, matscale.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	f, err := matscale.ParseFaults("straggler=2@rank0,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := matscale.Run(matscale.GK, m, a, b,
		matscale.WithFaults(f), matscale.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	// The product is unaffected; only the timing degrades.
	want := matscale.Mul(a, b)
	for i := range want.Data {
		if faulted.C.Data[i] != want.Data[i] {
			t.Fatal("faulted product differs from serial")
		}
	}
	if faulted.Overhead() <= clean.Overhead() {
		t.Fatalf("faulted To %v not above clean %v", faulted.Overhead(), clean.Overhead())
	}
	d := faulted.Metrics.Degradation
	if d == nil {
		t.Fatal("no Degradation block with WithFaults+WithMetrics")
	}
	if len(d.StraggledRanks) != 1 || d.StraggledRanks[0] != 0 {
		t.Fatalf("StraggledRanks = %v, want [0]", d.StraggledRanks)
	}
	if clean.Metrics.Degradation != nil {
		t.Fatal("clean run has a Degradation block")
	}
	// The caller's machine is never mutated.
	if m.Faults != nil || m.CollectMetrics {
		t.Fatal("Run mutated the caller's machine")
	}
}

func TestWithFaultsDeterministic(t *testing.T) {
	a := matscale.RandomMatrix(16, 16, 3)
	b := matscale.RandomMatrix(16, 16, 4)
	f, err := matscale.ParseFaults("stragglers=0.25:3,loss=0.02,jitter=0.2,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *matscale.Result {
		res, err := matscale.Run(matscale.Cannon, matscale.NCube2(16), a, b,
			matscale.WithFaults(f), matscale.WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if first.Sim.Tp != second.Sim.Tp {
		t.Fatalf("Tp differs across identical faulted runs: %v vs %v", first.Sim.Tp, second.Sim.Tp)
	}
	var b1, b2 bytes.Buffer
	if err := first.Metrics.WriteRanksCSV(&b1); err != nil {
		t.Fatal(err)
	}
	if err := second.Metrics.WriteRanksCSV(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("metrics bytes differ across identical faulted runs")
	}
}

func TestWithFaultsNilIsNoop(t *testing.T) {
	a := matscale.RandomMatrix(16, 16, 5)
	b := matscale.RandomMatrix(16, 16, 6)
	plain, err := matscale.Run(matscale.Cannon, matscale.NCube2(16), a, b)
	if err != nil {
		t.Fatal(err)
	}
	withNil, err := matscale.Run(matscale.Cannon, matscale.NCube2(16), a, b, matscale.WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sim.Tp != withNil.Sim.Tp {
		t.Fatalf("nil faults changed Tp: %v vs %v", plain.Sim.Tp, withNil.Sim.Tp)
	}
}

func TestRunRejectsInvalidFaults(t *testing.T) {
	a := matscale.RandomMatrix(16, 16, 5)
	b := matscale.RandomMatrix(16, 16, 6)
	bad := &matscale.Faults{Loss: 2}
	if _, err := matscale.Run(matscale.Cannon, matscale.NCube2(16), a, b, matscale.WithFaults(bad)); err == nil {
		t.Fatal("invalid fault config accepted")
	}
}

func sweepSpec() *matscale.SweepSpec {
	return &matscale.SweepSpec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"custom"},
		Ts:         17, Tw: 3,
		Ps:   []int{16, 64},
		Ns:   []int{16, 32},
		Seed: 1,
	}
}

func TestSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := sweepSpec()
	spec.Faults = []string{"", "straggler=2@rank0,seed=42"}
	var baseCSV, baseJSON string
	for _, workers := range []int{1, 4, 0} { // 0 = NumCPU
		res, err := matscale.Sweep(spec, matscale.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if baseCSV == "" {
			baseCSV, baseJSON = res.CSV(), sb.String()
			continue
		}
		if res.CSV() != baseCSV {
			t.Fatalf("workers=%d: CSV diverged", workers)
		}
		if sb.String() != baseJSON {
			t.Fatalf("workers=%d: JSON diverged", workers)
		}
	}
}

func TestSweepWithProgress(t *testing.T) {
	var calls, total int
	res, err := matscale.Sweep(sweepSpec(),
		matscale.WithWorkers(2),
		matscale.WithProgress(func(done, tot int, c matscale.SweepCell) {
			calls++
			total = tot
		}))
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(res.Cells) || total != len(res.Cells) {
		t.Fatalf("progress calls = %d (total %d), want %d", calls, total, len(res.Cells))
	}
	if res.Ran == 0 {
		t.Fatal("no cells ran")
	}
}

func TestSweepRejectsBadSpec(t *testing.T) {
	if _, err := matscale.Sweep(&matscale.SweepSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestSweepAlgorithmsListsRegistry(t *testing.T) {
	names := matscale.SweepAlgorithms()
	if len(names) < 6 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestRunAllByteIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) string {
		var buf bytes.Buffer
		if err := matscale.RunAll(&buf, true, matscale.WithWorkers(workers)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	if serial == "" {
		t.Fatal("RunAll wrote nothing")
	}
	for _, workers := range []int{4, 0} {
		if run(workers) != serial {
			t.Fatalf("RunAll output diverged at workers=%d", workers)
		}
	}
}

func TestSweepServerPublicSurface(t *testing.T) {
	srv, err := matscale.NewSweepServer(matscale.SweepServerConfig{
		QueueDepth:    4,
		MaxConcurrent: 1,
		SweepWorkers:  1,
		CacheCells:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	spec := &matscale.SweepSpec{
		Algorithms: []string{"cannon"},
		Machines:   []string{"ncube2"},
		Ps:         []int{16},
		Ns:         []int{16},
	}
	job, err := srv.Submit(spec, matscale.Goroutines)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Finished()
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Ran != 1 {
		t.Fatalf("cells = %d ran = %d, want 1/1", len(res.Cells), res.Ran)
	}

	// A second identical submission is served from the cell cache and
	// must export the same bytes — the library-level statement of the
	// hit-vs-miss identity docs/SERVER.md promises over HTTP.
	job2, err := srv.Submit(spec, matscale.Goroutines)
	if err != nil {
		t.Fatal(err)
	}
	<-job2.Finished()
	res2, err := job2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != res2.CSV() {
		t.Fatal("cached sweep CSV differs from cold sweep")
	}
	st := srv.Stats()
	if st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}

	// Typed rejections match their exported error kind.
	if _, err := srv.Submit(&matscale.SweepSpec{}, matscale.Goroutines); !errors.Is(err, matscale.ServerKindBadSpec) {
		t.Fatalf("empty spec error = %v, want ServerKindBadSpec", err)
	}
}
