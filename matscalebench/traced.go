package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"matscale"
	"matscale/internal/des"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
)

// runTraced is the per-layer run. It measures the workload's own
// traffic untraced and traced (their difference is the tracing
// overhead), re-runs the workload's distinct cells serially through
// their public formulations on both engines, times the sweep layer's
// serial work, and makes every layer probe. The spans are recorded by
// the benchmark around its calls into matscale; there are none inside
// the program.
func runTraced(cfg runConfig, t *tally) (metricSet, error) {
	rec := newRecorder()
	ms := metricSet{}
	root := rec.Begin("traced-run", "bench", cfg.workload, -1)

	var (
		specs  []*matscale.SweepSpec
		checks []func(*matscale.SweepResult) string
		wallN  []time.Duration // Sweep wall time at the default workers, per spec, if measured
	)
	var hm *hostMulInputs
	if cfg.workload == wlService {
		st, err := setupService(cfg, 0)
		if err != nil {
			return nil, err
		}
		if err := tracedService(cfg, st, ms, t, rec, root); err != nil {
			return nil, err
		}
		// Every unique spec has the same shape, so the pool specs and
		// the first tracedUniqueSpecs unique ones stand for all of them.
		specs, hm = st.in.Specs[:min(len(st.in.Specs), poolSpecs+tracedUniqueSpecs)], st.hm
		for i := range specs {
			ref := st.refs[i]
			checks = append(checks, func(res *matscale.SweepResult) string {
				var buf bytes.Buffer
				res.WriteJSON(&buf) // bytes.Buffer never errors
				if !bytes.Equal(buf.Bytes(), ref) {
					return "result differs from the reference sweep"
				}
				return ""
			})
		}
	} else {
		st, err := setupSweep(cfg)
		if err != nil {
			return nil, err
		}
		spec, golden := st.spec, st.golden
		hm = st.hm
		u, tr := overheadPairs(cfg, spec, golden, t, rec, root)
		ms["trace.overhead_frac"] = tr/u - 1
		specs, wallN = []*matscale.SweepSpec{spec}, []time.Duration{time.Duration(u * float64(time.Second))}
		checks = append(checks, func(res *matscale.SweepResult) string {
			if bad, first := csvMismatches(sweepCSV(res), golden); bad > 0 {
				return first
			}
			return ""
		})
	}

	rates := probeKernel(ms, rec, root)
	tracedCells(ms, specs, checks, wallN, rates, t, rec, root)
	probeHostMul(ms, hm, t, rec, root)
	sim := probeEngine(ms, "simulator", simulator.Run, t, rec, root)
	ev := probeEngine(ms, "des", des.Run, t, rec, root)
	checkEngines(sim, ev, t)
	probeSwitch(ms, t, rec, root)
	probeCollectives(ms, t, rec, root)
	ck, err := suspendedCheckpoint(filepath.Join(cfg.workdir, "probe-ckpt"), checkpointProbeSpec(cfg.seed))
	if err != nil {
		t.fail(1, "checkpoint probe: %v", err)
	}
	probeCheckpointCodec(ms, ck, t, rec, root)

	rec.End(root)
	self := rec.SelfTimes()
	for _, l := range traceLayers {
		ms["trace.self_ms."+l] = float64(self[l].Nanoseconds()) / 1e6
	}
	writeSpans(cfg, rec)
	return ms, nil
}

// overheadPairs runs one untimed grid to bring the heap to its working
// size, then untraced and traced grids in pairs for half the window
// (at least one pair), and returns the median seconds of each kind.
func overheadPairs(cfg runConfig, spec *matscale.SweepSpec, golden []byte, t *tally, rec *Recorder, parent int) (float64, float64) {
	sweepGrid(spec, golden, t)
	var plain, traced []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second / 2)
	for len(plain) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		d, _ := sweepGrid(spec, golden, t)
		plain = append(plain, d.Seconds())
		runtime.GC()
		rec.Time("matscale.Sweep", "sweep", cfg.workload, parent, func() {
			d, _ = sweepGrid(spec, golden, t)
		})
		traced = append(traced, d.Seconds())
	}
	return Median(plain), Median(traced)
}

// cellStats accumulates the serial re-run of a workload's cells.
type cellStats struct {
	algMS       map[string]float64
	hostNS      float64 // Σ cell host time on the default engine
	cpuNS       float64 // Σ process CPU time during those cells
	eventsNS    float64 // Σ cell host time on the event engine
	msgs, words float64
	w           float64 // Σ n³ over cells that ran
	kernelNS    float64 // Σ n³ multiply–adds at the probed block rate
}

// tracedCells re-runs every cell that ran in the workload's specs
// serially through its public formulation, on the default engine and
// on the event engine, and times the sweep layer's own serial work:
// operand generation, a one-worker Sweep, and CSV/JSON encoding. wallN
// holds each spec's Sweep time at the default worker count; when nil,
// tracedCells measures it.
func tracedCells(ms metricSet, specs []*matscale.SweepSpec, checks []func(*matscale.SweepResult) string,
	wallN []time.Duration, rates map[int]float64, t *tally, rec *Recorder, parent int) {
	cs := cellStats{algMS: map[string]float64{}}
	var matgen, wall1, encode, poolWall time.Duration
	operands := map[int][3]*matscale.Matrix{}
	for i, spec := range specs {
		sp := rec.Begin("spec", "sweep", fmt.Sprintf("spec-%d", i), parent)
		for _, n := range spec.Ns {
			rec.Time("matscale.RandomMatrix", "sweep", fmt.Sprintf("spec-%d", i), sp, func() {
				t0 := time.Now()
				seed := spec.Seed + 2*uint64(n)
				matscale.RandomMatrix(n, n, seed)
				matscale.RandomMatrix(n, n, seed+1)
				matgen += time.Since(t0)
			})
		}
		var res *matscale.SweepResult
		rec.Time("matscale.Sweep.w1", "sweep", fmt.Sprintf("spec-%d", i), sp, func() {
			t.attempted++
			t0 := time.Now()
			r, err := matscale.Sweep(spec, matscale.WithWorkers(1))
			wall1 += time.Since(t0)
			switch {
			case err != nil:
				t.fail(1, "one-worker Sweep: %v", err)
			case checks[i](r) != "":
				t.fail(1, "one-worker Sweep: %s", checks[i](r))
			default:
				res = r
			}
		})
		if wallN != nil {
			poolWall += wallN[i]
		} else {
			rec.Time("matscale.Sweep", "sweep", fmt.Sprintf("spec-%d", i), sp, func() {
				t.attempted++
				t0 := time.Now()
				if _, err := matscale.Sweep(spec); err != nil {
					t.fail(1, "Sweep: %v", err)
				}
				poolWall += time.Since(t0)
			})
		}
		if res == nil {
			rec.End(sp)
			continue
		}
		rec.Time("SweepResult.encode", "sweep", fmt.Sprintf("spec-%d", i), sp, func() {
			var best time.Duration
			for k := 0; k < 3; k++ {
				t0 := time.Now()
				var buf bytes.Buffer
				res.WriteCSV(&buf)
				res.WriteJSON(&buf)
				if d := time.Since(t0); k == 0 || d < best {
					best = d
				}
			}
			encode += best
		})
		for _, c := range res.Cells {
			if c.Err != "" {
				continue
			}
			ops, ok := operands[c.N]
			if !ok {
				a, b := exactOperands(c.N, spec.Seed)
				ops = [3]*matscale.Matrix{a, b, matscale.Mul(a, b)}
				operands[c.N] = ops
			}
			m, err := cellMachine(c.Machine, c.P, spec.Ts, spec.Tw)
			if err != nil {
				t.attempted++
				t.fail(1, "cell %s: %v", c.Key(), err)
				continue
			}
			alg := algorithms[c.Algorithm]
			cpu0 := cpuTime()
			r, d, ok := runCell(alg, m, ops, c, t, rec, sp)
			if !ok {
				continue
			}
			cs.cpuNS += float64((cpuTime() - cpu0).Nanoseconds())
			cs.algMS[c.Algorithm] += float64(d.Nanoseconds()) / 1e6
			cs.hostNS += float64(d.Nanoseconds())
			cs.msgs += float64(r.Sim.Messages)
			cs.words += float64(r.Sim.Words)
			nf := float64(c.N)
			cs.w += nf * nf * nf
			cs.kernelNS += 2 * nf * nf * nf / rates[nearestSide(c.N, c.P)]
			if _, ev, ok := runCell(alg, m.WithBackend(matscale.Events), ops, c, t, rec, sp); ok {
				cs.eventsNS += float64(ev.Nanoseconds())
			}
		}
		rec.End(sp)
	}
	for name := range algorithms {
		ms["core."+name+".host_ms"] = cs.algMS[name]
	}
	ms["core.events_host_ms"] = cs.eventsNS / 1e6
	ms["core.sim_msgs"] = cs.msgs
	ms["core.sim_words"] = cs.words
	if cs.msgs > 0 {
		ms["core.host_ns_per_msg"] = cs.hostNS / cs.msgs
	}
	if cs.w > 0 {
		ms["core.host_ns_per_flop"] = cs.hostNS / (2 * cs.w)
	}
	ms["matrix.kernel_flops"] = cs.w
	if cs.cpuNS > 0 {
		ms["matrix.kernel_share"] = cs.kernelNS / cs.cpuNS
	}
	ms["sweep.matgen_ms"] = float64(matgen.Nanoseconds()) / 1e6
	ms["sweep.encode_ms"] = float64(encode.Nanoseconds()) / 1e6
	ms["sweep.serial_overhead_ms"] = (float64(wall1.Nanoseconds()) - cs.hostNS) / 1e6
	if poolWall > 0 {
		ms["sweep.pool_efficiency"] = cs.cpuNS / (float64(poolWall.Nanoseconds()) * float64(runtime.NumCPU()))
	}
}

// runCell makes one timed run of a cell's formulation, checks the
// product against the serial Mul exactly and the virtual time against
// the sweep's, and returns the run's result and host time.
func runCell(alg matscale.Algorithm, m *matscale.Machine, ops [3]*matscale.Matrix, c matscale.SweepCell,
	t *tally, rec *Recorder, parent int) (*matscale.Result, time.Duration, bool) {
	t.attempted++
	var (
		res *matscale.Result
		err error
		d   time.Duration
	)
	rec.Time("core."+c.Algorithm, "core", c.Key(), parent, func() {
		t0 := time.Now()
		res, err = alg(m, ops[0], ops[1])
		d = time.Since(t0)
	})
	switch {
	case err != nil:
		t.fail(1, "cell %s on %v: %v", c.Key(), m.Backend, err)
		return nil, 0, false
	case matrix.MaxAbsDiff(res.C, ops[2]) != 0:
		t.fail(1, "cell %s on %v: product differs from Mul", c.Key(), m.Backend)
		return nil, 0, false
	case res.Sim.Tp != c.Tp:
		t.fail(1, "cell %s on %v: Tp %g, sweep measured %g", c.Key(), m.Backend, res.Sim.Tp, c.Tp)
		return nil, 0, false
	}
	return res, d, true
}

// algorithms maps sweep formulation names to the public formulations.
var algorithms = map[string]matscale.Algorithm{
	"simple":     matscale.Simple,
	"cannon":     matscale.Cannon,
	"fox":        matscale.Fox,
	"foxpipe":    matscale.FoxPipelined,
	"berntsen":   matscale.Berntsen,
	"dns":        matscale.DNS,
	"gk":         matscale.GK,
	"gkimproved": matscale.GKImprovedBroadcast,
}

// cellMachine builds the machine preset a sweep cell runs on.
func cellMachine(name string, p int, ts, tw float64) (*matscale.Machine, error) {
	switch name {
	case "ncube2":
		return matscale.NCube2(p), nil
	case "cm5":
		return matscale.CM5(p), nil
	case "custom":
		return matscale.Hypercube(p, ts, tw), nil
	}
	return nil, fmt.Errorf("machine preset %q not used by any workload", name)
}

// exactOperands returns a seeded n×n operand pair with small nonzero
// integer entries: every product sum is exact in float64, so any
// formulation's product must equal Mul bit for bit whatever its
// summation order, and no entry is zero, so the kernel skips no work
// the sweep's random operands would not skip.
func exactOperands(n int, seed uint64) (*matscale.Matrix, *matscale.Matrix) {
	mk := func(s uint64) *matscale.Matrix {
		m := matscale.RandomMatrix(n, n, s)
		for i, v := range m.Data {
			k := math.Ceil(math.Abs(v) * 4) // 1..4
			if k == 0 {
				k = 1
			}
			m.Data[i] = math.Copysign(k, v)
		}
		return m
	}
	return mk(seed + 2*uint64(n)), mk(seed + 2*uint64(n) + 1)
}

// tracedUniqueSpecs is how many of service-mixed's unique specs the
// traced run re-runs cell by cell.
const tracedUniqueSpecs = 60

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// nearestSide returns the probed kernel block side closest to the
// block side n/√p of a two-dimensional formulation.
func nearestSide(n, p int) int {
	b := float64(n) / math.Sqrt(float64(p))
	best := kernelSides[0]
	for _, s := range kernelSides {
		if math.Abs(float64(s)-b) < math.Abs(float64(best)-b) {
			best = s
		}
	}
	return best
}

// checkpointProbeSpec is a 32-cell sweep, long enough that a
// suspension after its first cell always finds cells left to stop.
func checkpointProbeSpec(seed uint64) *matscale.SweepSpec {
	return &matscale.SweepSpec{
		Algorithms: matscale.SweepAlgorithms(),
		Machines:   []string{"custom"},
		Ts:         17,
		Tw:         3,
		Ps:         []int{16, 64},
		Ns:         []int{32, 64},
		Seed:       seed,
	}
}
