package main

import (
	"fmt"
	"runtime"
	"time"

	"matscale"
	"matscale/internal/collective"
	"matscale/internal/des"
	"matscale/internal/machine"
	"matscale/internal/matrix"
	"matscale/internal/simulator"
	"matscale/internal/sweep"
)

// Layer probes: small, fixed programs timed from outside through each
// package's public functions. Every traced run makes all of them, so
// the per-layer numbers of different workloads are directly
// comparable.

// probeReps is how many times each probe is repeated; the median
// repetition is reported.
const probeReps = 5

// kernelSides are the block sides the serial kernel is probed at: the
// largest block of sweep-manyrank (16) and the blocks of
// sweep-largeblock.
var kernelSides = []int{16, 64, 128, 192}

// probeKernel measures serial matrix.MulAddInto at each block side in
// GFLOP/s, timing batches of about 20 ms.
func probeKernel(ms metricSet, rec *Recorder, parent int) map[int]float64 {
	rates := map[int]float64{}
	for _, b := range kernelSides {
		a := matrix.Random(b, b, 1)
		bm := matrix.Random(b, b, 2)
		c := matrix.New(b, b)
		flops := 2 * float64(b*b*b)
		reps := max(1, int(20e6/flops)) // ~20 ms at 1 GFLOP/s
		var samples []float64
		rec.Time(fmt.Sprintf("matrix.MulAddInto.b%d", b), "matrix", "probe", parent, func() {
			for i := 0; i < probeReps; i++ {
				t0 := time.Now()
				for r := 0; r < reps; r++ {
					matrix.MulAddInto(c, a, bm)
				}
				samples = append(samples, flops*float64(reps)/time.Since(t0).Seconds()/1e9)
			}
		})
		rates[b] = Median(samples)
		ms[fmt.Sprintf("matrix.gflops.b%d", b)] = rates[b]
	}
	return rates
}

// probeHostMul measures HostMul at one worker and at the default
// worker count, checking every product.
func probeHostMul(ms metricSet, hm *hostMulInputs, t *tally, rec *Recorder, parent int) {
	for _, w := range []struct {
		name string
		opts []matscale.Option
	}{{"w1", []matscale.Option{matscale.WithWorkers(1)}}, {"wmax", nil}} {
		var times []float64
		rec.Time("matscale.HostMul."+w.name, "matrix", "probe", parent, func() {
			for i := 0; i < hostMulCopies; i++ {
				if s, ok := hm.hostMul(t, w.opts...); ok {
					times = append(times, s)
				}
			}
		})
		ms["matrix.hostmul_gflops."+w.name] = hostMulGflops(times)
	}
}

// ringRounds sets the ring-shift probe's length per processor count so
// both sizes move the same number of messages.
var ringRounds = map[int]int{64: 400, 1024: 25}

// ringShift is the engine probe body: every rank sends a 16-word
// payload to its successor and receives from its predecessor, rounds
// times.
func ringShift(rounds int) func(*simulator.Proc) {
	return func(pr *simulator.Proc) {
		p, r := pr.P(), pr.Rank()
		payload := make([]float64, 16)
		for i := 0; i < rounds; i++ {
			pr.Send((r+1)%p, i, payload)
			pr.Recycle(pr.Recv((r+p-1)%p, i))
		}
	}
}

// engineRun is one engine entry point under probe: simulator.Run,
// which runs a default machine on the goroutine engine, or des.Run.
type engineRun func(*machine.Machine, func(*simulator.Proc)) (*simulator.Result, error)

// probeEngine times the ring-shift probe on one engine at p = 64 and
// p = 1024 and returns the probe's results by p, for the cross-engine
// check. Allocations per message are taken at p = 64.
func probeEngine(ms metricSet, name string, runFn engineRun, t *tally, rec *Recorder, parent int) map[int]*simulator.Result {
	out := map[int]*simulator.Result{}
	for _, p := range []int{64, 1024} {
		m := machine.NCube2(p)
		body := ringShift(ringRounds[p])
		var nsPerMsg, allocs []float64
		rec.Time(fmt.Sprintf("%s.Run.p%d", name, p), name, "probe", parent, func() {
			for i := 0; i < probeReps; i++ {
				t.attempted++
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				t0 := time.Now()
				res, err := runFn(m, body)
				d := time.Since(t0)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.fail(1, "%s ring probe p=%d: %v", name, p, err)
					continue
				}
				out[p] = res
				nsPerMsg = append(nsPerMsg, float64(d.Nanoseconds())/float64(res.Messages))
				allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(res.Messages))
			}
		})
		ms[fmt.Sprintf("%s.ns_per_msg.p%d", name, p)] = Median(nsPerMsg)
		if p == 64 {
			ms[name+".allocs_per_msg"] = Median(allocs)
		}
	}
	return out
}

// checkEngines is the cross-backend check of the engine probe: both
// engines must measure identical Tp, message and word counts.
func checkEngines(sim, ev map[int]*simulator.Result, t *tally) {
	for _, p := range []int{64, 1024} {
		t.attempted++
		a, b := sim[p], ev[p]
		if a == nil || b == nil {
			t.fail(1, "engine probe p=%d missing a result", p)
			continue
		}
		if a.Tp != b.Tp || a.Messages != b.Messages || a.Words != b.Words {
			t.fail(1, "engine probe p=%d: goroutines (Tp %g, %d msgs, %d words) != events (Tp %g, %d msgs, %d words)",
				p, a.Tp, a.Messages, a.Words, b.Tp, b.Messages, b.Words)
		}
	}
}

// pingPongRounds is the length of the fiber-switch probe.
const pingPongRounds = 20000

// probeSwitch times a two-rank ping-pong on the event engine, where
// every Recv blocks and so costs one fiber switch.
func probeSwitch(ms metricSet, t *tally, rec *Recorder, parent int) {
	body := func(pr *simulator.Proc) {
		peer := 1 - pr.Rank()
		buf := make([]float64, 1)
		for i := 0; i < pingPongRounds; i++ {
			if pr.Rank() == 0 {
				pr.Send(peer, 0, buf)
				pr.Recycle(pr.Recv(peer, 0))
			} else {
				pr.Recycle(pr.Recv(peer, 0))
				pr.Send(peer, 0, buf)
			}
		}
	}
	var samples []float64
	rec.Time("des.Run.pingpong", "des", "probe", parent, func() {
		for i := 0; i < probeReps; i++ {
			t.attempted++
			t0 := time.Now()
			if _, err := des.Run(machine.NCube2(2), body); err != nil {
				t.fail(1, "ping-pong probe: %v", err)
				continue
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/(2*pingPongRounds))
		}
	})
	ms["des.ns_per_switch"] = Median(samples)
}

// Collective probe shape: host µs per call at p = 64, every rank
// passing a 256-word buffer.
const (
	collectiveP     = 64
	collectiveWords = 256
	collectiveCalls = 50
)

// probeCollectives times Broadcast, AllGather and Reduce called from a
// rank body on the default engine.
func probeCollectives(ms metricSet, t *tally, rec *Recorder, parent int) {
	group := make([]int, collectiveP)
	for i := range group {
		group[i] = i
	}
	ops := []struct {
		name string
		call func(pr *simulator.Proc, tag int, data []float64)
	}{
		{"broadcast", func(pr *simulator.Proc, tag int, data []float64) {
			if out := collective.Broadcast(pr, group, 0, tag, data); pr.Rank() != 0 {
				pr.Recycle(out)
			}
		}},
		{"allgather", func(pr *simulator.Proc, tag int, data []float64) {
			collective.AllGather(pr, group, tag*8, data) // tags tag*8 .. tag*8+5
		}},
		{"reduce", func(pr *simulator.Proc, tag int, data []float64) {
			collective.Reduce(pr, group, 0, tag, data)
		}},
	}
	for _, op := range ops {
		body := func(pr *simulator.Proc) {
			data := make([]float64, collectiveWords)
			for i := 0; i < collectiveCalls; i++ {
				op.call(pr, i, data)
			}
		}
		var samples []float64
		rec.Time("collective."+op.name, "collective", "probe", parent, func() {
			for i := 0; i < probeReps; i++ {
				t.attempted++
				t0 := time.Now()
				if _, err := simulator.Run(machine.NCube2(collectiveP), body); err != nil {
					t.fail(1, "%s probe: %v", op.name, err)
					continue
				}
				samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3/collectiveCalls)
			}
		})
		ms["collective."+op.name+"_us"] = Median(samples)
	}
}

// probeCheckpointCodec times sweep.Checkpoint.Encode and
// sweep.DecodeCheckpoint on a checkpoint taken from a suspended server
// job, and checks that it round-trips.
func probeCheckpointCodec(ms metricSet, ck *sweep.Checkpoint, t *tally, rec *Recorder, parent int) {
	t.attempted++
	if ck == nil {
		t.fail(1, "no checkpoint to probe")
		return
	}
	var enc, dec []float64
	var data []byte
	rec.Time("checkpoint.codec", "checkpoint", "probe", parent, func() {
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			d, err := ck.Encode()
			enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				t.fail(1, "checkpoint encode: %v", err)
				return
			}
			data = d
			t0 = time.Now()
			back, err := sweep.DecodeCheckpoint(data)
			dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil || len(back.Done) != len(ck.Done) {
				t.fail(1, "checkpoint decode: %v", err)
				return
			}
		}
	})
	ms["checkpoint.encode_us"] = Median(enc)
	ms["checkpoint.decode_us"] = Median(dec)
}

// suspendedCheckpoint submits spec to a fresh in-process server,
// suspends the job after its first progress event and returns the
// job's checkpoint.
func suspendedCheckpoint(dir string, spec *matscale.SweepSpec) (*sweep.Checkpoint, error) {
	srv, err := matscale.NewSweepServer(matscale.SweepServerConfig{CheckpointDir: dir, CacheCells: -1})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown()
	j, err := srv.Submit(spec, -1)
	if err != nil {
		return nil, err
	}
	events, cancel := j.Subscribe()
	defer cancel()
	asked := false
	for ev := range events {
		switch {
		case ev.Type == "progress" && !asked:
			asked = true
			if err := srv.Suspend(j.ID()); err != nil {
				return nil, err
			}
		case ev.Type == "state" && ev.State == "suspended":
			ck := j.Checkpoint()
			if err := srv.Cancel(j.ID()); err != nil {
				return nil, err
			}
			return ck, nil
		}
	}
	return nil, fmt.Errorf("job %s finished before it could be suspended", j.ID())
}
