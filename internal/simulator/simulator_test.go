package simulator

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"matscale/internal/machine"
	"matscale/internal/topology"
)

func twoProc(ts, tw float64) *machine.Machine {
	return machine.Hypercube(2, ts, tw)
}

func TestComputeAdvancesClock(t *testing.T) {
	res, err := Run(twoProc(0, 0), func(p *Proc) {
		p.Compute(float64(100 * (p.Rank() + 1)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 200 {
		t.Fatalf("Tp = %v, want 200 (max of 100, 200)", res.Tp)
	}
	if res.ProcClocks[0] != 100 || res.ProcClocks[1] != 200 {
		t.Fatalf("clocks = %v", res.ProcClocks)
	}
	if res.TotalCompute != 300 {
		t.Fatalf("TotalCompute = %v, want 300", res.TotalCompute)
	}
}

func TestSendRecvCostAndData(t *testing.T) {
	m := twoProc(10, 2)
	res, err := Run(m, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := p.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("received %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender pays ts + tw·3 = 16; receiver's clock advances to the
	// arrival time 16.
	if res.Tp != 16 {
		t.Fatalf("Tp = %v, want 16", res.Tp)
	}
	if res.Messages != 1 || res.Words != 3 {
		t.Fatalf("messages=%d words=%d", res.Messages, res.Words)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	res, err := Run(twoProc(1, 1), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, []float64{5}) // arrival at t=2
		} else {
			p.Compute(100)
			if got := p.Recv(0, 0); got[0] != 5 {
				t.Errorf("got %v", got)
			}
			if p.Clock() != 100 {
				t.Errorf("clock = %v, want 100 (already past arrival)", p.Clock())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 100 {
		t.Fatalf("Tp = %v", res.Tp)
	}
}

func TestSendCopiesData(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			buf := []float64{1}
			p.SendFree(1, 0, buf)
			buf[0] = 99 // mutating after send must not affect receiver
		} else {
			if got := p.Recv(0, 0); got[0] != 1 {
				t.Errorf("receiver saw mutated buffer: %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				p.SendFree(1, 4, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := p.Recv(0, 4); got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsKeepStreamsSeparate(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFree(1, 1, []float64{1})
			p.SendFree(1, 2, []float64{2})
		} else {
			// Receive in the opposite tag order.
			if got := p.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 delivered %v", got)
			}
			if got := p.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 delivered %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeChargesOnce(t *testing.T) {
	// Both start at t=0 and exchange m=4 words with ts=10, tw=1:
	// both finish at 14, modeling one shift step.
	res, err := Run(twoProc(10, 1), func(p *Proc) {
		other := 1 - p.Rank()
		got := p.Exchange(other, 3, []float64{float64(p.Rank()), 0, 0, 0})
		if got[0] != float64(other) {
			t.Errorf("rank %d received %v", p.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 14 {
		t.Fatalf("Tp = %v, want 14", res.Tp)
	}
	if res.ProcClocks[0] != res.ProcClocks[1] {
		t.Fatalf("exchange left clocks unequal: %v", res.ProcClocks)
	}
}

func TestExchangeSynchronizesLaggard(t *testing.T) {
	res, err := Run(twoProc(10, 1), func(p *Proc) {
		if p.Rank() == 1 {
			p.Compute(50)
		}
		p.Exchange(1-p.Rank(), 0, []float64{1})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Completion = max(0, 50) + (10 + 1) = 61 for both.
	if res.ProcClocks[0] != 61 || res.ProcClocks[1] != 61 {
		t.Fatalf("clocks = %v, want [61 61]", res.ProcClocks)
	}
}

func TestChargedSend(t *testing.T) {
	res, err := Run(twoProc(100, 100), func(p *Proc) {
		if p.Rank() == 0 {
			p.ChargedSend(1, 0, []float64{1, 2}, 42)
		} else {
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 42 {
		t.Fatalf("Tp = %v, want 42", res.Tp)
	}
}

func TestSendFreeIsFree(t *testing.T) {
	res, err := Run(twoProc(100, 100), func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFree(1, 0, []float64{1})
		} else {
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 0 {
		t.Fatalf("Tp = %v, want 0", res.Tp)
	}
}

func TestStoreAndForwardMultiHopCharge(t *testing.T) {
	m := machine.Hypercube(8, 10, 1)
	res, err := Run(m, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(7, 0, []float64{1, 2}) // 3 hops: 3·(10+2) = 36
		case 7:
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 36 {
		t.Fatalf("Tp = %v, want 36", res.Tp)
	}
}

func TestSendMultiOnePortSums(t *testing.T) {
	m := machine.Hypercube(4, 10, 1)
	res, err := Run(m, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.SendMulti([]Transfer{
				{Dst: 1, Tag: 0, Data: []float64{1}},    // 11
				{Dst: 2, Tag: 0, Data: []float64{1, 2}}, // 12
			})
		case 1, 2:
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcClocks[0] != 23 {
		t.Fatalf("one-port sender clock = %v, want 23", res.ProcClocks[0])
	}
}

func TestSendMultiAllPortTakesMax(t *testing.T) {
	m := machine.Hypercube(4, 10, 1)
	m.AllPort = true
	res, err := Run(m, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.SendMulti([]Transfer{
				{Dst: 1, Tag: 0, Data: []float64{1}},
				{Dst: 2, Tag: 0, Data: []float64{1, 2}},
			})
		case 1, 2:
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcClocks[0] != 12 {
		t.Fatalf("all-port sender clock = %v, want 12 (max of 11, 12)", res.ProcClocks[0])
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		p.Recv(1-p.Rank(), 0) // both wait forever
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestDeadlockAfterExitDetected(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 1 {
			p.Recv(0, 0) // rank 0 exits immediately; rank 1 starves
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestWrongTagDeadlocks(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFree(1, 1, []float64{1})
			p.Recv(1, 0)
		} else {
			p.Recv(0, 2) // tag mismatch: message queued but unwanted
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// At p=1024 the stalled counter must still prove a deadlock exactly,
// both when the last live rank parks and when the last sender exits.
func TestDeadlockDetectedAtScale(t *testing.T) {
	const p = 1024
	m := machine.Hypercube(p, 0, 0)
	_, err := Run(m, func(pr *Proc) {
		pr.Recv((pr.Rank()+1)%p, 0) // every peer is silent
	})
	want := "simulator: deadlock: all 1024 live processors blocked in Recv"
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("silent peers: err = %v, want prefix %q", err, want)
	}

	_, err = Run(m, func(pr *Proc) {
		if pr.Rank() == 0 {
			pr.Recv(1, 0) // every other rank exits without sending
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("starved rank: err = %v, want deadlock", err)
	}
}

// Concurrent many-rank ring shifts keep their stalled counters apart:
// none reports a false deadlock, and each equals a solo run exactly.
func TestNoFalseDeadlockConcurrentRuns(t *testing.T) {
	const p, rounds, runs = 1024, 8, 4
	m := machine.Hypercube(p, 10, 1)
	solo, err := Run(m, ringProgram(rounds, 16))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(m, ringProgram(rounds, 16))
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(res, solo) {
			t.Fatalf("run %d: result differs from the solo run (Tp %v vs %v)", i, res.Tp, solo.Tp)
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			panic("kaboom")
		}
		p.Recv(0, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic message", err)
	}
}

func TestUnconsumedMessagesReported(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFree(1, 0, []float64{1})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "unconsumed") {
		t.Fatalf("err = %v, want unconsumed message error", err)
	}
}

func TestInvalidRankPanicsAreErrors(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(5, 0, nil) // panics inside the topology distance lookup
		}
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range error", err)
	}
	_, err = Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(-1, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("err = %v, want out-of-range error", err)
	}
}

func TestNegativeComputePanics(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		p.Compute(-1)
	})
	if err == nil || !strings.Contains(err.Error(), "negative compute") {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeChargedSendPanics(t *testing.T) {
	_, err := Run(twoProc(0, 0), func(p *Proc) {
		if p.Rank() == 0 {
			p.ChargedSend(1, 0, nil, -5)
		} else {
			p.Recv(0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "negative send cost") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidMachineRejected(t *testing.T) {
	if _, err := Run(&machine.Machine{}, func(p *Proc) {}); err == nil {
		t.Fatal("Run accepted invalid machine")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	res := &Result{P: 4, Tp: 100}
	if got := res.Overhead(300); got != 100 {
		t.Fatalf("Overhead = %v, want 100", got)
	}
	if got := res.Speedup(300); got != 3 {
		t.Fatalf("Speedup = %v, want 3", got)
	}
	if got := res.Efficiency(300); got != 0.75 {
		t.Fatalf("Efficiency = %v, want 0.75", got)
	}
}

func TestProcAccessors(t *testing.T) {
	m := twoProc(1, 1)
	_, err := Run(m, func(p *Proc) {
		if p.P() != 2 {
			t.Errorf("P() = %d", p.P())
		}
		if p.Machine() != m {
			t.Error("Machine() mismatch")
		}
		if p.Clock() != 0 {
			t.Errorf("initial clock = %v", p.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Determinism: running the same program many times must produce the
// same virtual times regardless of goroutine scheduling.
func TestDeterministicVirtualTime(t *testing.T) {
	prog := func(p *Proc) {
		// Ring shift of 64 words, then a reduction to rank 0.
		next := (p.Rank() + 1) % p.P()
		prev := (p.Rank() + p.P() - 1) % p.P()
		data := make([]float64, 64)
		p.Send(next, 0, data)
		p.Recv(prev, 0)
		p.Compute(float64(p.Rank()))
		if p.Rank() != 0 {
			p.Send(0, 1, []float64{p.Clock()})
		} else {
			for i := 1; i < p.P(); i++ {
				p.Recv(i, 1)
			}
		}
	}
	m := machine.Hypercube(16, 5, 2)
	first, err := Run(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		res, err := Run(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tp != first.Tp {
			t.Fatalf("trial %d: Tp = %v, want %v", trial, res.Tp, first.Tp)
		}
		for i := range res.ProcClocks {
			if res.ProcClocks[i] != first.ProcClocks[i] {
				t.Fatalf("trial %d: clock[%d] differs", trial, i)
			}
		}
	}
}

// A larger smoke test: 512 processors all exchanging with hypercube
// neighbors across every dimension (the communication skeleton of the
// recursive-doubling collectives).
func TestManyProcessorsDimensionExchange(t *testing.T) {
	p := 512
	m := machine.Hypercube(p, 1, 1)
	h := topology.NewHypercube(p)
	res, err := Run(m, func(pr *Proc) {
		for d := 0; d < h.Dim; d++ {
			partner := h.NeighborAcross(pr.Rank(), d)
			got := pr.Exchange(partner, d, []float64{float64(pr.Rank())})
			if got[0] != float64(partner) {
				t.Errorf("rank %d dim %d: got %v", pr.Rank(), d, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 9 synchronized exchange steps of 1 word: Tp = 9·(1+1) = 18.
	if res.Tp != 18 {
		t.Fatalf("Tp = %v, want 18", res.Tp)
	}
}

func TestPerProcessorAccounting(t *testing.T) {
	res, err := Run(twoProc(10, 1), func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(30)
			p.Send(1, 0, []float64{1, 2}) // cost 12
		} else {
			p.Recv(0, 0) // arrives at 42
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcCompute[0] != 30 || res.ProcComm[0] != 12 {
		t.Fatalf("rank 0 accounting: compute=%v comm=%v", res.ProcCompute[0], res.ProcComm[0])
	}
	if res.ProcCompute[1] != 0 || res.ProcComm[1] != 0 {
		t.Fatalf("rank 1 accounting: compute=%v comm=%v", res.ProcCompute[1], res.ProcComm[1])
	}
	// Tp = 42; idle = 2·42 − 30 − 12 = 42 (rank 1 waited the whole run).
	if res.Tp != 42 {
		t.Fatalf("Tp = %v", res.Tp)
	}
	if got := res.IdleTime(); got != 42 {
		t.Fatalf("IdleTime = %v, want 42", got)
	}
}

func TestOverheadDecomposition(t *testing.T) {
	// To = p·Tp − W must equal TotalComm + IdleTime when W equals the
	// total compute performed — the Section 2 decomposition.
	res, err := Run(twoProc(5, 1), func(p *Proc) {
		p.Compute(100)
		other := 1 - p.Rank()
		p.Exchange(other, 0, make([]float64, 8))
		if p.Rank() == 0 {
			p.Compute(50) // imbalance → idle time on rank 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w := res.TotalCompute
	to := res.Overhead(w)
	if diff := to - (res.TotalComm + res.IdleTime()); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("To = %v but comm+idle = %v", to, res.TotalComm+res.IdleTime())
	}
}

func TestSendNeighborSelfIsFree(t *testing.T) {
	res, err := Run(twoProc(100, 100), func(p *Proc) {
		if p.Rank() == 0 {
			p.SendNeighbor(0, 0, []float64{1, 2, 3})
			if got := p.Recv(0, 0); got[1] != 2 {
				t.Errorf("self message lost: %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 0 {
		t.Fatalf("self neighbor-send charged: Tp = %v", res.Tp)
	}
}

func TestSendNeighborDistanceIndependent(t *testing.T) {
	// SendNeighbor charges one hop even between distant ranks — the
	// logical-neighbor contract.
	m := machine.Hypercube(8, 10, 1)
	res, err := Run(m, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.SendNeighbor(7, 0, []float64{1, 2}) // 3 physical hops
		case 7:
			p.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 12 { // one hop: ts + tw·2
		t.Fatalf("Tp = %v, want 12", res.Tp)
	}
}

func TestExchangeNeighborSymmetric(t *testing.T) {
	res, err := Run(twoProc(10, 1), func(p *Proc) {
		got := p.ExchangeNeighbor(1-p.Rank(), 0, []float64{float64(p.Rank())})
		if got[0] != float64(1-p.Rank()) {
			t.Errorf("rank %d got %v", p.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tp != 11 {
		t.Fatalf("Tp = %v, want 11", res.Tp)
	}
}
