package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"matscale"
	"matscale/internal/server"
)

// drainGrace bounds how long a run waits, after its last arrival, for
// the remaining jobs to finish before it gives up.
const drainGrace = 60 * time.Second

// service is a running in-process sweep server on a loopback listener,
// with the two HTTP clients of the load generator: one for submits and
// one for control verbs and result fetches, each limited to a single
// connection.
type service struct {
	srv      *matscale.SweepServer
	httpSrv  *http.Server
	served   chan struct{}
	base     string
	ckptDir  string
	submitC  *http.Client
	controlC *http.Client
}

// serviceState is the set-up of service-mixed: the seeded inputs, the
// reference result bytes of every spec and the started server.
type serviceState struct {
	in   serviceInputs
	refs [][]byte
	ran  []int // cells that ran, per spec
	svc  *service
	hm   *hostMulInputs
}

// startService starts a server with the library's default
// configuration, its checkpoints under dir, and warms it up with one
// job per pool spec, which also puts the pool's cells in its cache.
func startService(dir string, st *serviceState) (*service, error) {
	srv, err := matscale.NewSweepServer(matscale.SweepServerConfig{CheckpointDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &service{
		srv:      srv,
		httpSrv:  &http.Server{Handler: srv.Handler()},
		served:   make(chan struct{}),
		base:     "http://" + ln.Addr().String(),
		ckptDir:  dir,
		submitC:  oneConnClient(),
		controlC: oneConnClient(),
	}
	go func() {
		defer close(s.served)
		s.httpSrv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for i := 0; i < poolSpecs; i++ {
		id, err := s.submit(st.in.Specs[i])
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
		j, _ := srv.Job(id)
		<-j.Finished()
		body, err := s.fetch(id)
		if err != nil || !bytes.Equal(body, st.refs[i]) {
			s.stop()
			return nil, fmt.Errorf("warm-up job %s: result differs from reference (%v)", id, err)
		}
	}
	return s, nil
}

// oneConnClient returns an HTTP client that keeps a single connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// stop closes the listener and connections, drains the server and
// removes its checkpoint directory.
func (s *service) stop() {
	s.httpSrv.Close()
	<-s.served
	s.srv.Shutdown()
	s.submitC.CloseIdleConnections()
	s.controlC.CloseIdleConnections()
	os.RemoveAll(s.ckptDir)
}

// submit posts a spec and returns the job ID.
func (s *service) submit(spec *matscale.SweepSpec) (string, error) {
	body, err := json.Marshal(map[string]any{"spec": spec})
	if err != nil {
		return "", err
	}
	resp, err := s.submitC.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(data, &ack); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return ack.ID, nil
}

// fetch returns a finished job's result bytes.
func (s *service) fetch(id string) ([]byte, error) {
	resp, err := s.controlC.Get(s.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// errLate is a verb that arrived after the job left the state it
// applies to — a suspend racing the job's last cell. It is not a
// failure: the job still finishes and is verified.
var errLate = errors.New("verb arrived too late")

// verb posts a job-control verb.
func (s *service) verb(id, verb string) error {
	resp, err := s.controlC.Post(s.base+"/v1/jobs/"+id+"/"+verb, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return errLate
	}
	return fmt.Errorf("%s: %s: %s", verb, resp.Status, bytes.TrimSpace(data))
}

// setupService generates the inputs, computes every spec's reference
// result with a cache-free, never-suspended Sweep, and starts and warms
// up the server. The references run on the event engine: the engines
// are byte-equivalent by contract (docs/BACKENDS.md), the server runs
// on the default goroutine engine, and the event engine computes the
// references three times faster, which keeps set-up short.
func setupService(cfg runConfig, n int) (*serviceState, error) {
	st := &serviceState{in: serviceSchedule(cfg.seed, cfg.seconds)}
	for _, spec := range st.in.Specs {
		res, err := matscale.Sweep(spec, matscale.WithBackend(matscale.Events))
		if err != nil {
			return nil, fmt.Errorf("reference sweep: %w", err)
		}
		var buf bytes.Buffer
		res.WriteJSON(&buf) // bytes.Buffer never errors
		st.refs = append(st.refs, buf.Bytes())
		st.ran = append(st.ran, res.Ran)
	}
	st.hm = newHostMulInputs(cfg.seed)
	svc, err := startService(filepath.Join(cfg.workdir, fmt.Sprintf("ckpt-%d", n)), st)
	if err != nil {
		return nil, err
	}
	st.svc = svc
	return st, nil
}

// jobRec is what the load generator observed of one job. Each field
// has a single writer: the generator, the job's watcher or the
// fetcher; all are read only after the window has drained.
type jobRec struct {
	arr arrival
	id  string
	ok  bool

	due, submitStart, submitEnd time.Time
	running, finished           time.Time
	fetchStart, fetchEnd        time.Time
	verified                    time.Time

	suspendSent, suspended time.Time
	resumeSent, resumedRun time.Time
	suspendLate            bool
	ckptBytes              int64
	failMsg                string
}

// task is one request for the control/fetch client.
type task struct {
	kind string // "suspend", "resume" or "fetch"
	rec  *jobRec
}

// window is the outcome of one open-loop window.
type window struct {
	recs []*jobRec
	// busy is the time from the window's start to its last verified
	// result, summed over the slices of a window run in slices.
	busy      time.Duration
	maxQueued int
	hits      int // cache hits during the window
	lookups   int // cache lookups during the window
	rejected  int
}

// runSegment drives one open-loop window over the arrivals arrs, whose
// due times are offset from the start of the schedule, against
// st.svc: the calling goroutine submits every arrival at its due time;
// a second goroutine sends control verbs (first) and fetches and
// verifies results; one blocked watcher per job turns its progress
// stream into timestamps and tasks. It returns once every job has been
// verified or has failed.
func runSegment(st *serviceState, t *tally, arrs []arrival, offset time.Duration) (*window, error) {
	svc := st.svc
	w := &window{recs: make([]*jobRec, len(arrs))}
	control := make(chan task, 2*len(arrs)) // at most a suspend and a resume per job
	fetches := make(chan task, len(arrs))   // one fetch per job
	var fetcherDone sync.WaitGroup
	fetcherDone.Add(1)
	go func() {
		defer fetcherDone.Done()
		st.serveTasks(control, fetches)
	}()

	before := svc.srv.Stats()
	var watchers sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, a := range arrs {
		r := &jobRec{arr: a, due: start.Add(a.Due - offset)}
		w.recs[i] = r
		time.Sleep(time.Until(r.due))
		r.submitStart = time.Now()
		id, err := svc.submit(st.in.Specs[a.Spec])
		r.submitEnd = time.Now()
		if err != nil {
			r.failMsg = err.Error()
			continue
		}
		r.id = id
		j, ok := svc.srv.Job(id)
		if !ok {
			r.failMsg = "submitted job " + id + " unknown to the server"
			continue
		}
		events, cancel := j.Subscribe()
		if j.State() != matscale.JobQueued {
			r.running = time.Now() // started before the subscription
		}
		w.maxQueued = max(w.maxQueued, svc.srv.Stats().Queued)
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			defer cancel()
			st.watch(r, events, control)
			fetches <- task{kind: "fetch", rec: r}
		}()
	}

	drained := make(chan struct{})
	go func() {
		watchers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainGrace):
		return nil, fmt.Errorf("jobs still unfinished %v after the last arrival", drainGrace)
	}
	close(fetches)
	fetcherDone.Wait()

	after := svc.srv.Stats()
	if before.Cache != nil && after.Cache != nil {
		w.hits = after.Cache.Hits - before.Cache.Hits
		w.lookups = w.hits + after.Cache.Misses - before.Cache.Misses
	}
	w.rejected = after.RejectedQueue + after.RejectedRate + after.RejectedSpec -
		before.RejectedQueue - before.RejectedRate - before.RejectedSpec

	for _, r := range w.recs {
		t.attempted++
		if !r.ok {
			t.fail(1, "job %d (%s): %s", r.arr.Spec, r.id, r.failMsg)
		}
		if r.ok && r.verified.Sub(start) > w.busy {
			w.busy = r.verified.Sub(start)
		}
	}
	return w, nil
}

// add appends segment s to w: its jobs, its busy time and its server
// counters.
func (w *window) add(s *window) {
	w.recs = append(w.recs, s.recs...)
	w.busy += s.busy
	w.maxQueued = max(w.maxQueued, s.maxQueued)
	w.hits += s.hits
	w.lookups += s.lookups
	w.rejected += s.rejected
}

// watch follows one job's event stream until the job finishes,
// recording when it started running, asking for its suspension after
// the first progress event when the schedule says so, and asking for
// its resumption once it is suspended.
func (st *serviceState) watch(r *jobRec, events <-chan server.Event, control chan<- task) {
	asked := false
	for ev := range events {
		now := time.Now()
		switch {
		case ev.Type == "state" && ev.State == "running":
			if r.running.IsZero() {
				r.running = now
			} else if !r.suspended.IsZero() && r.resumedRun.IsZero() {
				r.resumedRun = now
			}
		case ev.Type == "state" && ev.State == "suspended":
			r.suspended = now
			if fi, err := os.Stat(filepath.Join(st.svc.ckptDir, r.id+".ckpt")); err == nil {
				r.ckptBytes = fi.Size()
			}
			control <- task{kind: "resume", rec: r}
		case ev.Type == "progress" && r.arr.Suspend && !asked:
			asked = true
			control <- task{kind: "suspend", rec: r}
		}
	}
	r.finished = time.Now()
}

// serveTasks runs the second client: control verbs take priority over
// result fetches, so a suspension lands while the job still has cells
// to run.
func (st *serviceState) serveTasks(control chan task, fetches <-chan task) {
	for {
		select {
		case c := <-control:
			st.do(c)
			continue
		default:
		}
		select {
		case c := <-control:
			st.do(c)
		case f, ok := <-fetches:
			if !ok {
				for {
					select {
					case c := <-control:
						st.do(c)
					default:
						return
					}
				}
			}
			st.do(f)
		}
	}
}

func (st *serviceState) do(c task) {
	r := c.rec
	switch c.kind {
	case "suspend":
		r.suspendSent = time.Now()
		if err := st.svc.verb(r.id, "suspend"); errors.Is(err, errLate) {
			r.suspendLate = true
		} else if err != nil {
			r.failMsg = err.Error()
		}
	case "resume":
		r.resumeSent = time.Now()
		if err := st.svc.verb(r.id, "resume"); err != nil {
			// A refused resume (a full queue) leaves the job suspended;
			// cancel it so that its watcher ends, and count it failed.
			r.failMsg = err.Error()
			st.svc.verb(r.id, "cancel")
		}
	case "fetch":
		if r.failMsg != "" {
			return
		}
		r.fetchStart = time.Now()
		body, err := st.svc.fetch(r.id)
		r.fetchEnd = time.Now()
		switch {
		case err != nil:
			r.failMsg = err.Error()
		case !bytes.Equal(body, st.refs[r.arr.Spec]):
			r.failMsg = "result bytes differ from the reference sweep"
		default:
			r.verified = time.Now()
			r.ok = true
		}
	}
}

// subWindows is the number of equal time slices a window's job
// latencies are split into; the latency percentiles are the medians of
// the slices' percentiles, so a burst of load from outside the
// benchmark moves one slice, not the reported value.
const subWindows = 6

// sliceLatencies returns the due-to-verified latency of every verified
// job in seconds, grouped by the slice of the window it was due in.
func (w *window) sliceLatencies(length time.Duration) [][]float64 {
	out := make([][]float64, subWindows)
	for _, r := range w.recs {
		if r.ok {
			k := min(int(int64(r.arr.Due)*subWindows/int64(length)), subWindows-1)
			out[k] = append(out[k], r.verified.Sub(r.due).Seconds())
		}
	}
	return out
}

// latencies returns the due-to-verified latency of every verified job,
// in seconds.
func (w *window) latencies() []float64 {
	var out []float64
	for _, r := range w.recs {
		if r.ok {
			out = append(out, r.verified.Sub(r.due).Seconds())
		}
	}
	return out
}

// endToEnd derives the window's end-to-end metrics and the job
// latencies the traced run reports as loadgen.job_p50_ms and
// loadgen.job_p95_ms.
func (w *window) endToEnd(st *serviceState, length time.Duration) metricSet {
	ms := metricSet{}
	var p50, p95 []float64
	for _, lat := range w.sliceLatencies(length) {
		if len(lat) > 0 {
			p50 = append(p50, Median(lat))
			p95 = append(p95, tailOf(lat))
		}
	}
	if len(p50) == 0 {
		return ms
	}
	jobs, cells := 0, 0
	for _, r := range w.recs {
		if r.ok {
			jobs++
			cells += st.ran[r.arr.Spec]
		}
	}
	span := w.busy.Seconds()
	ms["loadgen.job_p50_ms"] = Median(p50) * 1e3
	ms["loadgen.job_p95_ms"] = Median(p95) * 1e3
	ms["jobs_per_s"] = float64(jobs) / span
	ms["cells_per_s"] = float64(cells) / span
	return ms
}

// serviceEndToEnd measures service-mixed: the open-loop window cut
// into serviceSegments equal slices of the schedule, each run from a
// collected heap on the same server and drained before the next, with
// a phase of the HostMul calls every workload makes before each slice
// and after the last. Between slices the server is idle, so the calls
// do not contend with jobs, and they sample the machine's speed over
// the whole run rather than at its two ends.
func serviceEndToEnd(cfg runConfig, t *tally) (metricSet, map[string]Summary, error) {
	n := 0
	st, setups, err := timeSetups(func() (*serviceState, error) {
		n++
		return setupService(cfg, n)
	}, func(s *serviceState) { s.svc.stop() })
	if err != nil {
		return nil, nil, err
	}
	length := time.Duration(cfg.seconds) * time.Second
	w := &window{}
	var muls []float64
	arrs := st.in.Arrivals
	for k := 0; k < serviceSegments; k++ {
		muls = append(muls, st.hm.hostMulPhase(t, serviceHostMuls)...)
		offset := length * time.Duration(k) / serviceSegments
		end := length * time.Duration(k+1) / serviceSegments
		i := 0
		for i < len(arrs) && (arrs[i].Due < end || k == serviceSegments-1) {
			i++
		}
		runtime.GC()
		seg, err := runSegment(st, t, arrs[:i], offset)
		if err != nil {
			st.svc.stop()
			return nil, nil, err
		}
		w.add(seg)
		arrs = arrs[i:]
	}
	st.svc.stop()
	ms := w.endToEnd(st, length)
	muls = append(muls, st.hm.hostMulPhase(t, serviceHostMuls)...)
	ms["hostmul_gflops"] = hostMulGflops(muls)
	ms["setup_s"] = Median(setups)
	return ms, map[string]Summary{"job_s": Summarize(w.latencies()), "hostmul_s": Summarize(muls), "setup_s": Summarize(setups)}, nil
}

// tracedService runs two windows on fresh servers with the same
// schedule: one plain, one whose jobs are turned into spans. Their job
// p50 difference is the tracing overhead; the traced window gives the
// server, checkpoint and load-generator metrics.
func tracedService(cfg runConfig, st *serviceState, ms metricSet, t *tally, rec *Recorder, parent int) error {
	plain, err := runSegment(st, t, st.in.Arrivals, 0)
	st.svc.stop()
	if err != nil {
		return err
	}
	if st.svc, err = startService(filepath.Join(cfg.workdir, "ckpt-traced"), st); err != nil {
		return err
	}
	w, err := runSegment(st, t, st.in.Arrivals, 0)
	st.svc.stop()
	if err != nil {
		return err
	}
	w.record(rec, parent)
	length := time.Duration(cfg.seconds) * time.Second
	u, tr := plain.endToEnd(st, length), w.endToEnd(st, length)
	if u["loadgen.job_p50_ms"] > 0 {
		ms["trace.overhead_frac"] = tr["loadgen.job_p50_ms"]/u["loadgen.job_p50_ms"] - 1
	}
	ms["loadgen.job_p50_ms"] = u["loadgen.job_p50_ms"]
	ms["loadgen.job_p95_ms"] = u["loadgen.job_p95_ms"]
	w.perLayer(ms, st)
	return nil
}

// record turns every job of the window into spans: a root span from
// the job's due time to its verified result, with the submit, queue,
// run, suspend, resume and fetch phases as children.
func (w *window) record(rec *Recorder, parent int) {
	for _, r := range w.recs {
		if !r.ok {
			continue
		}
		root := rec.Add("job", "loadgen", r.id, parent, r.due, r.verified)
		rec.Add("POST /v1/jobs", "server", r.id, root, r.submitStart, r.submitEnd)
		rec.Add("queue", "server", r.id, root, r.submitEnd, r.running)
		rec.Add("run", "sweep", r.id, root, r.running, r.finished)
		if !r.suspended.IsZero() {
			rec.Add("suspend", "checkpoint", r.id, root, r.suspendSent, r.suspended)
		}
		if !r.resumedRun.IsZero() {
			rec.Add("resume", "checkpoint", r.id, root, r.resumeSent, r.resumedRun)
		}
		rec.Add("GET result", "server", r.id, root, r.fetchStart, r.fetchEnd)
	}
}

// perLayer derives the server, checkpoint and load-generator metrics
// of a window.
func (w *window) perLayer(ms metricSet, st *serviceState) {
	var submit, queue, runHit, runMiss, fetch, suspend, resume, ckpt, lag []float64
	ms2 := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, r := range w.recs {
		lag = append(lag, ms2(r.submitStart.Sub(r.due)))
		if !r.ok {
			continue
		}
		submit = append(submit, ms2(r.submitEnd.Sub(r.submitStart)))
		queue = append(queue, ms2(max(0, r.running.Sub(r.submitEnd))))
		fetch = append(fetch, ms2(r.fetchEnd.Sub(r.fetchStart)))
		switch {
		case !r.suspended.IsZero():
			suspend = append(suspend, ms2(r.suspended.Sub(r.suspendSent)))
			ckpt = append(ckpt, float64(r.ckptBytes))
			if !r.resumedRun.IsZero() {
				resume = append(resume, ms2(r.resumedRun.Sub(r.resumeSent)))
			}
		case r.arr.Spec < poolSpecs:
			runHit = append(runHit, ms2(r.finished.Sub(r.running)))
		case !r.arr.Suspend:
			runMiss = append(runMiss, ms2(r.finished.Sub(r.running)))
		}
	}
	ms["server.submit_ms.p50"] = Median(submit)
	ms["server.submit_ms.p95"] = PercentileOf(submit, 95)
	ms["server.queue_wait_ms.p50"] = Median(queue)
	ms["server.queue_wait_ms.p95"] = PercentileOf(queue, 95)
	ms["server.run_ms.hit.p50"] = Median(runHit)
	ms["server.run_ms.miss.p50"] = Median(runMiss)
	ms["server.fetch_ms.p50"] = Median(fetch)
	if w.lookups > 0 {
		ms["server.cache_hit_ratio"] = float64(w.hits) / float64(w.lookups)
	}
	ms["server.max_queued"] = float64(w.maxQueued)
	ms["server.rejected"] = float64(w.rejected)
	ms["checkpoint.suspend_ms.p50"] = Median(suspend)
	ms["checkpoint.resume_ms.p50"] = Median(resume)
	ms["checkpoint.bytes.p50"] = Median(ckpt)
	ms["loadgen.lag_ms.p95"] = PercentileOf(lag, 95)
	if n := len(st.in.Arrivals); n > 1 {
		first, last := st.in.Arrivals[0].Due, st.in.Arrivals[n-1].Due
		ms["loadgen.offered_jobs_per_s"] = float64(n-1) / (last - first).Seconds()
	}
}
