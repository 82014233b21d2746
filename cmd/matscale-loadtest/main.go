// Command matscale-loadtest drives a matscale-server with many
// concurrent clients and reports throughput, cache hit rate and tail
// latency. It is the measurement half of the server tentpole: the
// acceptance run (1000 clients, 50% overlap) must complete with zero
// errors and a cache hit rate above 0.4.
//
// By default the driver starts an in-process server on a loopback
// listener so the run is self-contained; -url points it at an
// already-running matscale-server instead.
//
// Overlap model: a fraction `-overlap` of the clients submit sweeps
// drawn round-robin from a small shared pool of `-pool` specs (these
// collide in the cell cache), while the remaining clients each submit
// a unique spec (guaranteed cold misses). Every client verifies that
// its result bytes are identical to those of every other client that
// submitted the same spec — the differential proof that cache hits
// and misses are indistinguishable on the wire.
//
// With -bench the report is emitted in `go test -bench` text format on
// stdout (human summary moves to stderr) so scripts/bench2json can
// merge it into BENCH_pr.json.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"matscale/internal/machine"
	"matscale/internal/server"
	"matscale/internal/sweep"
)

// realClock is the production server.Clock for the in-process server;
// like cmd/matscale-server's, it lives outside the determinism-contract
// packages on purpose.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

type options struct {
	clients     int
	overlap     float64
	pool        int
	url         string
	queue       int
	concurrency int
	jobs        int
	cacheCells  int
	backend     machine.Backend
	watchers    int
	poll        time.Duration
	bench       bool
}

func main() {
	fs := flag.NewFlagSet("matscale-loadtest", flag.ExitOnError)
	clients := fs.Int("clients", 1000, "number of concurrent clients")
	overlap := fs.Float64("overlap", 0.5, "fraction of clients submitting specs from the shared pool [0,1]")
	pool := fs.Int("pool", 4, "number of distinct specs in the shared pool")
	url := fs.String("url", "", "base URL of a running matscale-server (empty = start one in-process)")
	queue := fs.Int("queue", 0, "in-process server queue depth (0 = clients+16)")
	concurrency := fs.Int("concurrency", 0, "in-process server concurrent jobs (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 1, "in-process server sweep workers per job")
	cacheCells := fs.Int("cache", server.DefaultCacheCells, "in-process server cell cache capacity")
	backendName := fs.String("backend", "goroutines", "in-process server backend: goroutines|events")
	watchers := fs.Int("watchers", 64, "clients that follow progress over SSE instead of polling")
	poll := fs.Duration("poll", 10*time.Millisecond, "status poll interval for non-SSE clients")
	bench := fs.Bool("bench", false, "emit the report in go-bench text format on stdout")
	fs.Parse(os.Args[1:])

	backend, err := machine.ParseBackend(*backendName)
	if err != nil {
		log.Fatalf("matscale-loadtest: %v", err)
	}
	opts := options{
		clients:     *clients,
		overlap:     math.Min(1, math.Max(0, *overlap)),
		pool:        max(1, *pool),
		url:         strings.TrimRight(*url, "/"),
		queue:       *queue,
		concurrency: *concurrency,
		jobs:        *jobs,
		cacheCells:  *cacheCells,
		backend:     backend,
		watchers:    *watchers,
		poll:        *poll,
		bench:       *bench,
	}
	if opts.clients < 1 {
		log.Fatal("matscale-loadtest: -clients must be >= 1")
	}

	rep, err := run(opts)
	if err != nil {
		log.Fatalf("matscale-loadtest: %v", err)
	}
	human := os.Stdout
	if opts.bench {
		human = os.Stderr
		fmt.Println(rep.benchText())
	}
	fmt.Fprint(human, rep.humanText())
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// workloadSpec builds the sweep spec for workload w. Distinct w get
// distinct custom-machine cost constants, so both the cache keys and
// the measured results differ between workloads — byte-identity checks
// across workloads would be vacuous otherwise.
func workloadSpec(w int) sweep.Spec {
	return sweep.Spec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"custom"},
		Ts:         17 + float64(w),
		Tw:         3,
		Ps:         []int{16, 64},
		Ns:         []int{16, 32},
		Seed:       1,
	}
}

// workloadOf assigns client i its workload. The first round(overlap *
// clients) clients share the pool round-robin; the rest are unique.
func workloadOf(i int, o options) int {
	shared := int(math.Round(o.overlap * float64(o.clients)))
	if i < shared {
		return i % o.pool
	}
	return o.pool + (i - shared)
}

type report struct {
	Clients int
	Overlap float64
	Pool    int

	Sweeps        int
	Cells         int
	Errors        int
	WallSeconds   float64
	CellsPerSec   float64
	HitRate       float64
	P50, P95, P99 float64

	errSamples []string
}

func (r *report) humanText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "matscale-loadtest: %d clients, overlap %.2f (pool %d)\n",
		r.Clients, r.Overlap, r.Pool)
	fmt.Fprintf(&b, "  sweeps          %d\n", r.Sweeps)
	fmt.Fprintf(&b, "  cells           %d\n", r.Cells)
	fmt.Fprintf(&b, "  wall time       %.3fs\n", r.WallSeconds)
	fmt.Fprintf(&b, "  throughput      %.1f cells/s\n", r.CellsPerSec)
	fmt.Fprintf(&b, "  cache hit rate  %.3f\n", r.HitRate)
	fmt.Fprintf(&b, "  latency p50     %.4fs\n", r.P50)
	fmt.Fprintf(&b, "  latency p95     %.4fs\n", r.P95)
	fmt.Fprintf(&b, "  latency p99     %.4fs\n", r.P99)
	fmt.Fprintf(&b, "  errors          %d\n", r.Errors)
	for _, e := range r.errSamples {
		fmt.Fprintf(&b, "    %s\n", e)
	}
	return b.String()
}

// benchText renders the report as one go-bench line under a synthetic
// package header, the format scripts/bench2json parses.
func (r *report) benchText() string {
	name := fmt.Sprintf("BenchmarkServerLoadtest/clients=%d/overlap=%.2f", r.Clients, r.Overlap)
	return fmt.Sprintf("pkg: matscale/cmd/matscale-loadtest\n"+
		"%s 1 %d ns/op %.1f cells/s %.4f cache_hit_rate %.4f p99_s %d errors",
		name, int64(r.WallSeconds*1e9), r.CellsPerSec, r.HitRate, r.P99, r.Errors)
}

func run(o options) (*report, error) {
	base := o.url
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		depth := o.queue
		if depth <= 0 {
			depth = o.clients + 16
		}
		conc := o.concurrency
		if conc <= 0 {
			conc = runtime.GOMAXPROCS(0)
		}
		srv, err := server.New(server.Config{
			QueueDepth:    depth,
			MaxConcurrent: conc,
			SweepWorkers:  o.jobs,
			CacheCells:    o.cacheCells,
			Backend:       o.backend,
			RetainJobs:    o.clients + 16,
			Clock:         realClock{},
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() {
			hs.Close()
			srv.Shutdown()
		}()
		base = "http://" + ln.Addr().String()
		log.Printf("matscale-loadtest: in-process server on %s (queue %d, concurrency %d)",
			base, depth, conc)
	}

	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
	before, err := fetchStats(hc, base)
	if err != nil {
		return nil, fmt.Errorf("server not reachable at %s: %w", base, err)
	}

	rep := &report{Clients: o.clients, Overlap: o.overlap, Pool: o.pool}
	var (
		mu        sync.Mutex
		latencies = make([]float64, 0, o.clients)
		hashes    = map[int][sha256.Size]byte{} // workload -> first result hash
	)
	fail := func(c int, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		rep.Errors++
		if len(rep.errSamples) < 10 {
			rep.errSamples = append(rep.errSamples,
				fmt.Sprintf("client %d: %s", c, fmt.Sprintf(format, args...)))
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < o.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := workloadOf(i, o)
			t0 := time.Now()
			id, cells, err := submit(hc, base, workloadSpec(w))
			if err != nil {
				fail(i, "submit: %v", err)
				return
			}
			if i < o.watchers {
				err = watchSSE(hc, base, id)
			} else {
				err = pollStatus(hc, base, id, o.poll)
			}
			if err != nil {
				fail(i, "wait %s: %v", id, err)
				return
			}
			body, err := fetchResult(hc, base, id)
			if err != nil {
				fail(i, "result %s: %v", id, err)
				return
			}
			lat := time.Since(t0).Seconds()
			sum := sha256.Sum256(body)
			mu.Lock()
			rep.Sweeps++
			rep.Cells += cells
			latencies = append(latencies, lat)
			first, seen := hashes[w]
			if !seen {
				hashes[w] = sum
			}
			mu.Unlock()
			if seen && first != sum {
				fail(i, "result for workload %d differs from first client's bytes", w)
			}
		}(i)
	}
	wg.Wait()
	rep.WallSeconds = time.Since(start).Seconds()

	after, err := fetchStats(hc, base)
	if err != nil {
		return nil, err
	}
	if rep.WallSeconds > 0 {
		rep.CellsPerSec = float64(rep.Cells) / rep.WallSeconds
	}
	if after.Cache != nil {
		hits, misses := after.Cache.Hits, after.Cache.Misses
		if before.Cache != nil {
			hits -= before.Cache.Hits
			misses -= before.Cache.Misses
		}
		if hits+misses > 0 {
			rep.HitRate = float64(hits) / float64(hits+misses)
		}
	}
	sort.Float64s(latencies)
	rep.P50 = percentile(latencies, 0.50)
	rep.P95 = percentile(latencies, 0.95)
	rep.P99 = percentile(latencies, 0.99)
	return rep, nil
}

// percentile returns the q-quantile of sorted xs (nearest-rank).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func submit(hc *http.Client, base string, spec sweep.Spec) (id string, cells int, err error) {
	payload, err := json.Marshal(map[string]any{"spec": spec})
	if err != nil {
		return "", 0, err
	}
	// Admission rejections (queue_full, rate_limited) are backpressure,
	// not failures: retry with linear backoff before giving up.
	for attempt := 0; ; attempt++ {
		resp, err := hc.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(payload)))
		if err != nil {
			return "", 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
			time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return "", 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		var sr struct {
			ID    string `json:"id"`
			Cells int    `json:"cells"`
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			return "", 0, err
		}
		return sr.ID, sr.Cells, nil
	}
}

// watchSSE follows the job's event stream to its terminal event. The
// server closes the stream after sending "done" or "error", so reading
// to EOF and checking the last event name is the whole protocol.
func watchSSE(hc *http.Client, base, id string) error {
	resp, err := hc.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events status %d", resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = name
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	switch last {
	case "done":
		return nil
	case "error":
		return fmt.Errorf("job failed")
	default:
		return fmt.Errorf("stream ended on %q event", last)
	}
}

func pollStatus(hc *http.Client, base, id string, interval time.Duration) error {
	for {
		resp, err := hc.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch st.State {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("job failed: %s", st.Error)
		}
		time.Sleep(interval)
	}
}

func fetchResult(hc *http.Client, base, id string) ([]byte, error) {
	resp, err := hc.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func fetchStats(hc *http.Client, base string) (*server.Stats, error) {
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
