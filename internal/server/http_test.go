package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// httpServer spins up a Server behind httptest and tears both down
// with the test.
func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return s, ts
}

// submitHTTP posts a spec and returns the decoded acknowledgment.
func submitHTTP(t *testing.T, base string, body string) SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var ack SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// awaitDone polls the status endpoint until the job is terminal.
func awaitDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

// fetchResult GETs a completed job's result bytes.
func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, b)
	}
	return b
}

const specJSON = `{"spec":{"algorithms":["cannon","gk"],"machines":["custom"],"ts":17,"tw":3,"ps":[16,64],"ns":[16,32],"seed":1}}`

// TestHTTPCacheHitByteIdenticalToMiss is the differential proof the
// acceptance criteria name: the same canonical (spec, seed, backend)
// submitted twice — a cold miss and then a full cache hit — must
// produce byte-identical /result responses. Run under -race by the CI
// race job.
func TestHTTPCacheHitByteIdenticalToMiss(t *testing.T) {
	s, ts := httpServer(t, Config{SweepWorkers: 2})

	ack1 := submitHTTP(t, ts.URL, specJSON)
	if st := awaitDone(t, ts.URL, ack1.ID); st.State != "done" {
		t.Fatalf("job 1: %+v", st)
	}
	cold := fetchResult(t, ts.URL, ack1.ID)
	miss := s.Stats().Cache.Misses
	if miss == 0 {
		t.Fatal("cold run recorded no cache misses")
	}

	ack2 := submitHTTP(t, ts.URL, specJSON)
	if ack2.ID == ack1.ID {
		t.Fatal("second submission reused the job ID")
	}
	if st := awaitDone(t, ts.URL, ack2.ID); st.State != "done" {
		t.Fatalf("job 2: %+v", st)
	}
	hot := fetchResult(t, ts.URL, ack2.ID)

	if !bytes.Equal(cold, hot) {
		t.Fatalf("cache-hit response differs from cold-miss response:\ncold: %d bytes\nhot:  %d bytes", len(cold), len(hot))
	}
	st := s.Stats()
	if st.Cache.Hits != ack1.Cells {
		t.Fatalf("second run should hit every cell: %+v", st.Cache)
	}
	if st.Cache.Misses != miss {
		t.Fatalf("second run added misses: %+v", st.Cache)
	}
	// Refetching an already-served result is also stable.
	if again := fetchResult(t, ts.URL, ack1.ID); !bytes.Equal(cold, again) {
		t.Fatal("refetched result differs")
	}
}

// TestHTTPCacheSharedAcrossServers proves the cache key is canonical
// beyond one process's lifetime: a second server sharing the first's
// cache serves the identical bytes without recomputing.
func TestHTTPCacheSharedAcrossServers(t *testing.T) {
	shared := NewLRUCache(1024)
	_, ts1 := httpServer(t, Config{SweepWorkers: 2, Cache: shared})
	ack1 := submitHTTP(t, ts1.URL, specJSON)
	awaitDone(t, ts1.URL, ack1.ID)
	cold := fetchResult(t, ts1.URL, ack1.ID)

	before := shared.Stats()
	_, ts2 := httpServer(t, Config{SweepWorkers: 2, Cache: shared})
	ack2 := submitHTTP(t, ts2.URL, specJSON)
	awaitDone(t, ts2.URL, ack2.ID)
	hot := fetchResult(t, ts2.URL, ack2.ID)

	if !bytes.Equal(cold, hot) {
		t.Fatal("second server's cache-hit response differs")
	}
	after := shared.Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits+ack1.Cells {
		t.Fatalf("second server recomputed: before %+v after %+v", before, after)
	}
}

func TestHTTPConcurrentClients(t *testing.T) {
	_, ts := httpServer(t, Config{MaxConcurrent: 4, SweepWorkers: 1, QueueDepth: 64})
	const clients = 12
	results := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON))
			if err != nil {
				errs[i] = err
				return
			}
			var ack SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			for {
				r, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID)
				if err != nil {
					errs[i] = err
					return
				}
				var st Status
				err = json.NewDecoder(r.Body).Decode(&st)
				r.Body.Close()
				if err != nil {
					errs[i] = err
					return
				}
				if st.State == "failed" {
					errs[i] = fmt.Errorf("job failed: %s", st.Error)
					return
				}
				if st.State == "done" {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			r, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/result")
			if err != nil {
				errs[i] = err
				return
			}
			results[i], err = io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
}

func TestHTTPSSEStreamsProgressAndDone(t *testing.T) {
	// Gate the first cell so the subscription provably attaches while
	// the job is still running; release once the stream is open.
	gate := newBlockingCache()
	_, ts := httpServer(t, Config{MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	ack := submitHTTP(t, ts.URL, specJSON)
	<-gate.entered
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var events []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	released := false
	for sc.Scan() { // the server closes the stream after the terminal event
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if !released && line == "" { // first frame arrived; let the sweep run
			released = true
			close(gate.release)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("events = %v, want trailing done", events)
	}
	if events[0] != "state" {
		t.Fatalf("stream must open with a state snapshot, got %v", events)
	}
	progress := 0
	for _, e := range events {
		if e == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("no progress events in %v", events)
	}
	var final Event
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if final.Done != ack.Cells || final.Total != ack.Cells {
		t.Fatalf("terminal event = %+v, want %d/%d cells", final, ack.Cells, ack.Cells)
	}
	// A late subscriber gets the terminal event immediately.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(late), "event: done") {
		t.Fatalf("late subscription missing terminal event:\n%s", late)
	}
}

func TestHTTPSSEOutlivesReadTimeout(t *testing.T) {
	// An http.Server ReadTimeout must not cut an event stream whose job
	// runs longer than it: the stream still ends with its "done" event.
	const readTimeout = 100 * time.Millisecond
	gate := newBlockingCache()
	s, err := New(Config{MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadTimeout = readTimeout
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	ack := submitHTTP(t, ts.URL, specJSON)
	<-gate.entered
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last string
	sc := bufio.NewScanner(resp.Body)
	released := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			last = strings.TrimPrefix(line, "event: ")
		}
		if !released && line == "" { // first frame arrived; outlast the timeout
			released = true
			time.Sleep(3 * readTimeout)
			close(gate.release)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last != "done" {
		t.Fatalf("last event = %q, want done", last)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, ts := httpServer(t, Config{SweepWorkers: 1})

	get := func(path string) (int, apiError) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ae
	}

	if code, ae := get("/v1/jobs/nope"); code != http.StatusNotFound || ae.Kind != "unknown_job" {
		t.Fatalf("unknown job: %d %+v", code, ae)
	}
	if code, ae := get("/v1/jobs/nope/result"); code != http.StatusNotFound || ae.Kind != "unknown_job" {
		t.Fatalf("unknown result: %d %+v", code, ae)
	}
	if code, ae := get("/v1/jobs/nope/events"); code != http.StatusNotFound || ae.Kind != "unknown_job" {
		t.Fatalf("unknown events: %d %+v", code, ae)
	}
	// The pre-redesign /v1/sweeps routes are gone.
	gone, err := http.Get(ts.URL + "/v1/sweeps/x")
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/sweeps/x: %d, want 404", gone.StatusCode)
	}

	post := func(body string) (int, apiError) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ae
	}

	if code, ae := post(`{not json`); code != http.StatusBadRequest || ae.Kind != "bad_request" {
		t.Fatalf("malformed body: %d %+v", code, ae)
	}
	if code, ae := post(`{"spec":{"algorithms":["nope"],"machines":["ncube2"],"ps":[16],"ns":[16]}}`); code != http.StatusBadRequest || ae.Kind != "bad_spec" {
		t.Fatalf("bad spec: %d %+v", code, ae)
	}
	if code, ae := post(`{"spec":{"algorithms":["gk"],"machines":["ncube2"],"ps":[16],"ns":[16]},"backend":"abacus"}`); code != http.StatusBadRequest || ae.Kind != "bad_request" {
		t.Fatalf("bad backend: %d %+v", code, ae)
	}
	huge := `{"spec":{"algorithms":["` + strings.Repeat("a", maxSubmitBytes) + `"]}}`
	if code, ae := post(huge); code != http.StatusBadRequest || ae.Kind != "bad_request" || !strings.Contains(ae.Error, "too large") {
		t.Fatalf("oversize body: %d %+v", code, ae)
	}

	// Health and stats endpoints answer.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	var st Stats
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.QueueDepth != DefaultQueueDepth {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHTTPResultNotDone exercises the 409 path with a job stalled
// behind a gated cache.
func TestHTTPResultNotDone(t *testing.T) {
	gate := newBlockingCache()
	_, ts := httpServer(t, Config{MaxConcurrent: 1, SweepWorkers: 1, Cache: gate})
	ack := submitHTTP(t, ts.URL, specJSON)
	<-gate.entered
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || ae.Kind != "not_done" {
		t.Fatalf("unfinished result: %d %+v", resp.StatusCode, ae)
	}
	close(gate.release)
	awaitDone(t, ts.URL, ack.ID)
}

// TestHTTPBackendSelection runs the same spec on both engines and —
// backend equivalence — expects identical cells.
func TestHTTPBackendSelection(t *testing.T) {
	_, ts := httpServer(t, Config{SweepWorkers: 2})
	goro := submitHTTP(t, ts.URL, `{"spec":{"algorithms":["cannon"],"machines":["ncube2"],"ps":[16],"ns":[16]},"backend":"goroutines"}`)
	events := submitHTTP(t, ts.URL, `{"spec":{"algorithms":["cannon"],"machines":["ncube2"],"ps":[16],"ns":[16]},"backend":"events"}`)
	awaitDone(t, ts.URL, goro.ID)
	awaitDone(t, ts.URL, events.ID)
	var a, b struct {
		Cells json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(fetchResult(t, ts.URL, goro.ID), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fetchResult(t, ts.URL, events.ID), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Cells, b.Cells) {
		t.Fatalf("backends disagree:\n%s\n%s", a.Cells, b.Cells)
	}
}
