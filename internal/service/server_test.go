package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asiccloud/internal/core"
	"asiccloud/internal/obs"
	"asiccloud/internal/tco"
)

// newTestService builds a server (and its HTTP front end) whose sweep
// execution can be scripted: a non-nil explore replaces the engine so
// tests control exactly when jobs block, fail, or finish.
func newTestService(t *testing.T, cfg Config,
	explore func(ctx context.Context, sweep core.Sweep, model tco.Model) (core.Result, error),
) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg, obs.NewRecorder())
	if explore != nil {
		s.explore = explore
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postSweep submits a request body and decodes the status reply.
func postSweep(t *testing.T, ts *httptest.Server, body string) (StatusJSON, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusJSON
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	}
	return st, resp.StatusCode
}

// get fetches a path and returns code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// await polls a job until it reaches a terminal state.
func await(t *testing.T, ts *httptest.Server, id string) StatusJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, b := get(t, ts, "/v1/sweeps/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: %d %s", code, b)
		}
		var st StatusJSON
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return StatusJSON{}
}

// tinySweep is a real bitcoin sweep small enough for unit tests.
const tinySweep = `{"app":"bitcoin","sweep":{"voltages_v":[0.6],"silicon_per_lane_mm2":[30,50],"chips_per_lane":[1,2]}}`

func TestSubmitPollResultAndCacheHit(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1}, nil)

	st, code := postSweep(t, ts, tinySweep)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	if st.Cached {
		t.Fatal("first submission claims cached")
	}
	fin := await(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job state = %s (%s)", fin.State, fin.Error)
	}
	if fin.GeometriesDone == 0 || fin.GeometriesDone != fin.GeometriesTotal {
		t.Fatalf("progress = %d/%d, want complete and non-zero", fin.GeometriesDone, fin.GeometriesTotal)
	}
	code, first := get(t, ts, "/v1/sweeps/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d %s", code, first)
	}
	var res ResultJSON
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("result not valid JSON: %v", err)
	}
	if res.App != "bitcoin" || len(res.Frontier) == 0 {
		t.Fatalf("result app=%q frontier=%d", res.App, len(res.Frontier))
	}

	// Same request again: served from cache, byte-identical.
	st2, code := postSweep(t, ts, tinySweep)
	if code != http.StatusOK {
		t.Fatalf("second POST = %d, want 200 (cache hit)", code)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("second POST state=%s cached=%v", st2.State, st2.Cached)
	}
	if st2.RequestHash != st.RequestHash {
		t.Fatalf("hashes differ: %s vs %s", st2.RequestHash, st.RequestHash)
	}
	_, second := get(t, ts, "/v1/sweeps/"+st2.ID+"/result")
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit served different bytes than the original result")
	}
	if hits, misses := s.cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits, %d misses; want 1, 1", hits, misses)
	}

	// The counters are visible on /metrics for operators.
	_, metrics := get(t, ts, "/metrics")
	for _, want := range []string{"asiccloud_cache_hits_total 1", "asiccloud_cache_misses_total 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestCancelMidSweep(t *testing.T) {
	started := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1},
		func(ctx context.Context, _ core.Sweep, _ tco.Model) (core.Result, error) {
			close(started)
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		})
	st, code := postSweep(t, ts, `{"app":"bitcoin"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	fin := await(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s)", fin.State, fin.Error)
	}
	code, body := get(t, ts, "/v1/sweeps/"+st.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of canceled job = %d %s, want 409", code, body)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1},
		func(ctx context.Context, _ core.Sweep, _ tco.Model) (core.Result, error) {
			select {
			case <-release:
				return core.Result{}, nil
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			}
		})
	defer close(release)

	blocker, _ := postSweep(t, ts, `{"app":"bitcoin"}`)
	queued, _ := postSweep(t, ts, `{"app":"litecoin"}`)
	_ = blocker

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st StatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCanceled {
		t.Fatalf("queued job after DELETE = %s, want canceled immediately", st.State)
	}
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1},
		func(ctx context.Context, _ core.Sweep, _ tco.Model) (core.Result, error) {
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		})
	st, _ := postSweep(t, ts, `{"app":"bitcoin","timeout_seconds":0.05}`)
	fin := await(t, ts, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("timed-out job = %s, want failed", fin.State)
	}
	code, _ := get(t, ts, "/v1/sweeps/"+st.ID+"/result")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("result of failed job = %d, want 422", code)
	}
}

// TestHugeTimeoutIsClamped: a timeout_seconds whose nanosecond count
// overflows int64 is clamped to MaxTimeout like any other large value,
// so the job runs instead of failing on an already-expired deadline.
func TestHugeTimeoutIsClamped(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, CacheEntries: -1}, nil)
	for _, secs := range []string{"1e10", "1e300"} {
		body := strings.TrimSuffix(tinySweep, "}") + `,"timeout_seconds":` + secs + "}"
		st, code := postSweep(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("timeout_seconds %s: POST = %d, want 202", secs, code)
		}
		if fin := await(t, ts, st.ID); fin.State != StateDone {
			t.Errorf("timeout_seconds %s: job = %s (%s), want done", secs, fin.State, fin.Error)
		}
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestService(t, Config{Workers: 1},
		func(ctx context.Context, _ core.Sweep, _ tco.Model) (core.Result, error) {
			close(started)
			select {
			case <-release:
				return core.Result{}, nil
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			}
		})
	st, _ := postSweep(t, ts, `{"app":"bitcoin"}`)
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining...
	if _, code := postSweep(t, ts, `{"app":"litecoin"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", code)
	}
	// ...but the in-flight job is allowed to finish.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	fin := await(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("in-flight job after drain = %s (%s), want done", fin.State, fin.Error)
	}
	if code, _ := get(t, ts, "/v1/sweeps/"+st.ID+"/result"); code != http.StatusOK {
		t.Fatalf("result after drain = %d", code)
	}
}

func TestShutdownGraceExpiryCancelsInFlight(t *testing.T) {
	started := make(chan struct{})
	s, ts := newTestService(t, Config{Workers: 1},
		func(ctx context.Context, _ core.Sweep, _ tco.Model) (core.Result, error) {
			close(started)
			<-ctx.Done() // never finishes voluntarily
			return core.Result{}, ctx.Err()
		})
	st, _ := postSweep(t, ts, `{"app":"bitcoin"}`)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil although the job could not drain")
	}
	// The pool is idle after Shutdown returns, so the job is terminal.
	fin := await(t, ts, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("hard-canceled job = %s, want failed", fin.State)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 1},
		func(ctx context.Context, _ core.Sweep, _ tco.Model) (core.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return core.Result{}, ctx.Err()
		})
	defer close(release)

	// First job occupies the worker; second fills the queue. Distinct
	// sweeps keep the cache out of the picture.
	if _, code := postSweep(t, ts, `{"app":"bitcoin"}`); code != http.StatusAccepted {
		t.Fatalf("first POST = %d", code)
	}
	// The worker may not have dequeued the first job yet, so the queue
	// can reject as early as the second POST; accept either split.
	_, code2 := postSweep(t, ts, `{"app":"litecoin"}`)
	_, code3 := postSweep(t, ts, `{"app":"xcode"}`)
	if code3 != http.StatusServiceUnavailable &&
		!(code2 == http.StatusServiceUnavailable && code3 == http.StatusAccepted) {
		t.Fatalf("POSTs 2,3 = %d,%d; want a 503 once the queue is full", code2, code3)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1}, nil)
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed json": {`{app:`, http.StatusBadRequest},
		"unknown field":  {`{"app":"bitcoin","bogus":1}`, http.StatusBadRequest},
		"trailing value": {`{"app":"bitcoin"} {"app":"xcode"}`, http.StatusBadRequest},
		"unknown app":    {`{"app":"quantum"}`, http.StatusBadRequest},
		"cnn":            {`{"app":"cnn"}`, http.StatusBadRequest},
		"neg timeout":    {`{"app":"bitcoin","timeout_seconds":-1}`, http.StatusBadRequest},
	} {
		if _, code := postSweep(t, ts, tc.body); code != tc.want {
			t.Errorf("%s: POST = %d, want %d", name, code, tc.want)
		}
	}
	if code, _ := get(t, ts, "/v1/sweeps/nope"); code != http.StatusNotFound {
		t.Errorf("unknown id status = %d", code)
	}
	if code, _ := get(t, ts, "/v1/sweeps/nope/result"); code != http.StatusNotFound {
		t.Errorf("unknown id result = %d", code)
	}
	if code, _ := get(t, ts, "/v1/nothing"); code != http.StatusNotFound {
		t.Errorf("unknown endpoint = %d", code)
	}
}

func TestHealthzAndList(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1}, nil)
	code, body := get(t, ts, "/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", code, body)
	}
	st, _ := postSweep(t, ts, tinySweep)
	await(t, ts, st.ID)
	code, body = get(t, ts, "/v1/sweeps")
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	var list struct {
		Jobs []StatusJSON `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
}

func TestConcurrentSubmissionsShareTheCache(t *testing.T) {
	// Hammer the same sweep from many goroutines: exactly the jobs that
	// miss run on the engine; everything is race-free under -race.
	s, ts := newTestService(t, Config{Workers: 2}, nil)
	const n = 8
	ids := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			st, code := postSweep(t, ts, tinySweep)
			if code != http.StatusOK && code != http.StatusAccepted {
				ids <- fmt.Sprintf("error:%d", code)
				return
			}
			ids <- st.ID
		}()
	}
	var results [][]byte
	for i := 0; i < n; i++ {
		id := <-ids
		if strings.HasPrefix(id, "error:") {
			t.Fatal(id)
		}
		fin := await(t, ts, id)
		if fin.State != StateDone {
			t.Fatalf("job %s = %s (%s)", id, fin.State, fin.Error)
		}
		_, body := get(t, ts, "/v1/sweeps/"+id+"/result")
		results = append(results, body)
	}
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatal("concurrent submissions of one sweep returned different bytes")
		}
	}
	hits, misses := s.cache.Stats()
	if hits+misses != n {
		t.Fatalf("lookups = %d, want %d", hits+misses, n)
	}
	// All n submissions can race past the cache before the first result
	// lands, so anywhere from 1 to n misses is legal; byte-identity above
	// is the property that must hold regardless.
	if misses < 1 {
		t.Fatalf("misses = %d, want at least 1", misses)
	}
}
