package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"threadsched/internal/fault"
	"threadsched/internal/harness"
	"threadsched/internal/obs"
)

// testHarness is the smallest geometry that still exercises every
// kernel: the suite (and the race gate) runs hundreds of these jobs.
func testHarness() harness.Config {
	c := harness.Quick()
	c.MatmulN = 64
	c.SORN = 101
	c.SORIters = 4
	c.PDEN = 65
	c.PDEIters = 2
	c.NBodyN = 500
	c.NBodySteps = 1
	return c
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Harness.MatmulN == 0 {
		cfg.Harness = testHarness()
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, Status, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("bad submit response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, resp.Header
}

func waitJob(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/wait?timeout_ms=60000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeLifecycle is the end-to-end daemon test: submit over HTTP,
// poll, wait, check the result against a direct harness run, scrape
// metrics and health.
func TestServeLifecycle(t *testing.T) {
	o := obs.New(4)
	s := testServer(t, Config{Workers: 2, Obs: o})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, _ := postJob(t, ts, `{"kind":"matmul","variant":"threaded"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("submit status: %+v", st)
	}
	st = waitJob(t, ts, st.ID)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("wait: %+v", st)
	}
	direct, err := testHarness().RunJob(context.Background(), harness.JobSpec{Kind: harness.JobMatmul, Variant: "threaded"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Instructions != direct.Instructions || st.Result.L1Misses != direct.Summary.L1Misses {
		t.Fatalf("served result differs from direct run:\n served %+v\n direct %+v", st.Result, direct.Summary)
	}

	// An experiment job returns rendered table text.
	code, st, _ = postJob(t, ts, `{"kind":"table","variant":"table1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit table: %d", code)
	}
	if st = waitJob(t, ts, st.ID); st.State != StateDone || !strings.Contains(st.Table, "Table 1") {
		t.Fatalf("table job: state %s table %q", st.State, st.Table)
	}

	// Health is OK and metrics include the server counters.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"server.submitted", "server.completed", "server.job_wall_ns", "sim.refs"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, raw)
		}
	}

	// Unknown job → 404; bad specs → 400.
	if resp, _ = http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	resp.Body.Close()
	for _, bad := range []string{
		`{"kind":"fft"}`,
		`{"kind":"matmul","variant":"strassen"}`,
		`{"kind":"matmul","bogus_field":1}`,
		`{"kind":"matmul","matmul_n":99999}`,
		`not json`,
	} {
		if code, _, _ := postJob(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", bad, code)
		}
	}
}

// TestTableJobDeadline pins that a table job which hits its deadline
// fails with "deadline exceeded" instead of completing with the rows that
// never ran rendered as zeros.
func TestTableJobDeadline(t *testing.T) {
	s := testServer(t, Config{Workers: 1, Harness: harness.Quick()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, _ := postJob(t, ts, `{"kind":"table","variant":"table2","deadline_ms":20}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st = waitJob(t, ts, st.ID)
	if st.State != StateFailed || st.Error != "deadline exceeded" || st.Table != "" {
		t.Fatalf("table job past its deadline: state %s error %q table %q", st.State, st.Error, st.Table)
	}
}

// TestModeAliasesRunDefaultPath pins job-spec compatibility: "mode"
// names a reference-stream path from when there was a choice, so a spec
// carrying any of the old names, in any case, must still validate and
// run the one production path with an identical result.
func TestModeAliasesRunDefaultPath(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	var want *Result
	for _, mode := range []string{"", "batch", "pipeline", "serial", "Batch", "SERIAL"} {
		req, err := DecodeRequest(strings.NewReader(`{"kind":"matmul","mode":"` + mode + `"}`))
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		st, err := s.Submit(req)
		if err != nil {
			t.Fatalf("mode %q: submit: %v", mode, err)
		}
		st, _ = s.Wait(st.ID, time.Minute)
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("mode %q: %+v", mode, st)
		}
		if want == nil {
			want = st.Result
		} else if *st.Result != *want {
			t.Errorf("mode %q result %+v, want %+v", mode, *st.Result, *want)
		}
	}
	if _, err := DecodeRequest(strings.NewReader(`{"kind":"matmul","mode":"batched"}`)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown mode: err = %v, want ErrBadRequest", err)
	}
}

// TestQueueBackpressure pins the 429 + Retry-After path: with one
// worker wedged on a slow job and a one-deep queue, the third submit
// must be rejected with reason "queue", and the Retry-After header set.
func TestQueueBackpressure(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := `{"kind":"matmul","size":"scaled","matmul_n":512}`
	code, running, _ := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("slow submit: %d", code)
	}
	code, queued, _ := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit: %d", code)
	}
	// Third submit: worker busy, queue full → 429.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var hdr http.Header
		code, _, hdr = postJob(t, ts, slow)
		if code == http.StatusTooManyRequests {
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			break
		}
		// The first job may not have been picked up yet, leaving queue
		// room; cancel the extra admission and retry.
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled (last code %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Cancel both jobs; the running one must go terminal quickly.
	for _, id := range []string{running.ID, queued.ID} {
		resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	start := time.Now()
	if st := waitJob(t, ts, running.ID); st.State != StateCancelled {
		t.Fatalf("running job after cancel: %+v", st)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mid-run cancel took %v", elapsed)
	}
	if st := waitJob(t, ts, queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job after cancel: %+v", st)
	}
}

// TestTenantRateLimit pins per-tenant token-bucket admission: one
// tenant exhausting its burst is rejected with reason "rate" while
// another tenant is still admitted.
func TestTenantRateLimit(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 64, TenantRate: 0.001, TenantBurst: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := `{"kind":"sor","tenant":"%s"}`
	for i := 0; i < 2; i++ {
		if code, _, _ := postJob(t, ts, fmt.Sprintf(job, "a")); code != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d", i, code)
		}
	}
	code, _, hdr := postJob(t, ts, fmt.Sprintf(job, "a"))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if code, _, _ := postJob(t, ts, fmt.Sprintf(job, "b")); code != http.StatusAccepted {
		t.Fatalf("other tenant blocked: %d", code)
	}
}

// TestTenantPanicIsolation is the containment matrix entry for served
// jobs: the fault injector fires inside tenant B's job, which must come
// back as that one job's failed status (panic=true) while tenant A's
// jobs — before, concurrent, and after — complete normally on the same
// pool.
func TestTenantPanicIsolation(t *testing.T) {
	inj := fault.New(fault.Config{At: map[fault.Site][]uint64{fault.ServedJob: {2}}})
	s := testServer(t, Config{Workers: 2, Obs: obs.New(4), Inject: inj})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 3)
	for i, body := range []string{
		`{"kind":"matmul","tenant":"a"}`,
		`{"kind":"matmul","tenant":"b"}`, // admission seq 2: injected panic
		`{"kind":"sor","tenant":"a"}`,
	} {
		code, st, _ := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids[i] = st.ID
	}
	bombed := waitJob(t, ts, ids[1])
	if bombed.State != StateFailed || !bombed.Panic {
		t.Fatalf("injected job: %+v", bombed)
	}
	if !strings.Contains(bombed.Error, "served-job") {
		t.Fatalf("injected job error %q does not name the fault site", bombed.Error)
	}
	for _, i := range []int{0, 2} {
		if st := waitJob(t, ts, ids[i]); st.State != StateDone || st.Result == nil {
			t.Fatalf("bystander job %d: %+v", i, st)
		}
	}
	// The pool keeps serving after the contained panic.
	code, st, _ := postJob(t, ts, `{"kind":"pde","tenant":"b"}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d", code)
	}
	if st = waitJob(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("post-panic job: %+v", st)
	}
}

// TestDrain pins graceful shutdown: in-flight and queued jobs finish,
// then new submissions are rejected with 503 and healthz flips to
// draining.
func TestDrain(t *testing.T) {
	cfg := Config{Workers: 2}
	cfg.Harness = testHarness()
	s := New(cfg) // not testServer: this test drains explicitly
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 4)
	for i := range ids {
		code, st, _ := postJob(t, ts, `{"kind":"sor"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, ok := s.Get(id)
		if !ok || st.State != StateDone {
			t.Fatalf("job %s after drain: %+v (ok=%v)", id, st, ok)
		}
	}
	if code, _, _ := postJob(t, ts, `{"kind":"sor"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d, want 503", resp.StatusCode)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDrainCancelsOnExpiry pins the hard-stop path: when the drain
// budget expires with a slow job still running, Drain cancels it and
// still returns with the pool unwound.
func TestDrainCancelsOnExpiry(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.Harness = testHarness()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, _ := postJob(t, ts, `{"kind":"matmul","size":"scaled","matmul_n":512}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Let the worker pick it up, then drain with an already-tiny budget.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain of a wedged pool returned nil")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("expired drain took %v", elapsed)
	}
	got, _ := s.Get(st.ID)
	if got.State != StateCancelled {
		t.Fatalf("slow job after expired drain: %+v", got)
	}
}
