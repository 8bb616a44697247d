package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"threadsched/internal/fault"
	"threadsched/internal/journal"
	"threadsched/internal/obs"
)

// journalCfg is the base config for a journaled test server: smallest
// harness, no fsync (same-OS restarts read the page cache; the fsync
// policies themselves are covered by internal/journal).
func journalCfg(dir string) Config {
	return Config{
		Workers:      2,
		Harness:      testHarness(),
		JournalDir:   dir,
		JournalFsync: journal.FsyncNone,
	}
}

func drainSrv(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func recoverSrv(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !s.Ready() {
		t.Fatalf("server not ready after Recover")
	}
}

func submitOK(t *testing.T, s *Server, req Request) Status {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func waitDone(t *testing.T, s *Server, id string) Status {
	t.Helper()
	st, ok := s.Wait(id, 60*time.Second)
	if !ok {
		t.Fatalf("wait: job %s unknown", id)
	}
	if st.State != StateDone {
		t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
	}
	return st
}

func counterTotal(o *obs.Obs, name string) uint64 {
	for _, c := range o.Snapshot().Counters {
		if c.Name == name {
			return c.Total
		}
	}
	return 0
}

// writeRecords hand-crafts a journal: the test's way to put the server
// in "crashed mid-job" states that a graceful shutdown can never
// produce (accepted or running jobs with no terminal record).
func writeRecords(t *testing.T, dir string, recs []jrec) {
	t.Helper()
	jr, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := jr.Append(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRestartAnswersPreRestartJobs is the tentpole contract:
// every job ID the daemon promised before a restart still resolves
// after it, with the original results, and idempotency keys still
// dedupe onto the surviving jobs.
func TestRecoverRestartAnswersPreRestartJobs(t *testing.T) {
	dir := t.TempDir()

	a := New(journalCfg(dir))
	recoverSrv(t, a)
	st1 := submitOK(t, a, Request{Kind: "matmul", Variant: "threaded", Tenant: "acme", IdempotencyKey: "k1"})
	orig := waitDone(t, a, st1.ID)
	st2 := submitOK(t, a, Request{Kind: "table", Variant: "table1"})
	origTable := waitDone(t, a, st2.ID)
	drainSrv(t, a)

	b := New(journalCfg(dir))
	if b.Ready() {
		t.Fatalf("journaled server ready before Recover")
	}
	if _, err := b.Submit(Request{Kind: "matmul"}); err == nil {
		t.Fatalf("submit before Recover accepted")
	} else {
		var rej *RejectError
		if !errors.As(err, &rej) || rej.StatusCode != http.StatusServiceUnavailable || rej.Reason != "not-ready" {
			t.Fatalf("submit before Recover: %v", err)
		}
	}
	recoverSrv(t, b)
	defer drainSrv(t, b)

	got, ok := b.Get(st1.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", st1.ID)
	}
	if got.State != StateDone || !got.Restored || got.Result == nil {
		t.Fatalf("restored job: %+v", got)
	}
	if got.Result.Instructions != orig.Result.Instructions || got.Result.L1Misses != orig.Result.L1Misses {
		t.Fatalf("restored result differs:\n before %+v\n after  %+v", orig.Result, got.Result)
	}
	if got.QueueMS != orig.QueueMS || got.RunMS != orig.RunMS {
		t.Fatalf("restored timings differ: before %d/%d, after %d/%d",
			orig.QueueMS, orig.RunMS, got.QueueMS, got.RunMS)
	}
	if gt, ok := b.Get(st2.ID); !ok || gt.Table != origTable.Table {
		t.Fatalf("restored table job: ok=%v %+v", ok, gt)
	}
	// Wait on a restored terminal job returns immediately.
	if st, ok := b.Wait(st1.ID, time.Second); !ok || st.State != StateDone {
		t.Fatalf("wait on restored job: ok=%v %+v", ok, st)
	}

	// The idempotency key crossed the restart: a crash-retry dedupes.
	dup := submitOK(t, b, Request{Kind: "matmul", Variant: "threaded", Tenant: "acme", IdempotencyKey: "k1"})
	if !dup.Deduped || dup.ID != st1.ID {
		t.Fatalf("resubmit after restart: deduped=%v id=%s (want %s)", dup.Deduped, dup.ID, st1.ID)
	}
	// A different tenant's identical key is a fresh job.
	other := submitOK(t, b, Request{Kind: "matmul", Variant: "threaded", Tenant: "rival", IdempotencyKey: "k1"})
	if other.Deduped || other.ID == st1.ID {
		t.Fatalf("idempotency key leaked across tenants: %+v", other)
	}
	waitDone(t, b, other.ID)
}

// TestRecoverInterruptedJobs replays a journal whose jobs were queued
// or running at crash time: they resolve as failed(interrupted), and
// the resolution is itself journaled so a second restart agrees.
func TestRecoverInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UnixMilli()
	req := &Request{Kind: "matmul", Variant: "threaded"}
	writeRecords(t, dir, []jrec{
		{Op: opAccept, ID: "j000001", Seq: 1, Tenant: "t", What: "matmul/threaded", Req: req, SubmitMS: now},
		{Op: opAccept, ID: "j000002", Seq: 2, Tenant: "t", What: "matmul/threaded", Req: req, SubmitMS: now},
		{Op: opRun, ID: "j000002"},
		{Op: opAccept, ID: "j000003", Seq: 3, Tenant: "t", What: "matmul/threaded", Req: req, SubmitMS: now},
		{Op: opRun, ID: "j000003"},
		{Op: opDone, ID: "j000003", Result: &Result{Instructions: 42}, QueueMS: 1, RunMS: 2},
	})

	o := obs.New(2)
	cfg := journalCfg(dir)
	cfg.Obs = o
	s := New(cfg)
	recoverSrv(t, s)

	for _, id := range []string{"j000001", "j000002"} {
		st, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if st.State != StateFailed || st.Error != interruptedError || !st.Restored {
			t.Fatalf("job %s: %+v", id, st)
		}
		// Terminal: waiters are released, not stuck.
		if st, ok = s.Wait(id, time.Second); !ok || st.State != StateFailed {
			t.Fatalf("wait %s: ok=%v %+v", id, ok, st)
		}
	}
	if st, ok := s.Get("j000003"); !ok || st.State != StateDone || st.Result == nil || st.Result.Instructions != 42 {
		t.Fatalf("j000003: ok=%v %+v", ok, st)
	}
	if n := counterTotal(o, "server.interrupted"); n != 2 {
		t.Fatalf("server.interrupted = %d, want 2", n)
	}
	// New work runs normally after replay; its seq does not collide
	// with the replayed IDs.
	st := submitOK(t, s, Request{Kind: "matmul", Variant: "threaded"})
	if st.ID == "j000001" || st.ID == "j000002" || st.ID == "j000003" {
		t.Fatalf("fresh job reused a replayed ID: %s", st.ID)
	}
	waitDone(t, s, st.ID)
	drainSrv(t, s)

	// Second restart: the interrupted resolutions were journaled, so
	// they replay as terminal — not re-decided, not double-counted.
	o2 := obs.New(2)
	cfg2 := journalCfg(dir)
	cfg2.Obs = o2
	s2 := New(cfg2)
	recoverSrv(t, s2)
	defer drainSrv(t, s2)
	if st, ok := s2.Get("j000001"); !ok || st.State != StateFailed || st.Error != interruptedError {
		t.Fatalf("second restart j000001: ok=%v %+v", ok, st)
	}
	if n := counterTotal(o2, "server.interrupted"); n != 0 {
		t.Fatalf("second restart re-interrupted %d jobs", n)
	}
}

// TestRecoverRequeueInterrupted: with RequeueInterrupted set, a job
// that was in flight at crash time runs again instead of failing. That
// holds for a spec journaled with "mode": "serial", the name of a
// reference-stream path that has since left production.
func TestRecoverRequeueInterrupted(t *testing.T) {
	for _, mode := range []string{"", "serial"} {
		t.Run("mode="+mode, func(t *testing.T) {
			dir := t.TempDir()
			writeRecords(t, dir, []jrec{
				{Op: opAccept, ID: "j000001", Seq: 1, Tenant: "t", What: "matmul/threaded",
					Req: &Request{Kind: "matmul", Variant: "threaded", Mode: mode}, SubmitMS: time.Now().UnixMilli()},
			})

			o := obs.New(2)
			cfg := journalCfg(dir)
			cfg.Obs = o
			cfg.RequeueInterrupted = true
			s := New(cfg)
			recoverSrv(t, s)
			defer drainSrv(t, s)

			st := waitDone(t, s, "j000001")
			if st.Result == nil {
				t.Fatalf("requeued job finished without a result: %+v", st)
			}
			if n := counterTotal(o, "server.journal.requeued"); n != 1 {
				t.Fatalf("server.journal.requeued = %d, want 1", n)
			}
			if n := counterTotal(o, "server.interrupted"); n != 0 {
				t.Fatalf("requeued job also counted interrupted (%d)", n)
			}
		})
	}
}

// TestRecoverTornTail cuts the journal mid-record — a kill -9 during
// an append — and proves the prefix replays, the torn job resolves as
// interrupted, and the tear is counted.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{Workers: 1, Harness: testHarness(), JournalDir: dir, JournalFsync: journal.FsyncNone})
	recoverSrv(t, a)
	st1 := submitOK(t, a, Request{Kind: "matmul", Variant: "threaded"})
	waitDone(t, a, st1.ID)
	st2 := submitOK(t, a, Request{Kind: "matmul", Variant: "threaded"})
	waitDone(t, a, st2.ID)
	drainSrv(t, a)

	// Tear the last record (job 2's "done"): one worker and sequential
	// waits make the append order deterministic.
	wal := filepath.Join(dir, "wal.j")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	o := obs.New(2)
	cfg := journalCfg(dir)
	cfg.Obs = o
	b := New(cfg)
	recoverSrv(t, b)
	defer drainSrv(t, b)

	if n := counterTotal(o, "server.journal.torn_tail"); n != 1 {
		t.Fatalf("server.journal.torn_tail = %d, want 1", n)
	}
	if st, ok := b.Get(st1.ID); !ok || st.State != StateDone {
		t.Fatalf("job before the tear: ok=%v %+v", ok, st)
	}
	if st, ok := b.Get(st2.ID); !ok || st.State != StateFailed || st.Error != interruptedError {
		t.Fatalf("torn job: ok=%v %+v", ok, st)
	}
}

// TestRecoverEvictedTombstones: retention evictions are journaled, so
// an evicted job does not resurrect on replay and its idempotency key
// is free again.
func TestRecoverEvictedTombstones(t *testing.T) {
	dir := t.TempDir()
	cfg := journalCfg(dir)
	cfg.Workers = 1
	cfg.Retention = 2
	a := New(cfg)
	recoverSrv(t, a)
	var ids []string
	for _, k := range []string{"k1", "k2", "k3"} {
		st := submitOK(t, a, Request{Kind: "matmul", Variant: "threaded", Tenant: "t", IdempotencyKey: k})
		waitDone(t, a, st.ID)
		ids = append(ids, st.ID)
	}
	// Submitting job 3 evicted terminal job 1 past Retention=2.
	if _, ok := a.Get(ids[0]); ok {
		t.Fatalf("job %s not evicted (retention %d)", ids[0], cfg.Retention)
	}
	drainSrv(t, a)

	b := New(journalCfg(dir))
	recoverSrv(t, b)
	defer drainSrv(t, b)
	if _, ok := b.Get(ids[0]); ok {
		t.Fatalf("evicted job %s resurrected by replay", ids[0])
	}
	if st, ok := b.Get(ids[2]); !ok || st.State != StateDone {
		t.Fatalf("retained job %s: ok=%v %+v", ids[2], ok, st)
	}
	// k1's job is gone, so k1 maps to a fresh job; k3 still dedupes.
	fresh := submitOK(t, b, Request{Kind: "matmul", Variant: "threaded", Tenant: "t", IdempotencyKey: "k1"})
	if fresh.Deduped {
		t.Fatalf("evicted idempotency key still deduped: %+v", fresh)
	}
	waitDone(t, b, fresh.ID)
	dup := submitOK(t, b, Request{Kind: "matmul", Variant: "threaded", Tenant: "t", IdempotencyKey: "k3"})
	if !dup.Deduped || dup.ID != ids[2] {
		t.Fatalf("surviving key k3: deduped=%v id=%s (want %s)", dup.Deduped, dup.ID, ids[2])
	}
}

// TestDegradedOnTornWrite: a torn journal append mid-run flips the
// server into sticky read-only mode — the failed submit is rejected
// (accepted means remembered), polls keep serving, and the next boot
// tolerates the torn tail.
func TestDegradedOnTornWrite(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(2)
	cfg := journalCfg(dir)
	cfg.Obs = o
	cfg.Workers = 1
	// Appends: 0 = accept job1, 1 = run job1, 2 = done job1, 3 = accept
	// job2 → torn.
	cfg.Inject = fault.New(fault.Config{At: map[fault.Site][]uint64{fault.JournalTornWrite: {3}}})
	s := New(cfg)
	recoverSrv(t, s)
	defer drainSrv(t, s)

	st1 := submitOK(t, s, Request{Kind: "matmul", Variant: "threaded"})
	waitDone(t, s, st1.ID)

	_, err := s.Submit(Request{Kind: "matmul", Variant: "threaded"})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.StatusCode != http.StatusServiceUnavailable || rej.Reason != "degraded" {
		t.Fatalf("submit over torn journal: %v", err)
	}
	if deg, reason := s.Degraded(); !deg || reason == "" {
		t.Fatalf("server not degraded after torn append (reason %q)", reason)
	}
	// Sticky: later submits stay rejected; reads keep serving.
	if _, err := s.Submit(Request{Kind: "matmul", Variant: "threaded"}); err == nil {
		t.Fatalf("degraded mode not sticky")
	}
	if st, ok := s.Get(st1.ID); !ok || st.State != StateDone {
		t.Fatalf("poll during degraded mode: ok=%v %+v", ok, st)
	}
	if n := counterTotal(o, "server.rejected.degraded"); n < 2 {
		t.Fatalf("server.rejected.degraded = %d, want >= 2", n)
	}
	if n := counterTotal(o, "server.journal.append_errors"); n == 0 {
		t.Fatalf("append error not counted")
	}
	drainSrv(t, s)

	// The torn tail is survivable: job1 (journaled before the tear)
	// replays; the rejected job2 was never accepted, so nothing is lost.
	o2 := obs.New(2)
	cfg2 := journalCfg(dir)
	cfg2.Obs = o2
	b := New(cfg2)
	recoverSrv(t, b)
	defer drainSrv(t, b)
	if st, ok := b.Get(st1.ID); !ok || st.State != StateDone {
		t.Fatalf("after torn-write restart: ok=%v %+v", ok, st)
	}
	if n := counterTotal(o2, "server.journal.torn_tail"); n != 1 {
		t.Fatalf("torn tail not counted on restart (%d)", n)
	}
	if deg, _ := b.Degraded(); deg {
		t.Fatalf("fresh boot inherited degraded mode")
	}
}

// TestDegradedOnDiskFull: an ENOSPC-style append failure degrades the
// same way but does not tear the file — the journal stays replayable
// without a torn-tail tick.
func TestDegradedOnDiskFull(t *testing.T) {
	dir := t.TempDir()
	cfg := journalCfg(dir)
	cfg.Workers = 1
	cfg.Inject = fault.New(fault.Config{At: map[fault.Site][]uint64{fault.JournalFull: {0}}})
	s := New(cfg)
	recoverSrv(t, s)
	_, err := s.Submit(Request{Kind: "matmul", Variant: "threaded"})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "degraded" {
		t.Fatalf("submit over full disk: %v", err)
	}
	drainSrv(t, s)

	o := obs.New(2)
	cfg2 := journalCfg(dir)
	cfg2.Obs = o
	b := New(cfg2)
	recoverSrv(t, b)
	defer drainSrv(t, b)
	if n := counterTotal(o, "server.journal.torn_tail"); n != 0 {
		t.Fatalf("clean append failure counted as torn tail (%d)", n)
	}
}

// TestReadinessSplitHTTP: until Recover completes the daemon is live
// (/healthz 200) but not ready (/readyz 503), and job routes answer
// 503 + Retry-After rather than lying with 404.
func TestReadinessSplitHTTP(t *testing.T) {
	dir := t.TempDir()
	s := New(journalCfg(dir))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != http.StatusOK || body["status"] != "recovering" {
		t.Fatalf("healthz during replay: %d %v", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["status"] != "recovering" {
		t.Fatalf("readyz during replay: %d %v", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("job route during replay: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, _, _ := postJob(t, ts, `{"kind":"matmul"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during replay: %d", code)
	}

	recoverSrv(t, s)
	if code, body := get("/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz after recover: %d %v", code, body)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/j000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job after recover: %d", resp.StatusCode)
	}

	drainSrv(t, s)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained: %d", code)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d", code)
	}
}

// TestRecoverCompaction pushes a journaled server through enough
// submits to trigger snapshot compaction, then restarts: snapshot +
// tail replay to the same job table the pre-restart server had.
func TestRecoverCompaction(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(2)
	cfg := journalCfg(dir)
	cfg.Obs = o
	cfg.Workers = 2
	cfg.JournalCompactEvery = 16
	a := New(cfg)
	recoverSrv(t, a)
	want := map[string]Status{}
	for i := 0; i < 12; i++ {
		st := submitOK(t, a, Request{Kind: "matmul", Variant: "threaded"})
		want[st.ID] = waitDone(t, a, st.ID)
	}
	if n := counterTotal(o, "server.journal.compactions"); n == 0 {
		t.Fatalf("no compaction after %d jobs with CompactEvery=16", len(want))
	}
	drainSrv(t, a)

	b := New(journalCfg(dir))
	recoverSrv(t, b)
	defer drainSrv(t, b)
	for id, w := range want {
		st, ok := b.Get(id)
		if !ok || st.State != StateDone || st.Result == nil {
			t.Fatalf("job %s after compacted restart: ok=%v %+v", id, ok, st)
		}
		if st.Result.Instructions != w.Result.Instructions {
			t.Fatalf("job %s result drifted across compaction", id)
		}
	}
}
