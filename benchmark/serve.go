package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"threadsched/internal/harness"
	"threadsched/internal/journal"
	"threadsched/internal/obs"
	"threadsched/internal/server"
)

// serveMix is the serve workload's job mix: one small job of each kernel
// kind, 15–50 ms each on an idle daemon.
var serveMix = []server.Request{
	{Kind: "matmul", MatmulN: 64},
	{Kind: "sor", SORN: 128},
	{Kind: "pde", PDEN: 129},
	{Kind: "nbody", NBodyN: 1000, Steps: 1},
}

// tenants is how many tenants (t0, t1, ...) submit the mix.
const tenants = 4

// expectedResults runs every job of the mix in-process through the
// harness, with the geometry the daemon derives from the request at
// -size quick: the oracle for every served result. Under a tracer each
// job is a "harness.job.<kind>" span.
func expectedResults(ctx context.Context, t *tracer) (map[string]server.Result, error) {
	want := map[string]server.Result{}
	for _, req := range serveMix {
		cfg := harness.Quick()
		if req.MatmulN > 0 {
			cfg.MatmulN = req.MatmulN
		}
		if req.SORN > 0 {
			cfg.SORN = req.SORN
		}
		if req.PDEN > 0 {
			cfg.PDEN = req.PDEN
		}
		if req.NBodyN > 0 {
			cfg.NBodyN = req.NBodyN
		}
		if req.Steps > 0 {
			cfg.NBodySteps = req.Steps
		}
		sp := t.begin(nil, "harness.job."+req.Kind)
		res, err := cfg.RunJob(ctx, harness.JobSpec{Kind: harness.JobKind(req.Kind), Steps: req.Steps})
		sp.end(0)
		if err != nil {
			return nil, fmt.Errorf("oracle %s job: %w", req.Kind, err)
		}
		want[req.Kind] = server.Result{
			Instructions: res.Instructions,
			IFetches:     res.Summary.IFetches,
			DataRefs:     res.Summary.DataRefs,
			L1Misses:     res.Summary.L1Misses,
			L2Misses:     res.Summary.L2.Misses,
			L3Misses:     res.Summary.L3.Misses,
			L1Rate:       res.Summary.L1Rate,
			L2Rate:       res.Summary.L2Rate,
			ModelSeconds: res.Seconds(),
			SchedThreads: res.Sched.Threads,
			SchedBins:    res.Sched.Bins,
		}
	}
	return want, nil
}

// checkServed describes why a served job does not match the oracle, or
// returns nil.
func checkServed(st server.Status, want server.Result) error {
	switch {
	case st.State != "done":
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil:
		return fmt.Errorf("job %s has no result", st.ID)
	case *st.Result != want:
		return fmt.Errorf("job %s result %+v, oracle %+v", st.ID, *st.Result, want)
	}
	return nil
}

// client talks to one daemon over at most conns connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a 2xx JSON answer into out.
func (c *client) call(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) submit(ctx context.Context, req server.Request) (server.Status, error) {
	var st server.Status
	err := c.call(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

func (c *client) wait(ctx context.Context, id string) (server.Status, error) {
	var st server.Status
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/wait?timeout_ms=60000", nil, &st)
	return st, err
}

// daemon is one running tracesimd process.
type daemon struct {
	cmd    *exec.Cmd
	done   chan struct{}
	err    error   // set before done closes
	peakMB float64 // set before done closes
}

func startDaemon(ctx context.Context, path, addr, journalDir string, workers int) (*daemon, error) {
	cmd := exec.CommandContext(ctx, path, "-addr", addr, "-workers", strconv.Itoa(workers), "-journal", journalDir)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	peak := watchPeak(cmd.Process.Pid)
	go func() {
		d.err = cmd.Wait()
		d.peakMB = peak.peakMB()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls /readyz until the daemon has replayed its journal and
// admits jobs.
func (d *daemon) waitReady(ctx context.Context, c *client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		if c.call(ctx, http.MethodGet, "/readyz", nil, nil) == nil {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("tracesimd exited before ready: %v", d.err)
		case <-ctx.Done():
			return fmt.Errorf("tracesimd not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM and returns its peak RSS.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	<-d.done
	if d.err != nil {
		return 0, fmt.Errorf("tracesimd: %w", d.err)
	}
	return d.peakMB, nil
}

// kill ends the daemon if it still runs and waits for it.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill() // it may exit on its own meanwhile
		<-d.done
	}
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// runServe drives tracesimd in three phases: warm-up jobs then restarts
// on the same journal (the set-up, each restart timed until /readyz
// answers 200), an open loop at a fixed rate for latency, and a closed
// loop of nproc callers for throughput.
func runServe(e *env) (*runResult, error) {
	r := newResult("serve", e)
	want, err := expectedResults(e.ctx, nil)
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := newClient(addr, e.workers)
	defer c.close()
	path, dir := filepath.Join(e.bin, "tracesimd"), filepath.Join(e.tmp, "journal")

	d, err := startDaemon(e.ctx, path, addr, dir, e.workers)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()
	if err := d.waitReady(e.ctx, c); err != nil {
		return nil, err
	}
	closedLoop(e, c, want, r, e.size.WarmJobs, 0)

	var setup []float64
	for i := 0; i < e.size.SetupReps; i++ {
		if _, err := d.stop(); err != nil {
			return nil, err
		}
		start := time.Now()
		if d, err = startDaemon(e.ctx, path, addr, dir, e.workers); err != nil {
			return nil, err
		}
		if err := d.waitReady(e.ctx, c); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	open := e.seconds.Seconds() * e.size.OpenShare
	st, err := openLoop(e, c, want, r, nil, int(open*e.size.Rate), e.size.Rate)
	if err != nil {
		return nil, err
	}
	done, elapsed, windows := closedLoop(e, c, want, r, 0, time.Duration(float64(e.seconds)*e.size.ClosedShare))
	peak, err := d.stop()
	if err != nil {
		return nil, err
	}
	if len(st.latency) == 0 || done == 0 {
		return r, fmt.Errorf("%w: no job completed", errFailed)
	}

	r.Metrics["latency_ms"] = summarize(st.latency)
	jobsPerS := summary{Value: float64(done) / elapsed.Seconds(), N: len(windows)}
	if len(windows) > 0 {
		jobsPerS.Q1, _, jobsPerS.Q3 = quartiles(windows)
	}
	r.Metrics["throughput_per_s"] = jobsPerS
	r.Metrics["peak_rss_mb"] = one(peak)
	r.Metrics["setup_s"] = summarize(setup)
	if pct, v, ok := tail(st.latency, 10); ok {
		r.Info["latency_tail_pct"], r.Info["latency_tail_ms"] = pct, v
	}
	r.Info["open_jobs"] = float64(len(st.latency))
	r.Info["submit_ms_p50"] = median(st.submit)
	r.Info["gen_late_ms_max"] = percentile(st.late, 100)
	for k, xs := range st.byKind {
		r.Samples["latency_ms."+k] = xs
	}
	r.Samples["closed_jobs_per_window"] = windows
	return r, nil
}

// openStats are one open loop's per-job observations in milliseconds:
// latency from each job's due time to its result, submit round trips,
// and how late the generator sent each job.
type openStats struct {
	latency, submit, late []float64
	byKind                map[string][]float64
}

// openLoop offers jobs at rate jobs/s with seeded Poisson arrivals and a
// balanced seeded mix over the tenants. One connection submits; a second
// long-polls /wait on the oldest outstanding job, so latency is what a
// consumer of results in submission order sees. Under a tracer each
// submit is a "server.submit" span, and the server's own queue and run
// times are sampled.
func openLoop(e *env, c *client, want map[string]server.Result, r *runResult, t *tracer, jobs int, rate float64) (openStats, error) {
	due := make([]time.Duration, jobs)
	reqs := make([]server.Request, jobs)
	at := 0.0
	for i := range due {
		at += e.rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
		reqs[i] = serveMix[i%len(serveMix)]
		reqs[i].Tenant = "t" + strconv.Itoa(e.rng.IntN(tenants))
	}
	e.rng.Shuffle(jobs, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	type sent struct {
		i    int
		id   string
		at   time.Time
		late time.Duration
		rtt  time.Duration
		err  error
	}
	subs := make(chan sent, jobs) // one slot per job: the submitter never waits on the consumer
	start := time.Now()
	go func() {
		defer close(subs)
		for i := range reqs {
			select {
			case <-e.ctx.Done():
				return
			case <-time.After(time.Until(start.Add(due[i]))):
			}
			s := sent{i: i, at: time.Now()}
			s.late = s.at.Sub(start.Add(due[i]))
			sp := t.begin(nil, "server.submit")
			st, err := c.submit(e.ctx, reqs[i])
			sp.end(0)
			s.rtt, s.id, s.err = time.Since(s.at), st.ID, err
			subs <- s
		}
	}()

	st := openStats{byKind: map[string][]float64{}}
	for s := range subs {
		r.Attempted++
		st.late = append(st.late, ms(s.late))
		if s.err != nil {
			r.fail("submit: %v", s.err)
			continue
		}
		st.submit = append(st.submit, ms(s.rtt))
		js, err := c.wait(e.ctx, s.id)
		doneAt := time.Now()
		if err != nil {
			r.fail("wait %s: %v", s.id, err)
			continue
		}
		if err := checkServed(js, want[reqs[s.i].Kind]); err != nil {
			r.fail("%v", err)
			continue
		}
		lat := ms(doneAt.Sub(start.Add(due[s.i])))
		st.latency = append(st.latency, lat)
		st.byKind[reqs[s.i].Kind] = append(st.byKind[reqs[s.i].Kind], lat)
		t.sample("server.queue_ms", float64(js.QueueMS))
		t.sample("server.run_ms", float64(js.RunMS))
		t.sample("server.wait_overhead_ms", ms(doneAt.Sub(s.at))-float64(js.QueueMS+js.RunMS))
		t.sample("server.gen_late_ms", ms(s.late))
	}
	return st, e.ctx.Err()
}

// closedLoop runs nproc callers that each submit a job and wait for it
// before the next, either for jobs jobs in total or, with jobs = 0, for
// dur. It returns the completed count, the time until the last caller
// stopped, and the completions of each whole second.
func closedLoop(e *env, c *client, want map[string]server.Result, r *runResult, jobs int, dur time.Duration) (int, time.Duration, []float64) {
	var (
		mu     sync.Mutex
		issued int
		doneAt []time.Duration
		wg     sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < e.workers; w++ {
		rng := rand.New(rand.NewPCG(e.seed, uint64(w)+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var order []server.Request
			for {
				mu.Lock()
				stop := e.ctx.Err() != nil || (jobs > 0 && issued >= jobs) || (jobs == 0 && time.Since(start) >= dur)
				if !stop {
					issued++
					r.Attempted++
				}
				mu.Unlock()
				if stop {
					return
				}
				if len(order) == 0 {
					order = append(order, serveMix...)
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				req := order[0]
				order = order[1:]
				req.Tenant = "t" + strconv.Itoa(rng.IntN(tenants))
				err := submitAndWait(e.ctx, c, req, want[req.Kind])
				mu.Lock()
				if err != nil {
					r.fail("%v", err)
				} else {
					doneAt = append(doneAt, time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var windows []float64
	for s := 1; s <= int(elapsed/time.Second); s++ {
		n := 0
		for _, d := range doneAt {
			if d >= time.Duration(s-1)*time.Second && d < time.Duration(s)*time.Second {
				n++
			}
		}
		windows = append(windows, float64(n))
	}
	return len(doneAt), elapsed, windows
}

func submitAndWait(ctx context.Context, c *client, req server.Request, want server.Result) error {
	sub, err := c.submit(ctx, req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	st, err := c.wait(ctx, sub.ID)
	if err != nil {
		return fmt.Errorf("wait %s: %w", sub.ID, err)
	}
	return checkServed(st, want)
}

// partServe drives the serving layers in-process: each job of the mix
// through the harness, the journal's append, sync and replay, and an open
// loop against an in-process server on a loopback listener.
func partServe(e *env, t *tracer, r *runResult) error {
	want, err := expectedResults(e.ctx, t)
	if err != nil {
		return err
	}
	if err := journalProbe(e, t, r); err != nil {
		return err
	}

	srv := server.New(server.Config{Workers: e.workers, Harness: harness.Quick(), Obs: obs.New(8),
		JournalDir: filepath.Join(e.tmp, "served-journal")})
	if err := srv.Recover(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient(ln.Addr().String(), e.workers)
	_, loopErr := openLoop(e, c, want, r, t, e.size.TracedJobs, e.size.Rate)
	c.close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := srv.Drain(ctx)
	shutErr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	if err := os.RemoveAll(filepath.Join(e.tmp, "served-journal")); err != nil {
		return err
	}
	return errors.Join(loopErr, drainErr, shutErr)
}

// journalProbe appends accept-sized records to a fresh journal, syncing
// every 16, then reopens it to time the replay.
func journalProbe(e *env, t *tracer, r *runResult) error {
	dir := filepath.Join(e.tmp, "journal-probe")
	defer os.RemoveAll(dir)
	opts := journal.Options{Dir: dir, Fsync: journal.FsyncNone}
	j, _, err := journal.Open(opts)
	if err != nil {
		return err
	}
	payload := make([]byte, 180) // about one accept record of the serve mix
	for i := range payload {
		payload[i] = 'a' + byte(e.rng.IntN(26))
	}
	for i := 0; i < e.size.JournalRecords; i++ {
		sp := t.begin(nil, "journal.append")
		err := j.Append(payload)
		sp.end(1)
		if err != nil {
			j.Close()
			return err
		}
		if i%16 == 15 {
			sp := t.begin(nil, "journal.sync")
			err := j.Sync()
			sp.end(0)
			if err != nil {
				j.Close()
				return err
			}
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	sp := t.begin(nil, "journal.replay")
	j, rep, err := journal.Open(opts)
	sp.end(0)
	if err != nil {
		return err
	}
	if got := len(rep.Records()); got != e.size.JournalRecords {
		r.fail("journal replayed %d records, appended %d", got, e.size.JournalRecords)
	}
	return j.Close()
}
