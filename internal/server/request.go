package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"threadsched/internal/harness"
)

// Request is the JSON body of POST /v1/jobs: one simulation (or one
// whole experiment) to run. Every field except kind is optional; zero
// values select the server's defaults.
type Request struct {
	// Tenant identifies the submitter for admission control; empty maps
	// to "anon". Each tenant has its own token bucket.
	Tenant string `json:"tenant,omitempty"`
	// Kind is "matmul", "pde", "sor", "nbody", or "table".
	Kind string `json:"kind"`
	// Variant is the kind-specific variant name ("" = "threaded"); for
	// kind "table" it names the experiment ("table1".."table9",
	// "figure4").
	Variant string `json:"variant,omitempty"`
	// Machine is "r8000" (default), "r10000", or "modern".
	Machine string `json:"machine,omitempty"`
	// Size selects the base geometry: "" (server default), "quick", or
	// "scaled".
	Size string `json:"size,omitempty"`
	// Mode selects the reference-stream path (harness.ParseMode):
	// "pipeline", the default path, or "serial", the per-reference
	// equivalence oracle; "" keeps the server's configured mode. "batch"
	// still validates and runs the default path, so older clients and
	// journaled specs keep working.
	Mode string `json:"mode,omitempty"`
	// Geometry overrides (0 = the size's default), validated against the
	// caps below.
	MatmulN  int `json:"matmul_n,omitempty"`
	PDEN     int `json:"pde_n,omitempty"`
	PDEIters int `json:"pde_iters,omitempty"`
	SORN     int `json:"sor_n,omitempty"`
	SORIters int `json:"sor_iters,omitempty"`
	NBodyN   int `json:"nbody_n,omitempty"`
	// Steps is the N-body step count (0 = the size's default).
	Steps int `json:"steps,omitempty"`
	// Block overrides the scheduler block size for threaded variants.
	Block uint64 `json:"block,omitempty"`
	// DeadlineMS bounds the job's run time in milliseconds (0 = the
	// server's default deadline; clamped to its maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// IdempotencyKey, when set, dedupes resubmits: a second submit with
	// the same (tenant, key) returns the existing job's status instead
	// of running a new job. The mapping is journaled, so dedupe
	// survives a daemon restart — a client retrying through a crash
	// cannot double-run its job. Keys are dropped when their job is
	// evicted from retention.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// Request caps: a shared service cannot let one request submit the
// paper-scale geometry (hours of simulation) or an absurd iteration
// count. Deadlines bound runaway jobs anyway; the caps keep a single
// accepted job's memory in check too.
const (
	maxRequestBytes = 1 << 20
	maxDim          = 4096
	maxIters        = 1024
	maxSteps        = 64
)

// ErrBadRequest is wrapped by every decode/validation failure, mapped to
// a 400 by the HTTP layer.
var ErrBadRequest = errors.New("server: bad request")

// DecodeRequest parses and validates one JSON request body.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Reject trailing garbage (a second JSON value).
	if dec.More() {
		return Request{}, fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	if err := req.validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}

func (r Request) validate() error {
	switch strings.ToLower(r.Kind) {
	case "matmul", "pde", "sor", "nbody":
	case "table":
		if r.Block != 0 || r.Steps != 0 {
			return fmt.Errorf("%w: block/steps do not apply to experiment jobs", ErrBadRequest)
		}
	case "":
		return fmt.Errorf("%w: missing kind", ErrBadRequest)
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind)
	}
	switch strings.ToLower(r.Size) {
	case "", "quick", "scaled":
	default:
		return fmt.Errorf("%w: unknown size %q (want quick or scaled)", ErrBadRequest, r.Size)
	}
	if r.Mode != "" {
		if _, err := harness.ParseMode(r.Mode); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	for _, d := range []struct {
		name string
		v    int
		max  int
	}{
		{"matmul_n", r.MatmulN, maxDim},
		{"pde_n", r.PDEN, maxDim},
		{"pde_iters", r.PDEIters, maxIters},
		{"sor_n", r.SORN, maxDim},
		{"sor_iters", r.SORIters, maxIters},
		{"nbody_n", r.NBodyN, 1 << 17},
		{"steps", r.Steps, maxSteps},
	} {
		if d.v < 0 || d.v > d.max {
			return fmt.Errorf("%w: %s = %d out of range [0, %d]", ErrBadRequest, d.name, d.v, d.max)
		}
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("%w: negative deadline_ms", ErrBadRequest)
	}
	if len(r.Tenant) > 128 {
		return fmt.Errorf("%w: tenant name too long", ErrBadRequest)
	}
	if len(r.IdempotencyKey) > 256 {
		return fmt.Errorf("%w: idempotency key too long", ErrBadRequest)
	}
	return nil
}

// harnessConfig maps the request's size + geometry overrides onto a
// harness Config rooted at the server's base.
func (r Request) harnessConfig(base harness.Config) harness.Config {
	c := base
	switch strings.ToLower(r.Size) {
	case "quick":
		c = harness.Quick()
	case "scaled":
		c = harness.Scaled()
	}
	// validate has rejected unknown names, so only "" fails here and
	// keeps the base's mode.
	if m, err := harness.ParseMode(r.Mode); err == nil {
		c.Mode = m
	}
	if r.MatmulN > 0 {
		c.MatmulN = r.MatmulN
	}
	if r.PDEN > 0 {
		c.PDEN = r.PDEN
	}
	if r.PDEIters > 0 {
		c.PDEIters = r.PDEIters
	}
	if r.SORN > 0 {
		c.SORN = r.SORN
	}
	if r.SORIters > 0 {
		c.SORIters = r.SORIters
	}
	if r.NBodyN > 0 {
		c.NBodyN = r.NBodyN
	}
	if r.Steps > 0 {
		c.NBodySteps = r.Steps
	}
	return c
}

// spec maps the request onto the harness job spec (experiment name
// handling lives in the job runner).
func (r Request) spec() harness.JobSpec {
	return harness.JobSpec{
		Kind:    harness.JobKind(strings.ToLower(r.Kind)),
		Variant: strings.ToLower(r.Variant),
		Machine: strings.ToLower(r.Machine),
		Steps:   r.Steps,
		Block:   r.Block,
	}
}

// Result is the JSON-serializable outcome of one completed simulation.
type Result struct {
	Instructions uint64  `json:"instructions"`
	IFetches     uint64  `json:"ifetches"`
	DataRefs     uint64  `json:"data_refs"`
	L1Misses     uint64  `json:"l1_misses"`
	L2Misses     uint64  `json:"l2_misses"`
	L3Misses     uint64  `json:"l3_misses,omitempty"`
	L1Rate       float64 `json:"l1_rate"`
	L2Rate       float64 `json:"l2_rate"`
	ModelSeconds float64 `json:"model_seconds"`
	SchedThreads int     `json:"sched_threads,omitempty"`
	SchedBins    int     `json:"sched_bins,omitempty"`
}

func resultOf(r harness.SimResult) *Result {
	return &Result{
		Instructions: r.Instructions,
		IFetches:     r.Summary.IFetches,
		DataRefs:     r.Summary.DataRefs,
		L1Misses:     r.Summary.L1Misses,
		L2Misses:     r.Summary.L2.Misses,
		L3Misses:     r.Summary.L3.Misses,
		L1Rate:       r.Summary.L1Rate,
		L2Rate:       r.Summary.L2Rate,
		ModelSeconds: r.Seconds(),
		SchedThreads: r.Sched.Threads,
		SchedBins:    r.Sched.Bins,
	}
}

// Status is the JSON shape of one job's externally visible state.
type Status struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	What   string `json:"what"`
	// State is "queued", "running", "done", "failed", or "cancelled".
	State string `json:"state"`
	// Error describes a failed or cancelled job; Panic marks a contained
	// panic (as opposed to a spec or deadline failure).
	Error string `json:"error,omitempty"`
	Panic bool   `json:"panic,omitempty"`
	// QueueMS and RunMS are the measured queue wait and run time so far.
	QueueMS int64 `json:"queue_ms"`
	RunMS   int64 `json:"run_ms,omitempty"`
	// Result is set once a simulation job is done; Table once an
	// experiment job is done.
	Result *Result `json:"result,omitempty"`
	Table  string  `json:"table,omitempty"`
	// Deduped marks a submit answered from an existing job via its
	// idempotency key (the HTTP layer returns 200 instead of 202).
	Deduped bool `json:"deduped,omitempty"`
	// Restored marks a job rebuilt from the journal after a restart;
	// its queue/run times are the journaled values.
	Restored bool `json:"restored,omitempty"`
}

// RejectError is a typed submit rejection: the HTTP layer maps it onto
// its status code and Retry-After header.
type RejectError struct {
	// StatusCode is the HTTP status (429 or 503).
	StatusCode int
	// Reason is a short machine-readable cause: "rate", "queue",
	// "draining".
	Reason string
	// RetryAfter is the suggested backoff.
	RetryAfter time.Duration
}

// Error describes the rejection.
func (e *RejectError) Error() string {
	return fmt.Sprintf("server: rejected (%s), retry after %v", e.Reason, e.RetryAfter)
}
