package harness

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
)

// The serving surface: a JobSpec names one simulation (or one whole
// experiment) in plain strings, so a JSON request maps onto the harness
// without the server knowing how a kernel runs. It is also the one job
// description inside the harness: every table declares its simulations
// as specs (see row), and resolve turns a spec into the comparable job
// value that Config.run simulates. Config.RunJob runs one spec with
// per-job containment — a panic inside the workload, the scheduler, or
// the pipeline comes back as an error, and a cancelled context comes back
// as that context's error, never as a panic. This is what cmd/tracesimd
// multiplexes tenants onto.

// ErrBadJobSpec is wrapped by every spec-validation failure RunJob
// reports, so servers can map it to a 400 rather than a 500.
var ErrBadJobSpec = errors.New("harness: bad job spec")

// JobKind names a served workload family.
type JobKind string

// Served job kinds: the four paper kernels plus whole experiments.
const (
	JobMatmul JobKind = "matmul"
	JobPDE    JobKind = "pde"
	JobSOR    JobKind = "sor"
	JobNBody  JobKind = "nbody"
	// JobTable runs a whole experiment (Variant is a name in
	// Experiments) and returns its rendered table via RunExperiment.
	JobTable JobKind = "table"
)

// JobSpec selects one simulation for RunJob. The zero value of each
// field means "the default": machine r8000, the kernel's threaded
// variant, Config-derived sizes.
type JobSpec struct {
	// Kind is the workload family (JobMatmul, JobPDE, JobSOR, JobNBody).
	Kind JobKind
	// Variant is the kind-specific variant name, in any case:
	// "interchanged", "transposed", "tiled-interchanged",
	// "tiled-transposed" or "threaded" for matmul; "regular",
	// "cache-conscious" or "threaded" for PDE; "untiled", "hand-tiled"
	// or "threaded" for SOR; "unthreaded" or "threaded" for N-body.
	// "" selects "threaded".
	Variant string
	// Machine is "r8000" (default), "r10000", or "modern". The two SGI
	// models are scaled by the Config exactly as the tables scale them
	// (N-body jobs by NBodyScale); "modern" is never scaled, as in the
	// Modern table, whose point is an L3 that holds the whole problem.
	Machine string
	// Steps is the N-body step count (0 = Config.NBodySteps); other
	// kinds ignore it.
	Steps int
	// Block overrides the scheduler block size for threaded variants
	// (0 = the variant's paper default).
	Block uint64
	// Hook, when non-nil, runs inside the job's containment just before
	// the simulation — the seam the fault-injection tests use to make a
	// job panic without teaching any kernel to fail.
	Hook func()
}

// What renders a progress/diagnostic label for the spec.
func (s JobSpec) What() string {
	v := s.Variant
	if v == "" {
		v = "threaded"
	}
	m := s.Machine
	if m == "" {
		m = "r8000"
	}
	return fmt.Sprintf("%s/%s/%s", s.Kind, v, m)
}

// RunJob runs one simulation under full containment, bounded by ctx (nil
// falls back to Config.Context, then Background). The error is:
//
//   - nil: the job completed and the SimResult is valid;
//   - wrapping ErrBadJobSpec: the spec names no runnable simulation;
//   - ctx.Err(): the job was cancelled or timed out, possibly mid-run
//     (the CPU's cancellation panic and the pipeline's producer-side
//     cancellation both classify here, however deep they surfaced);
//   - a *JobPanicError: the job blew up for a non-cancellation reason —
//     the contained panic, with stack, for the server to report to the
//     one tenant that submitted it.
//
// The pool keeps serving either way: RunJob never panics.
func (c Config) RunJob(ctx context.Context, spec JobSpec) (SimResult, error) {
	c, err := c.bind(ctx)
	if err != nil {
		return SimResult{}, err
	}
	j, err := c.resolve(spec)
	if err != nil {
		return SimResult{}, err
	}
	what := spec.What()
	r, perr := contained(what, what, func() SimResult { return c.runJob(spec.Hook, what, j) })
	return r, servedErr(perr)
}

// RunExperiment runs one whole experiment, named as in Experiments,
// under the same containment and classification as RunJob, returning
// the rendered table text. A context that is done once rendering
// returns yields its error and no text: the table stopped at the rows
// that had finished, and the rest would render as zeros.
func (c Config) RunExperiment(ctx context.Context, name string) (string, error) {
	c, err := c.bind(ctx)
	if err != nil {
		return "", err
	}
	e, err := LookupExperiment(name)
	if err != nil {
		return "", err
	}
	text, perr := contained(e.Name, e.Name, func() string { return e.Render(c, nil).String() })
	if err := servedErr(perr); err != nil {
		return "", err
	}
	if c.Context != nil && c.Context.Err() != nil {
		return "", c.Context.Err()
	}
	return text, nil
}

// bind bounds c by ctx (nil keeps Config.Context) and reports a context
// that is already done.
func (c Config) bind(ctx context.Context) (Config, error) {
	if ctx != nil {
		c.Context = ctx
	}
	if c.Context != nil {
		return c, c.Context.Err()
	}
	return c, nil
}

// servedErr classifies a served job's contained panic: none is nil, a
// cancellation is its context error, anything else the panic itself.
func servedErr(perr *JobPanicError) error {
	if perr == nil {
		return nil
	}
	if cerr := cancelCause(perr.Value); cerr != nil {
		return cerr
	}
	return perr
}

// ValidateJob reports whether spec names a runnable job, without running
// it — the admission-time check servers use to reject a bad spec with a
// 400 instead of burning a pool slot to discover it. For JobTable specs
// the Variant is the experiment name.
func (c Config) ValidateJob(spec JobSpec) error {
	if spec.Kind == JobTable {
		if spec.Block > 0 || spec.Steps != 0 {
			return fmt.Errorf("%w: block/steps do not apply to experiment jobs", ErrBadJobSpec)
		}
		_, err := LookupExperiment(spec.Variant)
		return err
	}
	_, err := c.resolve(spec)
	return err
}

// resolve validates every field of spec and fills in every default,
// returning the job it names at this Config. It is the one mapping from
// spec to simulation: tables resolve their rows through it before the
// first job starts, and served jobs before they run.
func (c Config) resolve(spec JobSpec) (job, error) {
	m, err := c.jobMachine(spec)
	if err != nil {
		return job{}, err
	}
	j := job{kind: spec.Kind, variant: strings.ToLower(spec.Variant), machine: m}
	if j.variant == "" {
		j.variant = "threaded"
	}
	if spec.Block > 0 && j.variant != "threaded" {
		return job{}, fmt.Errorf("%w: block override needs the threaded variant, got %q", ErrBadJobSpec, spec.Variant)
	}
	variants, ok := jobVariants[spec.Kind]
	switch {
	case spec.Kind == JobTable:
		return job{}, fmt.Errorf("%w: experiment jobs go through RunExperiment", ErrBadJobSpec)
	case !ok:
		return job{}, fmt.Errorf("%w: unknown kind %q", ErrBadJobSpec, spec.Kind)
	case !slices.Contains(variants, j.variant):
		return job{}, fmt.Errorf("%w: unknown %s variant %q", ErrBadJobSpec, spec.Kind, spec.Variant)
	}
	if j.variant == "threaded" {
		j.block = spec.Block
		if j.block == 0 {
			j.block = defaultBlock(spec.Kind, m.L2CacheSize())
		}
	}
	if spec.Kind == JobNBody {
		j.steps = spec.Steps
		if j.steps <= 0 {
			j.steps = c.NBodySteps
		}
	}
	return j, nil
}

// jobMachine resolves the spec's machine model: the SGI models at the
// Config's scale (N-body jobs at the N-body scale, exactly as the tables
// do), the modern core unscaled.
func (c Config) jobMachine(spec JobSpec) (machine.Machine, error) {
	scale := c.Scale
	if spec.Kind == JobNBody {
		scale = c.NBodyScale
	}
	switch strings.ToLower(spec.Machine) {
	case "", "r8000":
		return machine.R8000().Scaled(scale), nil
	case "r10000":
		return machine.R10000().Scaled(scale), nil
	case "modern":
		return machine.Modern(), nil
	default:
		return machine.Machine{}, fmt.Errorf("%w: unknown machine %q", ErrBadJobSpec, spec.Machine)
	}
}

// cancelCause walks a contained panic chain looking for a cancellation:
// a *sim.CancelledError however deeply wrapped (inside thread, consumer,
// or job panics), or any error chain containing the context sentinels.
// It returns the matched context error, or nil for a genuine failure.
func cancelCause(v any) error {
	for depth := 0; depth < 32; depth++ {
		switch e := v.(type) {
		case *JobPanicError:
			v = e.Value
		case *core.ThreadPanicError:
			v = e.Value
		case *trace.ConsumerPanicError:
			v = e.Value
		case *trace.SliceConsumerPanicError:
			v = e.Value
		case *sim.CancelledError:
			return e.Err
		case error:
			if errors.Is(e, context.Canceled) {
				return context.Canceled
			}
			if errors.Is(e, context.DeadlineExceeded) {
				return context.DeadlineExceeded
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}
