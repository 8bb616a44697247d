package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"threadsched/internal/core"
	"threadsched/internal/machine"
	"threadsched/internal/sim"
	"threadsched/internal/tables"
	"threadsched/internal/trace"
)

// The serving surface: a JobSpec names one simulation (or one whole
// experiment) in plain strings, so a JSON request can be mapped onto the
// harness without the server knowing about variant enums, and
// Config.RunJob runs it with per-job containment — a panic inside the
// workload, the scheduler, or the pipeline comes back as an error, and a
// cancelled context comes back as that context's error, never as a
// panic. This is what cmd/tracesimd multiplexes tenants onto.

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
	// JobTable runs a whole experiment (Variant "table1".."table9" or
	// "figure4") and returns its rendered table via RunExperiment.
	JobTable JobKind = "table"
)

// JobSpec selects one simulation for RunJob. The zero value of each
// field means "the default": machine r8000, the kernel's threaded
// variant, Config-derived sizes.
type JobSpec struct {
	// Kind is the workload family (JobMatmul, JobPDE, JobSOR, JobNBody).
	Kind JobKind
	// Variant is the kind-specific variant name, e.g. "interchanged",
	// "tiled-transposed" or "threaded" for matmul; "" selects "threaded".
	Variant string
	// Machine is "r8000" (default), "r10000", or "modern"; it is scaled
	// by the Config exactly as the table experiments scale it.
	Machine string
	// Steps overrides Config.NBodySteps for N-body jobs (0 = default).
	Steps int
	// Block overrides the scheduler block size for threaded variants
	// (0 = the variant's paper default).
	Block uint64
	// Hook, when non-nil, runs inside the job's containment just before
	// the simulation — the seam the server's fault-injection tests use to
	// make a served job panic without teaching any kernel to fail.
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
	if ctx != nil {
		c.Context = ctx
	} else {
		ctx = c.Context
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return SimResult{}, err
		}
	}
	run, err := c.jobRunner(spec)
	if err != nil {
		return SimResult{}, err
	}
	what := spec.What()
	r, perr := c.runJobContained(simJob{key: what, what: what, run: func(Config) SimResult {
		if spec.Hook != nil {
			spec.Hook()
		}
		return run()
	}})
	if perr != nil {
		if cerr := cancelCause(perr.Value); cerr != nil {
			return SimResult{}, cerr
		}
		return SimResult{}, perr
	}
	return r, nil
}

// RunExperiment runs one whole experiment ("table1".."table9",
// "figure4") under the same containment and classification as RunJob,
// returning the rendered table text.
func (c Config) RunExperiment(ctx context.Context, name string) (string, error) {
	if ctx != nil {
		c.Context = ctx
	} else {
		ctx = c.Context
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return "", err
		}
	}
	fn, err := c.experimentRunner(name)
	if err != nil {
		return "", err
	}
	var text string
	_, perr := c.runJobContained(simJob{key: name, what: name, run: func(Config) SimResult {
		text = fn().String()
		return SimResult{}
	}})
	if perr != nil {
		if cerr := cancelCause(perr.Value); cerr != nil {
			return "", cerr
		}
		return "", perr
	}
	return text, nil
}

// experimentRunner maps an experiment name onto its table function.
func (c Config) experimentRunner(name string) (func() *tables.Table, error) {
	switch strings.ToLower(name) {
	case "table1":
		return c.Table1, nil
	case "table2":
		return func() *tables.Table { return c.Table2(nil) }, nil
	case "table3":
		return func() *tables.Table { return c.Table3(nil) }, nil
	case "table4":
		return func() *tables.Table { return c.Table4(nil) }, nil
	case "table5":
		return func() *tables.Table { return c.Table5(nil) }, nil
	case "table6":
		return func() *tables.Table { return c.Table6(nil) }, nil
	case "table7":
		return func() *tables.Table { return c.Table7(nil) }, nil
	case "table8":
		return func() *tables.Table { return c.Table8(nil) }, nil
	case "table9":
		return func() *tables.Table { return c.Table9(nil) }, nil
	case "figure4":
		return func() *tables.Table { return c.Figure4(nil) }, nil
	default:
		return nil, fmt.Errorf("%w: unknown experiment %q", ErrBadJobSpec, name)
	}
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
		_, err := c.experimentRunner(spec.Variant)
		return err
	}
	_, err := c.jobRunner(spec)
	return err
}

// jobRunner maps a spec onto the table runners, validating every field.
func (c Config) jobRunner(spec JobSpec) (func() SimResult, error) {
	m, err := c.jobMachine(spec)
	if err != nil {
		return nil, err
	}
	variant := strings.ToLower(spec.Variant)
	if variant == "" {
		variant = "threaded"
	}
	if spec.Block > 0 && variant != "threaded" {
		return nil, fmt.Errorf("%w: block override needs the threaded variant, got %q", ErrBadJobSpec, spec.Variant)
	}
	switch spec.Kind {
	case JobMatmul:
		if spec.Block > 0 {
			return func() SimResult { return c.RunMatmulThreadedBlock(m, spec.Block) }, nil
		}
		v, ok := map[string]MatmulVariant{
			"interchanged":       MatmulInterchanged,
			"transposed":         MatmulTransposed,
			"tiled-interchanged": MatmulTiledInterchanged,
			"tiled-transposed":   MatmulTiledTransposed,
			"threaded":           MatmulThreaded,
		}[variant]
		if !ok {
			return nil, fmt.Errorf("%w: unknown matmul variant %q", ErrBadJobSpec, spec.Variant)
		}
		return func() SimResult { return c.RunMatmul(v, m) }, nil
	case JobPDE:
		if spec.Block > 0 {
			return func() SimResult { return c.RunPDEThreadedBlock(m, spec.Block) }, nil
		}
		v, ok := map[string]PDEVariant{
			"regular":         PDERegular,
			"cache-conscious": PDECacheConscious,
			"threaded":        PDEThreaded,
		}[variant]
		if !ok {
			return nil, fmt.Errorf("%w: unknown pde variant %q", ErrBadJobSpec, spec.Variant)
		}
		return func() SimResult { return c.RunPDE(v, m) }, nil
	case JobSOR:
		if spec.Block > 0 {
			return func() SimResult { return c.RunSORThreadedBlock(m, spec.Block) }, nil
		}
		v, ok := map[string]SORVariant{
			"untiled":    SORUntiled,
			"hand-tiled": SORHandTiled,
			"threaded":   SORThreaded,
		}[variant]
		if !ok {
			return nil, fmt.Errorf("%w: unknown sor variant %q", ErrBadJobSpec, spec.Variant)
		}
		return func() SimResult { return c.RunSOR(v, m) }, nil
	case JobNBody:
		steps := spec.Steps
		if steps <= 0 {
			steps = c.NBodySteps
		}
		if spec.Block > 0 {
			return func() SimResult { return c.RunNBodyThreadedBlock(m, spec.Block) }, nil
		}
		v, ok := map[string]NBodyVariant{
			"unthreaded": NBodyUnthreaded,
			"threaded":   NBodyThreaded,
		}[variant]
		if !ok {
			return nil, fmt.Errorf("%w: unknown nbody variant %q", ErrBadJobSpec, spec.Variant)
		}
		return func() SimResult { return c.RunNBody(v, m, steps) }, nil
	case JobTable:
		return nil, fmt.Errorf("%w: experiment jobs go through RunExperiment", ErrBadJobSpec)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadJobSpec, spec.Kind)
	}
}

// jobMachine resolves the spec's machine model at the Config's scale;
// N-body jobs use the N-body scale exactly as the tables do.
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
		return machine.Modern().Scaled(scale), nil
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
