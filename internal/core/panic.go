package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ThreadPanicError is the typed error the context-taking run entry points
// (Scheduler.RunContext, Scheduler.RunEachContext, DepScheduler.RunContext)
// return when a thread body panics. The panic is recovered on the worker
// that executed the thread, the run quiesces cleanly (every pooled worker
// stops at its next bin boundary and parks; no goroutine leaks), and the
// first panic — by happens-before order of detection — is surfaced with
// enough context to find the thread that blew up.
//
// The legacy panicking entry points (Scheduler.Run, Scheduler.RunEach,
// DepScheduler.Run) re-panic with the *ThreadPanicError as the panic
// value, so their callers still observe a panic exactly as before
// containment, just a more diagnosable one.
type ThreadPanicError struct {
	// Value is the recovered panic value of the thread body.
	Value any
	// Phase names the execution path: "run" (Scheduler.RunContext, serial
	// or parallel dispatch), "run-each" (RunEachContext), or "dataflow"
	// (DepScheduler, at every worker count).
	Phase string
	// Worker is the worker index that executed the thread; 0 is the
	// goroutine that called Run.
	Worker int
	// Bin locates the thread's bin: the tour index for Scheduler runs, or
	// the DepScheduler's bin index (bins number in first-fork order) for
	// "dataflow".
	Bin int
	// Thread identifies the thread within the bin: its fork-order index
	// for Scheduler runs, or its ThreadID for DepScheduler runs.
	Thread int
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error describes the panic and where it happened.
func (e *ThreadPanicError) Error() string {
	return fmt.Sprintf("core: thread %d in bin %d panicked on worker %d during %s: %v",
		e.Thread, e.Bin, e.Worker, e.Phase, e.Value)
}

// runControl coordinates one run's fault containment and cancellation
// across workers: the first recovered panic wins, and a set stop flag (or
// an expired context) makes every worker exit at its next bin boundary.
type runControl struct {
	ctx  context.Context
	stop atomic.Bool
	mu   sync.Mutex
	perr *ThreadPanicError
}

func newRunControl(ctx context.Context) *runControl {
	return &runControl{ctx: ctx}
}

// halted reports whether workers should stop claiming bins: a panic was
// recorded or the context is done. Called once per bin (once per thread
// by the DepScheduler's executor); the fast path is one relaxed
// atomic load plus ctx.Err (a nil return for Background).
func (c *runControl) halted() bool {
	return c.stop.Load() || c.ctx.Err() != nil
}

// record stores the first panic and stops the run.
func (c *runControl) record(p *ThreadPanicError) {
	c.mu.Lock()
	if c.perr == nil {
		c.perr = p
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// err returns the run's verdict once all workers have quiesced: the first
// recorded panic, else the context's error, else nil. Must be called
// after the worker barrier (fanOut's WaitGroup), which orders all record
// calls before it.
func (c *runControl) err() error {
	c.mu.Lock()
	p := c.perr
	c.mu.Unlock()
	if p != nil {
		return p
	}
	return c.ctx.Err()
}

// runBinContained executes every thread of one bin — group FIFO order, as
// runBin did before containment — recovering a thread panic into a
// *ThreadPanicError that identifies the thread. Threads executed before
// the panic are still counted into the lifetime totals, so Stats stays
// truthful about partially executed runs.
func (s *Scheduler) runBinContained(b *bin, binIdx, worker int, phase string) (n int, perr *ThreadPanicError) {
	executed := 0
	defer func() {
		atomic.AddUint64(&s.totalRun, uint64(executed))
		n = executed
		if r := recover(); r != nil {
			perr = &ThreadPanicError{
				Value:  r,
				Phase:  phase,
				Worker: worker,
				Bin:    binIdx,
				Thread: executed, // fork-order index of the panicking thread
				Stack:  debug.Stack(),
			}
		}
	}()
	for g := b.groups; g != nil; g = g.next {
		for i := range g.recs {
			r := &g.recs[i]
			r.fn(r.arg1, r.arg2)
			executed++
		}
	}
	return executed, nil
}
