package sim

import (
	"context"
	"errors"
	"testing"

	"threadsched/internal/core"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

// TestThreadsRunContextContainsPanic: a panicking traced thread surfaces
// as a *core.ThreadPanicError through the sim wrapper, and the reference
// stream recorded up to the panic stays a sane prefix (fork costs for
// all threads, run costs only for the threads that started).
func TestThreadsRunContextContainsPanic(t *testing.T) {
	var c trace.Counts
	cpu := NewCPU(&c)
	as := vm.NewAddressSpace()
	th := NewThreads(cpu, as, core.New(core.Config{CacheSize: 1 << 20}))
	for i := 0; i < 10; i++ {
		i := i
		th.Fork(func(int, int) {
			if i == 4 {
				panic("traced thread blew up")
			}
		}, i, 0, 0, 0, 0)
	}
	forkRefs := c // forks already recorded; threads not yet started
	err := th.Sched.RunContext(context.Background(), false)
	var tp *core.ThreadPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("err = %v, want *core.ThreadPanicError", err)
	}
	if tp.Value != "traced thread blew up" || tp.Thread != 4 {
		t.Errorf("ThreadPanicError = %+v", tp)
	}
	// 4 threads started before the panic; each start loads the 3-word
	// thread record. The panicking thread's loads happened too (the body
	// panics after the record reload).
	wantLoads := forkRefs.Loads() + 5*3
	if c.Loads() != wantLoads {
		t.Errorf("recorded %d loads, want %d (partial stream must be a prefix)", c.Loads(), wantLoads)
	}
}

// TestThreadsRunContextCancelled: cancellation passes through the sim
// wrapper to the scheduler.
func TestThreadsRunContextCancelled(t *testing.T) {
	cpu := NewCPU(nil)
	th := NewThreads(cpu, vm.NewAddressSpace(), core.New(core.Config{CacheSize: 1 << 20}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	th.Fork(func(int, int) { ran = true }, 0, 0, 0, 0, 0)
	if err := th.Sched.RunContext(ctx, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("thread ran under a cancelled context")
	}
	// The failed run destroyed the schedule; fork again for the run-each
	// variant.
	th.Fork(func(int, int) { ran = true }, 0, 0, 0, 0, 0)
	if err := th.Sched.RunEachContext(ctx, false, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunEachContext err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("thread ran under a cancelled context in RunEachContext")
	}
}
