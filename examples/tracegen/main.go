// Tracegen demonstrates the Pixie-style tracing substrate: it runs an
// instrumented workload variant, writes its address trace to a file in the
// binary trace format, and prints a summary. The model CPU buffers the
// references and hands each full chunk of them to the trace.Writer by
// Exchange, without a copy; the Writer encodes them on its own goroutine
// while the workload keeps emitting. Feed the output to cmd/tracesim to
// replay it through any cache configuration:
//
//	go run ./examples/tracegen -workload sor -out /tmp/sor.trace
//	go run ./cmd/tracesim -machine r8000 -scale 64 /tmp/sor.trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"threadsched/internal/apps/matmul"
	"threadsched/internal/apps/sor"
	"threadsched/internal/sim"
	"threadsched/internal/trace"
	"threadsched/internal/vm"
)

func main() {
	workload := flag.String("workload", "sor", "workload to trace: sor, sor-threaded, matmul, matmul-threaded")
	n := flag.Int("n", 251, "problem size")
	iters := flag.Int("iters", 5, "iterations (sor)")
	out := flag.String("out", "workload.trace", "output trace file")
	cacheSize := flag.Uint64("cache", 32<<10, "cache size hint for threaded scheduling")
	flag.Parse()

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)

	cpu := sim.NewCPU(w).Buffer(0)
	as := vm.NewAddressSpace()
	switch *workload {
	case "sor":
		sor.NewTracedArray(cpu, as, *n).Untiled(*iters)
	case "sor-threaded":
		th := sim.NewThreads(cpu, as, sor.ThreadedScheduler(*cacheSize))
		sor.NewTracedArray(cpu, as, *n).Threaded(*iters, th)
	case "matmul":
		matmul.NewTraced(cpu, as, *n).Interchanged()
	case "matmul-threaded":
		th := sim.NewThreads(cpu, as, matmul.ThreadedScheduler(*cacheSize))
		matmul.NewTraced(cpu, as, *n).Threaded(th)
	default:
		log.Fatalf("unknown workload %q", *workload)
	}

	cpu.Flush()
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d references (%d instructions executed) to %s (%.1f MB, %.2f bytes/ref)\n",
		w.Count(), cpu.Instructions, *out,
		float64(info.Size())/(1<<20), float64(info.Size())/float64(w.Count()))
}
