package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"threadsched/internal/cache"
	"threadsched/internal/machine"
	"threadsched/internal/obs"
	"threadsched/internal/trace"
)

func TestParseCache(t *testing.T) {
	c, err := parseCache("2097152,128,4", "L2", true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size != 2<<20 || c.LineSize != 128 || c.Assoc != 4 || !c.Classify || c.Name != "L2" {
		t.Fatalf("parsed %+v", c)
	}
}

func TestParseCacheErrors(t *testing.T) {
	for _, spec := range []string{"", "1,2", "a,b,c", "1024,32,1,9", "1000,32,1"} {
		if _, err := parseCache(spec, "L1", false); err == nil {
			t.Errorf("parseCache(%q) succeeded, want error", spec)
		}
	}
}

func TestParseCacheWhitespace(t *testing.T) {
	c, err := parseCache(" 1024 , 32 , 2 ", "L1D", false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size != 1024 || c.Assoc != 2 {
		t.Fatalf("parsed %+v", c)
	}
}

// selectMachine turns bad -machine and -scale values into errors for
// fatal to print, not panics.
func TestSelectMachine(t *testing.T) {
	m, err := selectMachine("R10000", 16)
	if err != nil || m.Name != machine.R10000().Scaled(16).Name {
		t.Fatalf("selectMachine(R10000, 16) = %q, %v", m.Name, err)
	}
	for _, scale := range []uint64{0, 1} {
		if m, err := selectMachine("r8000", scale); err != nil || m.Name != machine.R8000().Name {
			t.Errorf("selectMachine(r8000, %d) = %q, %v; want the unscaled R8000", scale, m.Name, err)
		}
	}
	for _, tc := range []struct {
		name  string
		scale uint64
		want  string
	}{
		{"r8000", 3, "-scale 3 is not a power of two"},
		{"r8000", 24, "-scale 24 is not a power of two"},
		{"alpha", 1, `unknown machine "alpha"`},
	} {
		if _, err := selectMachine(tc.name, tc.scale); err == nil || err.Error() != tc.want {
			t.Errorf("selectMachine(%q, %d) err = %v, want %q", tc.name, tc.scale, err, tc.want)
		}
	}
}

// writeTrace writes n pseudo-random references over a 4 MiB address range
// to a trace file under dir and returns its path.
func writeTrace(t *testing.T, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	rng := uint64(7)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		k := trace.Kind(rng >> 62 % 3)
		w.Record(trace.Ref{Kind: k, Addr: (rng >> 20) % (1 << 22), Size: 8})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// serialReplay is the per-reference oracle the streamed replay is
// checked against: one goroutine decodes the file and records each
// reference into a fresh hierarchy with one Record call, then writes the
// same report replay would.
func serialReplay(w io.Writer, name string, newSetup func() (*simSetup, error)) error {
	s, err := newSetup()
	if err != nil {
		return err
	}
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.NewReader(f).ForEach(func(ref trace.Ref) error {
		s.h.Record(ref)
		return nil
	}); err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	s.report(w)
	return nil
}

// Streamed replays of one trace must render reports byte-identical to
// the serial oracle's, and multi-file runs label each report.
func TestReplayBatchSerialIdentical(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 20000)
	m := machine.R8000().Scaled(64)
	setup := setupFunc(m.Caches, 0, "", 0)
	var serial bytes.Buffer
	if err := serialReplay(&serial, path, setup); err != nil {
		t.Fatal(err)
	}
	// GOMAXPROCS=1 drains the pipeline inline; 2 runs its consumer
	// goroutine.
	for _, procs := range []int{1, 2} {
		var batch bytes.Buffer
		prev := runtime.GOMAXPROCS(procs)
		err := replay(context.Background(), &batch, path, false, setup, nil, 0)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if serial.String() != batch.String() {
			t.Errorf("GOMAXPROCS=%d: batch replay diverges from serial:\nserial:\n%s\nbatch:\n%s", procs, serial.String(), batch.String())
		}
	}

	// -metrics attaches the pipeline to the input's track: its chunks
	// are counted next to tracesim.refs, and the report does not change.
	o := obs.New(2)
	track := o.AcquireTrack()
	var observed bytes.Buffer
	if err := replay(context.Background(), &observed, path, false, setup, o, track); err != nil {
		t.Fatal(err)
	}
	if observed.String() != serial.String() {
		t.Errorf("observed batch replay diverges from serial:\n%s", observed.String())
	}
	counters := map[string]uint64{}
	for _, c := range o.Snapshot().Counters {
		counters[c.Name] = c.PerTrack[track]
	}
	if counters["tracesim.refs"] != 20000 || counters["pipe.chunks"] == 0 {
		t.Errorf("track %d: tracesim.refs %d (want 20000), pipe.chunks %d (want > 0)",
			track, counters["tracesim.refs"], counters["pipe.chunks"])
	}

	var labeled bytes.Buffer
	if err := replay(context.Background(), &labeled, path, true, setup, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(labeled.String(), "== "+path+" ==\n") {
		t.Errorf("multi-file replay not labeled:\n%s", labeled.String())
	}
}

// A replay through a physically indexed L2 and a data TLB, with L2 miss
// classification on, renders a report byte-identical to the serial
// oracle's through its own page table and TLB built the same way.
func TestReplayTranslatedSerialIdentical(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 20000)
	cfg := machine.R8000().Scaled(64).Caches
	if !cfg.L2.Classify {
		t.Fatal("the R8000's L2 does not classify misses")
	}
	setup := setupFunc(cfg, 4096, "random", 16)
	var serial bytes.Buffer
	if err := serialReplay(&serial, path, setup); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"L2 miss classification:", "vm: policy random,", "dtlb: 16 entries,"} {
		if !strings.Contains(serial.String(), want) {
			t.Fatalf("serial report lacks %q:\n%s", want, serial.String())
		}
	}
	for _, procs := range []int{1, 2} {
		var batch bytes.Buffer
		prev := runtime.GOMAXPROCS(procs)
		err := replay(context.Background(), &batch, path, false, setup, nil, 0)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if serial.String() != batch.String() {
			t.Errorf("GOMAXPROCS=%d: translated replay diverges from serial:\nserial:\n%s\nbatch:\n%s", procs, serial.String(), batch.String())
		}
	}
}

// The default path streams: replaying a 4M-reference (~23 MB) trace
// allocates only the
// reader's and the pipeline's fixed buffers, never the file image.
func TestReplayMemoryIndependentOfTraceSize(t *testing.T) {
	path := writeTrace(t, t.TempDir(), 4<<20)
	setup := setupFunc(machine.R8000().Scaled(64).Caches, 0, "", 0)
	var before, after runtime.MemStats
	var out bytes.Buffer
	runtime.ReadMemStats(&before)
	err := replay(context.Background(), &out, path, false, setup, nil, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "references: total 4194304 ") {
		t.Fatalf("report:\n%s", out.String())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Errorf("replay allocated %d bytes, want < %d (is the trace preloaded?)", grew, 2<<20)
	}
}

// A damaged trace fails the replay with a typed error, and no report is
// written.
func TestReplayDamagedTrace(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, 20000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x40
	setup := setupFunc(machine.R8000().Scaled(64).Caches, 0, "", 0)
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", data[:len(data)/2], trace.ErrTruncated},
		{"flipped", flipped, trace.ErrCorrupt},
	} {
		damaged := filepath.Join(dir, tc.name+".trace")
		if err := os.WriteFile(damaged, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := replay(context.Background(), &out, damaged, false, setup, nil, 0)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: damaged replay wrote a report:\n%s", tc.name, out.String())
		}
	}
}

// Cancelling a streamed stdin replay mid-trace returns context.Canceled
// and releases the pipeline's consumer goroutine.
func TestReplayCancelledReleasesPipeline(t *testing.T) {
	data, err := os.ReadFile(writeTrace(t, t.TempDir(), 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	stdin := os.Stdin
	os.Stdin = pr
	defer func() { os.Stdin = stdin }()

	// Two processors, so the pipeline runs a consumer goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	setup := setupFunc(machine.R8000().Scaled(64).Caches, 0, "", 0)
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- replay(ctx, &out, "-", false, setup, nil, 0)
	}()
	// The pipe holds far less than a quarter of the trace, so this
	// write returns only once the replay is well under way.
	half := len(data) / 2
	if _, err := pw.Write(data[:half]); err != nil {
		t.Fatal(err)
	}
	cancel()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		pw.Write(data[half:]) // fails once the reader end is closed
		pw.Close()
	}()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled replay returned %v, want context.Canceled", err)
	}
	pr.Close()
	<-wrote
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the cancelled replay, %d before", n, base)
	}
}

func TestReport(t *testing.T) {
	m := machine.R8000().Scaled(64)
	h := cache.MustNewHierarchy(m.Caches, nil)
	h.Record(trace.Ref{Kind: trace.IFetch, Addr: 0, Size: 4})
	h.Record(trace.Ref{Kind: trace.Load, Addr: 0x1000, Size: 8})
	h.Record(trace.Ref{Kind: trace.Store, Addr: 0x2000, Size: 8})
	var buf bytes.Buffer
	report(&buf, h, m.Caches, nil)
	out := buf.String()
	for _, want := range []string{
		"total 3 (ifetch 1, load 1, store 1)",
		"L1I", "L1D", "L2",
		"classification: compulsory 3, capacity 0, conflict 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
