package main

import (
	"math"
	"strings"
	"testing"

	"threadsched/internal/server"
)

const tableOut = `Thread Scheduling for Cache Locality (ASPLOS 1996) — reproduction harness
size=quick (cache scale ÷64, N-body ÷16)

Table 7: SOR references
  L2 misses        68225   134
  note: harness wall time: 463ms
`

func TestTableDigestIgnoresOnlyWallTime(t *testing.T) {
	base := tableDigest([]byte(tableOut))
	if got := tableDigest([]byte(strings.Replace(tableOut, "463ms", "1.2s", 1))); got != base {
		t.Error("digest depends on the harness wall time note")
	}
	if got := tableDigest([]byte(strings.Replace(tableOut, "134", "135", 1))); got == base {
		t.Error("digest ignores a changed table cell")
	}
	without := strings.Replace(tableOut, "  note: harness wall time: 463ms\n", "", 1)
	if got := tableDigest([]byte(without)); got != base {
		t.Error("digest with the note differs from the output without it")
	}
}

func TestEveryTableHasADigest(t *testing.T) {
	for _, name := range benchSizes.Tables {
		if len(tableDigests[name]) != 64 {
			t.Errorf("no sha256 digest for %s", name)
		}
	}
}

const tracesimOut = `references: total 8454144 (ifetch 1200000, load 5000000, store 2254144)
L1I  32KB/32B/1-way          accesses      1200000  misses          120  rate   0.01%  writebacks 0
L1D  16KB/32B/1-way          accesses      7254144  misses      1000000  rate  13.79%  writebacks 250000
L2   256KB/128B/4-way        accesses      1000120  misses        24000  rate   2.40%  writebacks 9000
L2 miss classification: compulsory 3000, capacity 20000, conflict 1000
`

func TestParseReport(t *testing.T) {
	got, err := parseReport([]byte(tracesimOut))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"refs.total": 8454144, "refs.ifetch": 1200000, "refs.load": 5000000, "refs.store": 2254144,
		"L1I.accesses": 1200000, "L1I.misses": 120, "L1I.writebacks": 0,
		"L1D.accesses": 7254144, "L1D.misses": 1000000, "L1D.writebacks": 250000,
		"L2.accesses": 1000120, "L2.misses": 24000, "L2.writebacks": 9000,
		"L2.compulsory": 3000, "L2.capacity": 20000, "L2.conflict": 1000,
	}
	if !equalCounters(got, want) {
		t.Fatalf("parseReport = %v\nwant %v", got, want)
	}
	if err := sameCounters([]byte(tracesimOut), want); err != nil {
		t.Fatalf("matching report rejected: %v", err)
	}
	mutated := strings.Replace(tracesimOut, "misses        24000", "misses        24001", 1)
	if err := sameCounters([]byte(mutated), want); err == nil {
		t.Fatal("report with a changed miss count accepted")
	}
	if _, err := parseReport([]byte("tracesim: reading trace: truncated\n")); err == nil {
		t.Fatal("report without a references line accepted")
	}
}

func TestCheckServedRejectsMutations(t *testing.T) {
	want := server.Result{Instructions: 10, L2Misses: 3, L2Rate: 0.5, ModelSeconds: 0.01}
	res := want
	ok := server.Status{ID: "j1", State: "done", Result: &res}
	if err := checkServed(ok, want); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}
	bad := want
	bad.L2Rate = math.Nextafter(bad.L2Rate, 1)
	for _, st := range []server.Status{
		{ID: "j2", State: "done", Result: &bad},
		{ID: "j3", State: "failed", Error: "boom"},
		{ID: "j4", State: "cancelled"},
		{ID: "j5", State: "done"},
	} {
		if err := checkServed(st, want); err == nil {
			t.Errorf("status %+v accepted", st)
		}
	}
}

func TestNativeCompareCatchesOneBit(t *testing.T) {
	k := newKernels(nativeSizes{MatmulN: 8, SORN: 9, SORIters: 1, PDEN: 9, PDEIters: 1, NBodyN: 16}, 1)
	want := k.outputs()
	if msg := k.compare(want); msg != "" {
		t.Fatalf("identical outputs differ: %s", msg)
	}
	k.grid.R[3] = math.Float64frombits(math.Float64bits(k.grid.R[3]) ^ 1)
	if msg := k.compare(want); !strings.Contains(msg, "pde R[3]") {
		t.Fatalf("flipped bit reported as %q", msg)
	}
}
