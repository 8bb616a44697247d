package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"threadsched/internal/harness"
	"threadsched/internal/tables"
)

// digests.json holds the sha256 of each table's locality-bench output,
// normalized by tableDigest, as rendered at the commit that added this
// benchmark. The reproduction promises byte-identical tables, so any
// change is a failed operation.
//
//go:embed digests.json
var digestsJSON []byte

var tableDigests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("benchmark: digests.json: " + err.Error())
	}
	return m
}()

// wallNote marks the only host-timed line of a rendered table.
const wallNote = "note: harness wall time:"

// tableDigest hashes locality-bench output with its wall-time notes
// removed; the result equals
//
//	locality-bench -size quick -exp <table> | grep -v 'note: harness wall time:' | sha256sum
func tableDigest(out []byte) string {
	var b bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.Contains(line, wallNote) {
			b.WriteString(line)
		}
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// runTables renders each table of the set with its own locality-bench
// invocation, in a seeded order per pass, and checks each output's
// digest. Set-up is the program's start-up (-list), the fixed cost every
// invocation pays.
func runTables(e *env) (*runResult, error) {
	r := newResult("tables", e)
	lb := filepath.Join(e.bin, "locality-bench")
	var setup []float64
	for i := 0; i < 4*e.size.SetupReps; i++ {
		p, err := runProgram(e.ctx, lb, "-list")
		if err != nil {
			return nil, err
		}
		setup = append(setup, p.wall.Seconds())
	}

	walls := map[string][]float64{}
	peaks := map[string][]float64{}
	order := append([]string(nil), e.size.Tables...)
	end := time.Now().Add(e.seconds)
	for pass := 0; pass < e.size.Passes || time.Now().Before(end); pass++ {
		e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, t := range order {
			r.Attempted++
			p, err := runProgram(e.ctx, lb, "-size", "quick", "-exp", t)
			if err != nil {
				if e.ctx.Err() != nil {
					return nil, err
				}
				r.fail("%s: %v", t, err)
				continue
			}
			if got, want := tableDigest(p.out), e.digests[t]; got != want {
				r.fail("%s: output digest %s, want %s", t, got, want)
				continue
			}
			walls[t] = append(walls[t], p.wall.Seconds())
			peaks[t] = append(peaks[t], p.peakMB)
		}
	}
	if len(walls) < len(e.size.Tables) {
		return r, fmt.Errorf("%w: no valid run of some table", errFailed)
	}
	pass := sumOfMedians(walls)
	r.Metrics["latency_ms"] = scale(pass, 1000)
	r.Metrics["throughput_per_s"] = inverse(pass, float64(len(e.size.Tables)))
	r.Metrics["peak_rss_mb"] = largestMedian(peaks)
	r.Metrics["setup_s"] = summarize(setup)
	for t, xs := range walls {
		r.Samples["wall_s."+t] = xs
	}
	return r, nil
}

// partTables renders the table set in-process through the harness, one
// trace per table, then renders it again through the harness's parallel
// job pool.
func partTables(e *env, t *tracer, r *runResult) error {
	cfg := harness.Quick()
	for _, name := range e.size.Tables {
		root := t.begin(nil, "table."+name)
		h := t.begin(root, "harness.table."+name)
		tab, err := experiment(cfg, name)
		h.end(0)
		if err != nil {
			return err
		}
		rd := t.begin(root, "tables.render")
		tab.Render(io.Discard)
		rd.end(0)
		root.end(0)
		if len(tab.Rows) == 0 {
			r.fail("%s: rendered no rows", name)
		}
	}
	cfg.Parallel = e.workers
	pool := t.begin(nil, "harness.pool")
	for _, name := range e.size.Tables {
		if _, err := experiment(cfg, name); err != nil {
			return err
		}
	}
	pool.end(0)
	return nil
}

// experiment runs one table of the set at cfg.
func experiment(cfg harness.Config, name string) (*tables.Table, error) {
	run, ok := map[string]func(harness.Progress) *tables.Table{
		"table3": cfg.Table3, "table4": cfg.Table4, "table5": cfg.Table5,
		"table6": cfg.Table6, "table7": cfg.Table7, "table9": cfg.Table9,
	}[name]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return run(nil), nil
}
