// Command pipebench is the repository's end-to-end benchmark. It drives
// the tracing pipeline's real layers through their public functions —
// producers (core.Tracer, shm client and agent), the relay wire, the live
// collector and the trace store with its HTTP surface — on seeded
// workloads, checks the outputs, and prints every metric by name with
// its unit. README.md explains the workloads and what each metric is
// expected to move.
//
//	pipebench --workload ingest|mixed --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is split into an untraced
// and a traced half, the per-layer metrics come from spans recorded
// around each public call in the traced half, and the span file is
// written under --spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	work     string
	spans    string
	short    bool
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "ingest or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for spills, segments and stores")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory the traced run writes its span file to")
	flag.Parse()
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	if cfg.dur <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "pipebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	steal := stealSeconds()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	e := environment(cfg.seed)
	// CPU time the hypervisor gave to other guests during the run: the
	// first thing to look at when a run reads slower than its neighbours.
	e["steal_s"] = stealSeconds() - steal
	env, _ := json.Marshal(map[string]any{"env": e, "workload": cfg.workload, "checks": res.checks,
		"counts": res.counts})
	fmt.Println(string(env))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the workload up setupRuns times, then measures it: one
// untraced phase, or an untraced and a traced half.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	r := newResult()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	// Each phase starts from a collected heap, so garbage from set-up or
	// an earlier phase does not land in its measurements.
	runtime.GC()
	if !cfg.trace {
		out, err := w.phase(cfg.dur, nil, r)
		if err != nil {
			return nil, err
		}
		for name, v := range out.e2e {
			r.set(name, v, units[name])
		}
		r.set("setup_s", median(setups), "s")
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		r.Attempted, r.Failed = out.attempted, out.failed
		r.counts = out.counts
		r.counts["setups"] = len(setups)
		return r, nil
	}
	// The halves alternate in order from seed to seed, so drift of the
	// host or growth of the heap over a run does not always land on the
	// same half.
	sp := newSpanRec()
	order := []*spanRec{nil, sp}
	if cfg.seed%2 != 0 {
		order[0], order[1] = sp, nil
	}
	var base, traced *phaseOut
	for i, s := range order {
		if i > 0 {
			runtime.GC()
		}
		out, err := w.phase(cfg.dur/2, s, r)
		if err != nil {
			return nil, err
		}
		if s == nil {
			base = out
		} else {
			traced = out
		}
	}
	path, err := sp.write(cfg.spans, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "pipebench: spans written to", path)
	layerMetrics(r, traced, summarize(sp.spans))
	for name, v := range traced.e2e {
		cost := frac(v-base.e2e[name], base.e2e[name])
		if higherBetter[name] {
			cost = -cost
		}
		r.set("overhead."+name, cost, "frac")
	}
	r.counts = traced.counts
	r.Attempted = base.attempted + traced.attempted
	r.Failed = base.failed + traced.failed
	return r, nil
}
