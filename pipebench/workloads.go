package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/store"
)

// sizes are the input sizes of one run; tests use smaller ones.
type sizes struct {
	traces int // seeded sdet traces in the replay set
	checks int // latest dashboard answers re-checked against noprune
}

var fullSizes = sizes{traces: 8, checks: 8}
var shortSizes = sizes{traces: 2, checks: 4}

const (
	tenant = "bench"
	// cacheBytes is tracestored's default result-cache budget.
	cacheBytes = 256 << 20
	// segmentSpan splits each handoff session into several segments so
	// compaction has work (trace ticks are nanoseconds).
	segmentSpan = 2_000_000
	// retainSessions is the deployment store's byte budget in sessions.
	retainSessions = 24
	// maintainEvery is how many sessions pass between Compact+GC.
	maintainEvery = 10
	// ingestSaturatePct is the share of ingest's measured time, in
	// percent, that the producers saturate the pipeline; the deployment
	// path runs for the rest.
	ingestSaturatePct = 30
)

func share(d time.Duration, pct int) time.Duration { return d * time.Duration(pct) / 100 }

// phaseOut is one timed phase's measurements.
type phaseOut struct {
	e2e       map[string]float64
	pt        *pipeTally // the write path the per-layer metrics describe
	qt        *queryTally
	alloc     uint64 // bytes allocated during the timed region
	gcFrac    float64
	lost      uint64 // events logged but not accounted for downstream
	attempted int64
	failed    int64
	counts    map[string]int // sample counts behind the medians and percentiles
}

// workload is one of the benchmark's input sets. setup is called several
// times (the last one stays); phase measures for dur and may be called
// twice, untraced and traced.
type workload interface {
	setup() error
	phase(dur time.Duration, sp *spanRec, r *result) (*phaseOut, error)
}

func newWorkload(cfg config) (workload, error) {
	sz := fullSizes
	if cfg.short {
		sz = shortSizes
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	switch cfg.workload {
	case "ingest":
		return &ingestWL{cfg: cfg, sz: sz}, nil
	case "mixed":
		return &mixedWL{cfg: cfg, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest or mixed)", cfg.workload)
}

// concat joins the traces' records into one replay cycle.
func concat(traces []*trace) []rec {
	var out []rec
	for _, t := range traces {
		out = append(out, t.recs...)
	}
	return out
}

// sessionBudget is the deployment store's byte budget: retainSessions
// sessions of the trace set's mean size.
func sessionBudget(traces []*trace) int64 {
	var bytes int
	for _, t := range traces {
		bytes += t.bytes
	}
	return int64(retainSessions * bytes / len(traces))
}

// writeE2E sets the write-path end-to-end metrics from what pt recorded:
// the saturated producers' chunks when it has them (events per second
// while they ran), else its handoff sessions (events over the time from
// first Log to Drain return).
func writeE2E(m map[string]float64, pt *pipeTally) {
	var events uint64
	var producer, span time.Duration
	if len(pt.chunks) > 0 {
		for _, c := range pt.chunks {
			events += c.events
			producer += c.d
		}
		span = pt.to.Sub(pt.from)
	} else {
		for _, s := range pt.sessions {
			events += s.events
			producer += s.producer
			span += s.ingest
		}
	}
	m["ingest_events_per_s"] = frac(float64(events), span.Seconds())
	m["producer_ns_per_event"] = frac(float64(producer.Nanoseconds()), float64(events))
}

func freshE2E(m map[string]float64, pt *pipeTally) {
	var fresh []float64
	for _, s := range pt.sessions {
		fresh = append(fresh, s.fresh)
	}
	m["freshness_p50_ms"] = median(fresh)
	m["freshness_p90_ms"] = quantile(fresh, 0.9)
}

func readE2E(m map[string]float64, qt *queryTally) {
	byClass, all, ok, secs := qt.latencies()
	m["queries_per_s"] = frac(float64(ok), secs)
	m["narrow_p50_ms"] = median(byClass[classNarrow])
	m["agg_p50_ms"] = median(byClass[classAgg])
	m["listing_p50_ms"] = median(byClass[classListing])
	m["query_p90_ms"] = quantile(all, 0.9)
}

// sampleCounts counts what a phase's medians and percentiles rest on:
// the handoff sessions and the queries of each class.
func sampleCounts(pt *pipeTally, qt *queryTally) map[string]int {
	m := map[string]int{"sessions": len(pt.sessions)}
	byClass, _, _, _ := qt.latencies()
	for c, name := range classNames {
		m[name] = len(byClass[c])
	}
	return m
}

// checkHandoffs verifies one tenant's handoff sessions: every session's
// marker was found by /query, and stored events plus GC-retired events
// equal logged events plus the tracers' clock anchors. It returns the
// events lost.
func checkHandoffs(r *result, st *store.Store, ten string, pt *pipeTally) (lost uint64) {
	r.check("handoff.markers", pt.uploads > 0 && len(pt.sessions) == int(pt.uploads),
		"tenant %s: %d of %d sessions' markers found", ten, len(pt.sessions), pt.uploads)
	stored, _ := storedEvents(st, ten)
	want := pt.logged + pt.anchors
	r.check("handoff.stored+retired=logged", stored+pt.gcEvents == want && pt.stored == want,
		"tenant %s: stored %d + retired %d, ingested %d, logged+anchors %d", ten, stored, pt.gcEvents, pt.stored, want)
	lost = pt.failedLogs + pt.unseen
	if stored+pt.gcEvents < want {
		lost += want - stored - pt.gcEvents
	}
	return lost
}

// checkNoprune re-issues the kept answers with noprune=1 on a fresh Store
// over root. It runs after the serving Store is closed, outside the timed
// region.
func checkNoprune(r *result, root string, samples []sample) error {
	st, err := store.Open(store.Options{Root: root})
	if err != nil {
		return err
	}
	defer st.Close()
	bad := checkSamples(st, samples)
	r.check("query.pruned=noprune", bad == 0 && len(samples) > 0,
		"%d of %d kept answers differ from noprune", bad, len(samples))
	return nil
}

// deploy runs the deployment path on a fresh store under dir for dur: a
// session driver hands session after session to the store (Compact and
// GC every maintainEvery sessions, under a budget of retainSessions
// sessions) while a dashboard client queries the newest session. It
// checks the sessions and the latest answers and sets every end-to-end
// metric from them.
func deploy(cfg config, sz sizes, dir string, traces []*trace, dur time.Duration, sp *spanRec,
	r *result) (*phaseOut, error) {
	root := filepath.Join(dir, "store")
	st, err := store.Open(store.Options{Root: root, CacheBytes: cacheBytes, SegmentSpan: segmentSpan,
		RetainBytes: sessionBudget(traces)})
	if err != nil {
		return nil, err
	}
	srv, err := serveStore(st)
	if err != nil {
		st.Close()
		return nil, err
	}

	pt := &pipeTally{}
	qt := &queryTally{}
	var (
		mu     sync.Mutex
		newest sessionRange
		runErr error
	)
	runtime.GC()
	p0 := readProc()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		q := newQuerier(st, srv.base, sp, cfg.trace)
		defer q.close()
		h := &handoff{st: st, tenant: tenant, q: q, clk: clock.NewSync(), dir: dir, root: root, sp: sp, t: pt}
		for id := uint64(1); time.Now().Before(deadline); id++ {
			rg, err := h.run(id, traces[int(id)%len(traces)])
			if err == nil && id%maintainEvery == 0 {
				err = h.maintain()
			}
			mu.Lock()
			newest, runErr = rg, err
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		q := newQuerier(st, srv.base, sp, cfg.trace)
		defer q.close()
		g := newQueryGen(cfg.seed*104729, tenant)
		draw := func() (int, store.Params, bool) {
			mu.Lock()
			rg := newest
			mu.Unlock()
			if rg.hi == 0 {
				return 0, store.Params{}, false
			}
			c, p := g.dashboard(rg.lo, rg.hi)
			return c, p, true
		}
		queryLoop(q, draw, deadline, sz.checks, 1<<40, qt)
	}()
	wg.Wait()
	p1 := readProc()
	srv.close()
	if runErr != nil {
		st.Close()
		return nil, runErr
	}
	out := &phaseOut{e2e: map[string]float64{}, pt: pt, qt: qt, counts: sampleCounts(pt, qt)}
	out.lost = checkHandoffs(r, st, tenant, pt)
	out.alloc, out.gcFrac = p1.since(p0)
	writeE2E(out.e2e, pt)
	freshE2E(out.e2e, pt)
	readE2E(out.e2e, qt)
	ev, by := storedEvents(st, tenant)
	out.e2e["stored_bytes_per_event"] = frac(float64(by), float64(ev))
	out.attempted = qt.attempted + int64(pt.logged)
	out.failed = qt.failed + int64(out.lost)
	st.Close()
	if err := checkNoprune(r, root, qt.samples); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- ingest -----------------------------------------------------------

// ingestWL saturates the write path with no store: an in-process tracer
// and an shm client, one goroutine each, feed one collector with a spill.
type ingestWL struct {
	cfg    config
	sz     sizes
	traces []*trace
	recs   []rec
	n      int
}

func (w *ingestWL) setup() error {
	traces, err := genTraces(w.cfg.seed, w.sz.traces)
	if err != nil {
		return err
	}
	w.traces, w.recs = traces, concat(traces)
	return nil
}

func (w *ingestWL) phase(dur time.Duration, sp *spanRec, r *result) (*phaseOut, error) {
	w.n++
	dir := filepath.Join(w.cfg.work, fmt.Sprintf("ingest-%d", w.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spillPath := filepath.Join(dir, "spill.ktr")
	sess, err := newSession(spillPath, sp != nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(clock.NewSync())
	pair, err := newShmPair(filepath.Join(dir, "seg"))
	if err != nil {
		return nil, err
	}
	sess.send(tr)
	sess.send(pair.ag)

	p0 := readProc()
	pt := &pipeTally{from: time.Now()}
	deadline := pt.from.Add(share(dur, ingestSaturatePct))
	var outs [2]replayOut
	var wg sync.WaitGroup
	for i, cpus := range [][]logger{tracerLoggers(tr), pair.loggers()} {
		name := [2]string{"core.Log", "shm.Log"}[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = replay(cpus, w.recs, math.MaxInt, deadline, sp, name, 0, uint64(i+1))
		}()
	}
	wg.Wait()
	pt.to = time.Now()
	tr.Stop()
	detachErr := pair.stop()
	ds := sp.start("live.Drain", 0, 0)
	drain, err := sess.finish()
	ds.end()
	p1 := readProc()
	pt.addStats(tr.Stats(), false)
	pt.addStats(pair.ag.Stats(), true)
	pt.reaped = pair.ag.Reaped()
	if err = errors.Join(err, detachErr, pair.ag.Close()); err != nil {
		return nil, err
	}
	pt.addSession(sess, drain)
	pt.chunks = append(outs[0].chunks, outs[1].chunks...)
	pt.failedLogs = outs[0].failed + outs[1].failed

	all, logged, sum, err := spillCount(spillPath)
	if err != nil {
		return nil, err
	}
	attempted := outs[0].events + outs[0].failed + outs[1].events + outs[1].failed
	r.check("ingest.conservation", pt.logged == outs[0].events+outs[1].events &&
		pt.live.events == all && logged == pt.logged && all == pt.logged+pt.anchors,
		"producers logged %d (Stats %d), collector decoded %d, spill holds %d (%d logged + control; anchors %d)",
		outs[0].events+outs[1].events, pt.logged, pt.live.events, all, logged, pt.anchors)
	logSum := outs[0].sum + outs[1].sum
	r.check("ingest.checksum", sum == logSum, "spill checksum %x, producers %x", sum, logSum)
	// The spill runs to hundreds of MB; removing it now drops its dirty
	// pages, so their writeback does not compete with the deployment
	// path's IngestFile calls. The collector's windows held the saturated
	// phase in memory; returning that heap to the OS now keeps the runtime
	// from doing it while the deployment path runs.
	if err := os.Remove(spillPath); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()

	// The deployment path supplies the freshness and query metrics. It
	// runs untraced in both halves of a traced run: ingest's per-layer
	// metrics describe its saturated phase alone.
	dep, err := deploy(w.cfg, w.sz, dir, w.traces, dur-share(dur, ingestSaturatePct), nil, r)
	if err != nil {
		return nil, err
	}
	out := dep
	out.pt = pt
	out.lost += attempted - min(logged, attempted)
	out.alloc, out.gcFrac = p1.since(p0)
	writeE2E(out.e2e, pt)
	out.e2e["stored_bytes_per_event"] = frac(float64(pt.spill.bytes), float64(logged))
	out.attempted += int64(attempted)
	out.failed += int64(attempted - min(logged, attempted))
	return out, nil
}

// ---- mixed ------------------------------------------------------------

// mixedWL runs the deployment path end to end: a session driver hands
// session after session to the store while a dashboard client queries
// the newest one.
type mixedWL struct {
	cfg    config
	sz     sizes
	traces []*trace
	n      int
}

func (w *mixedWL) setup() error {
	traces, err := genTraces(w.cfg.seed, w.sz.traces)
	if err != nil {
		return err
	}
	w.traces = traces
	return nil
}

func (w *mixedWL) phase(dur time.Duration, sp *spanRec, r *result) (*phaseOut, error) {
	w.n++
	dir := filepath.Join(w.cfg.work, fmt.Sprintf("mixed-%d", w.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return deploy(w.cfg, w.sz, dir, w.traces, dur, sp, r)
}
