package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/store"
)

// markerMinor tags the event that closes each handoff session; its one
// payload word is the session ID. sdet traces never log MajorTest.
const markerMinor = 0x4b4d

// pipeTally accumulates the write path: producers, relay, collector and
// store maintenance, over every session of a phase.
type pipeTally struct {
	logged, anchors   uint64
	failedLogs        uint64         // Log calls that returned false
	chunks            []chunk        // saturated producers' logging
	from, to          time.Time      // when the saturated producers ran
	sessions          []sessionStats // handoff sessions
	core, shm         core.Stats
	reaped            uint64
	wire, spill       struct{ bytes, nanos int64 }
	live              struct{ blocks, garbled, disconnects, events uint64 }
	drainMs           []float64
	ingestMs          []float64
	uploads, segments int64
	stored            uint64 // events IngestFile reported
	unseen            uint64 // events of sessions whose marker /query never returned
	compactMs, gcMs   []float64
	compactBytes      int64
	gcEvents          uint64
}

// addSession folds a finished session's relay, spill and collector
// counters into the tally.
func (t *pipeTally) addSession(s *session, drain time.Duration) {
	t.wire.bytes += s.wire.bytes.Load()
	t.wire.nanos += s.wire.nanos.Load()
	t.spill.bytes += s.spill.bytes.Load()
	t.spill.nanos += s.spill.nanos.Load()
	t.drainMs = append(t.drainMs, ms(drain))
	snap := s.c.Snapshot()
	for _, p := range snap.Producers {
		t.live.blocks += p.Blocks
		t.live.garbled += p.Garbled
		t.live.events += p.Events
	}
	for _, n := range snap.Disconnects {
		t.live.disconnects += n
	}
}

// addStats folds a producer's counters in; shm reports its own layer.
func (t *pipeTally) addStats(st core.Stats, isShm bool) {
	t.logged += st.Events
	t.anchors += st.Anchors
	if isShm {
		t.shm = t.shm.Add(st)
	} else {
		t.core = t.core.Add(st)
	}
}

// handoff drives tracecolld's -store path one session at a time: replay
// a trace through a fresh tracer, relay it to a fresh collector with a
// spill, Drain, IngestFile, then poll /query until the session's marker
// is visible.
type handoff struct {
	st     *store.Store
	tenant string
	q      *querier
	// clk is shared, so sessions follow each other in time.
	clk  clock.Source
	dir  string // spill files
	root string // the store's root directory
	sp   *spanRec
	t    *pipeTally
}

// sessionStats is one handoff session's end-to-end figures, recorded when
// its marker became queryable.
type sessionStats struct {
	events   uint64        // logged, marker included
	producer time.Duration // the producer goroutine's logging
	ingest   time.Duration // first Log to Drain return
	fresh    float64       // ms from the marker's Log to the first answer holding it
}

// sessionRange is the trace-time span [lo, hi) of a stored session.
type sessionRange struct{ lo, hi uint64 }

func (h *handoff) run(id uint64, tr *trace) (sessionRange, error) {
	root := h.sp.start("session", 0, id)
	defer root.end()
	path := filepath.Join(h.dir, fmt.Sprintf("spill-%d.ktr", id))
	sess, err := newSession(path, h.sp != nil)
	if err != nil {
		return sessionRange{}, err
	}
	defer os.Remove(path)
	tracer := newTracer(h.clk)
	sess.send(tracer)
	lo := h.clk.Now(0)
	start := time.Now()
	out := replay(tracerLoggers(tracer), tr.recs, len(tr.recs), time.Time{}, h.sp, "core.Log", root.id(), id)
	mark := []uint64{id}
	if !tracer.CPU(0).LogWords(event.MajorTest, markerMinor, mark) {
		return sessionRange{}, fmt.Errorf("session %d: marker not logged", id)
	}
	marked := time.Now()
	hi := h.clk.Now(0) + 1
	tracer.Stop()
	ds := h.sp.start("live.Drain", root.id(), id)
	drain, err := sess.finish()
	ds.end()
	if err != nil {
		return sessionRange{}, fmt.Errorf("session %d: %w", id, err)
	}
	ingested := time.Since(start)
	h.t.failedLogs += out.failed
	h.t.addStats(tracer.Stats(), false)
	h.t.addSession(sess, drain)

	is := h.sp.start("store.IngestFile", root.id(), id)
	t0 := time.Now()
	res, err := h.st.IngestFile(h.tenant, path)
	h.t.ingestMs = append(h.t.ingestMs, ms(time.Since(t0)))
	is.end()
	if err != nil {
		return sessionRange{}, err
	}
	h.t.uploads++
	h.t.segments += int64(len(res.Segments))
	h.t.stored += res.Events

	// A marker that never shows counts the session's events as lost; the
	// run goes on and the markers check fails.
	p := store.Params{Tenant: h.tenant, Agg: "events", From: lo, To: hi,
		HasMajor: true, Major: event.MajorTest, HasMinor: true, Minor: markerMinor}
	for try := 0; ; try++ {
		pg, err := h.q.get(p, "marker", root.id(), id)
		if err == nil && pg.events == 1 {
			break
		}
		if try == 100 {
			fmt.Fprintf(os.Stderr, "pipebench: session %d: marker not queryable (%v)\n", id, err)
			h.t.unseen += out.events + 1
			return sessionRange{lo, hi}, nil
		}
		time.Sleep(time.Millisecond)
	}
	h.t.sessions = append(h.t.sessions, sessionStats{events: out.events + 1,
		producer: out.wall, ingest: ingested, fresh: ms(time.Since(marked))})
	return sessionRange{lo, hi}, nil
}

// maintain runs one Compact and one GC pass, recording their cost and
// the bytes compaction wrote (the segment files it created).
func (h *handoff) maintain() error {
	dir := filepath.Join(h.root, h.tenant)
	before := dirFiles(dir)
	cs := h.sp.start("store.Compact", 0, 0)
	t0 := time.Now()
	_, err := h.st.Compact(h.tenant)
	h.t.compactMs = append(h.t.compactMs, ms(time.Since(t0)))
	cs.end()
	if err != nil {
		return err
	}
	for name, size := range dirFiles(dir) {
		if _, ok := before[name]; !ok {
			h.t.compactBytes += size
		}
	}
	gs := h.sp.start("store.GC", 0, 0)
	t0 = time.Now()
	gr, err := h.st.GC(h.tenant)
	h.t.gcMs = append(h.t.gcMs, ms(time.Since(t0)))
	gs.end()
	if err != nil {
		return err
	}
	h.t.gcEvents += gr.Events
	return nil
}

// dirFiles maps each file in dir to its size.
func dirFiles(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			out[e.Name()] = fi.Size()
		}
	}
	return out
}

// storedEvents is the tenant's event count in the catalog.
func storedEvents(st *store.Store, tenant string) (events uint64, bytes int64) {
	for _, ts := range st.Tenants() {
		if ts.Name == tenant {
			return ts.Events, ts.Bytes
		}
	}
	return 0, 0
}
