package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/live"
	"k42trace/internal/relay"
	"k42trace/internal/shm"
	"k42trace/internal/store"
	"k42trace/internal/stream"
)

// logger is the logging handle both producer kinds expose: core.CPU for
// the in-process tracer and shm.CPU for a client of a shared segment.
type logger interface {
	LogWords(major event.Major, minor uint16, data []uint64) bool
}

// chunkEvents is how many events one producer span covers: a span per
// event would cost more than the Log it times.
const chunkEvents = 4096

// replayOut is what one producer goroutine logged.
type replayOut struct {
	events, failed uint64
	sum            uint64 // recHash sum of the events that logged
	wall           time.Duration
	chunks         []chunk
}

// chunk is one producer span's worth of logging: how many events logged
// and how long the producer took.
type chunk struct {
	events uint64
	d      time.Duration
}

// replay logs recs in order, cycling, until n events have been attempted
// or the deadline (if not zero) passes.
func replay(cpus []logger, recs []rec, n int, deadline time.Time,
	sp *spanRec, name string, parent, group uint64) replayOut {
	var out replayOut
	start := time.Now()
	i := 0
	for done := 0; done < n; {
		cstart, logged := time.Now(), out.events
		if !deadline.IsZero() && cstart.After(deadline) {
			break
		}
		s := sp.start(name, parent, group)
		end := min(done+chunkEvents, n)
		m := end - done
		for ; done < end; done++ {
			r := &recs[i]
			if cpus[r.cpu].LogWords(r.major, r.minor, r.data) {
				out.events++
				out.sum += r.hash
			} else {
				out.failed++
			}
			if i++; i == len(recs) {
				i = 0
			}
		}
		s.endN(int64(m))
		out.chunks = append(out.chunks, chunk{events: out.events - logged, d: time.Since(cstart)})
	}
	out.wall = time.Since(start)
	return out
}

// newTracer is a streaming in-process tracer with every major enabled.
func newTracer(clk clock.Source) *core.Tracer {
	tr := core.MustNew(core.Config{CPUs: traceCPUs, Mode: core.Stream, Clock: clk})
	tr.EnableAll()
	return tr
}

func tracerLoggers(tr *core.Tracer) []logger {
	out := make([]logger, tr.NumCPUs())
	for i := range out {
		out[i] = tr.CPU(i)
	}
	return out
}

// shmPair is ktraced's path inside one process: an agent owning a
// segment file and one client attached to it.
type shmPair struct {
	ag *shm.Agent
	cl *shm.Client
}

func newShmPair(path string) (*shmPair, error) {
	ag, err := shm.Create(path, shm.Geometry{CPUs: traceCPUs})
	if err != nil {
		return nil, err
	}
	cl, err := shm.Attach(path)
	if err != nil {
		ag.Stop()
		ag.Close()
		return nil, err
	}
	return &shmPair{ag: ag, cl: cl}, nil
}

func (p *shmPair) loggers() []logger {
	out := make([]logger, p.cl.NumCPUs())
	for i := range out {
		out[i] = p.cl.CPU(i)
	}
	return out
}

// stop detaches the client and stops the agent, which flushes and closes
// its sealed channel so the relay sender finishes.
func (p *shmPair) stop() error {
	err := p.cl.Detach()
	p.ag.Stop()
	return err
}

// meter counts bytes through a writer and, when timed, the time spent
// inside Write: blocked in the socket for the relay, in the file for the
// spill.
type meter struct {
	timed bool
	bytes atomic.Int64
	nanos atomic.Int64
}

type meteredWriter struct {
	w io.Writer
	m *meter
}

func (mw meteredWriter) Write(p []byte) (int, error) {
	if !mw.m.timed {
		n, err := mw.w.Write(p)
		mw.m.bytes.Add(int64(n))
		return n, err
	}
	t := time.Now()
	n, err := mw.w.Write(p)
	mw.m.nanos.Add(int64(time.Since(t)))
	mw.m.bytes.Add(int64(n))
	return n, err
}

// session is one collector lifetime with tracecolld's defaults (250 ms
// windows, 32 kept) and a spill file, fed over loopback relay
// connections.
type session struct {
	c       *live.Collector
	srv     *relay.Server
	file    *os.File
	spill   meter
	wire    meter
	wg      sync.WaitGroup
	senders int
	mu      sync.Mutex
	errs    []error
}

func newSession(path string, timed bool) (*session, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &session{file: f}
	s.spill.timed, s.wire.timed = timed, timed
	s.c = live.NewCollector(live.Options{Spill: meteredWriter{w: f, m: &s.spill}})
	s.srv, err = relay.ListenConns("127.0.0.1:0", s.c.Handler())
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// allRead reports whether every sender's connection has been accepted
// and read to its end.
func (s *session) allRead() bool {
	ps := s.c.Snapshot().Producers
	if len(ps) < s.senders {
		return false
	}
	for _, p := range ps {
		if p.Connected {
			return false
		}
	}
	return true
}

// send relays src to the collector on its own goroutine until src stops.
func (s *session) send(src stream.Source) {
	s.senders++
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_, err := relay.SendThrough(src, s.srv.Addr(), func(w io.Writer) io.Writer {
			return meteredWriter{w: w, m: &s.wire}
		})
		if err != nil {
			s.mu.Lock()
			s.errs = append(s.errs, err)
			s.mu.Unlock()
		}
	}()
}

// finish waits for every sender (their sources must already be
// stopped) and for the collector to have read each of their connections
// to the end, then closes the relay server, drains the collector and
// closes the spill. It returns how long Drain took.
//
// The wait matters: relay.Server.Close drops connections still in the
// listener's accept backlog, and a sender can finish writing a whole
// session into socket buffers before the collector accepts it.
func (s *session) finish() (time.Duration, error) {
	s.wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); !s.allRead(); {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("collector never finished reading %d producer connections", s.senders)
		}
		time.Sleep(200 * time.Microsecond)
	}
	srvErr := s.srv.Close()
	t := time.Now()
	drainErr := s.c.Drain()
	drain := time.Since(t)
	closeErr := s.file.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	return drain, errors.Join(append(s.errs, srvErr, drainErr, closeErr)...)
}

// spillCount decodes a spill file block by block: every event, and the
// count and recHash sum of the non-control ones (what producers logged).
func spillCount(path string) (all, logged, sum uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	rd, err := stream.NewReader(f, fi.Size())
	if err != nil {
		return 0, 0, 0, err
	}
	for k := 0; k < rd.NumBlocks(); k++ {
		evs, _, err := rd.Events(k)
		if err != nil {
			return 0, 0, 0, err
		}
		all += uint64(len(evs))
		for i := range evs {
			if e := &evs[i]; e.Major() != event.MajorControl {
				logged++
				sum += recHash(e.Major(), e.Minor(), e.Data)
			}
		}
	}
	return all, logged, sum, nil
}

// storeServer serves a store's HTTP surface on loopback, as tracestored
// does.
type storeServer struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serveStore(s *store.Store) (*storeServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ss := &storeServer{srv: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(ss.done)
		ss.srv.Serve(ln)
	}()
	return ss, nil
}

func (ss *storeServer) close() {
	ss.srv.Close()
	<-ss.done
}

// querier is one closed-loop client. It speaks HTTP over its own single
// connection, or when direct calls QueryCtx and Result.Format itself so
// the two layers get separate spans. A traced run queries directly in
// both halves, so its untraced half differs from the traced one only in
// the spans.
type querier struct {
	st     *store.Store
	base   string
	hc     *http.Client
	sp     *spanRec
	direct bool
}

func newQuerier(st *store.Store, base string, sp *spanRec, direct bool) *querier {
	return &querier{st: st, base: base, sp: sp, direct: direct,
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (q *querier) close() { q.hc.CloseIdleConnections() }

// page is one request's answer: the rendered body's hash, the matching
// event count, the next cursor, and (traced) the scan accounting.
type page struct {
	hash   uint64
	events int
	next   string
	res    *store.Result
}

// get issues one request.
func (q *querier) get(p store.Params, class string, parent, group uint64) (page, error) {
	h := fnv.New64a()
	if q.direct {
		s := q.sp.start("store.QueryCtx/"+class, parent, group)
		res, err := q.st.QueryCtx(context.Background(), p)
		s.end()
		if err != nil {
			return page{}, err
		}
		f := q.sp.start("analysis.Format/"+class, parent, group)
		err = res.Format(h, 0)
		f.end()
		return page{hash: h.Sum64(), events: len(res.Events), next: res.NextCursor, res: res}, err
	}
	resp, err := q.hc.Get(q.base + "/query?" + p.Values().Encode())
	if err != nil {
		return page{}, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return page{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return page{}, fmt.Errorf("query: HTTP %d", resp.StatusCode)
	}
	n, err := strconv.Atoi(resp.Header.Get("X-Events"))
	if err != nil {
		return page{}, fmt.Errorf("query: bad X-Events: %v", err)
	}
	return page{hash: h.Sum64(), events: n, next: resp.Header.Get("X-Next-Cursor")}, nil
}
