package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"k42trace/internal/store"
)

// sample is one answer kept for the correctness check: a query's first
// page and the hash of its rendered body.
type sample struct {
	class int
	p     store.Params
	hash  uint64
}

// latency is one query's time.
type latency struct {
	class int
	ms    float64
}

// queryTally accumulates one client's queries.
type queryTally struct {
	lat       []latency
	from, to  time.Time // when the client started and stopped
	attempted int64
	failed    int64
	listings  int64
	pages     int64
	// Scan accounting, from Result (direct queries only); segments
	// scanned and served from the cache are counted per class.
	segsTotal, segsPruned       int64
	segsScanned, segsCached     [numClasses]int64
	blocksScanned, blocksPruned int64
	matched                     int64
	samples                     []sample // the latest answers, for the noprune check
}

// run issues one query; a listing walks every cursor page, and its
// latency is the whole walk. A failed or refused query is recorded as
// slower than any limit.
func (q *querier) run(c int, p store.Params, id uint64, keep int, t *queryTally) {
	root := q.sp.start("query/"+classNames[c], 0, id)
	first := p
	start := time.Now()
	var err error
	pages := int64(0)
	for {
		var pg page
		if pg, err = q.get(p, classNames[c], root.id(), id); err != nil {
			break
		}
		pages++
		if keep > 0 && pages == 1 {
			if len(t.samples) == keep {
				t.samples = t.samples[1:]
			}
			t.samples = append(t.samples, sample{class: c, p: first, hash: pg.hash})
		}
		if r := pg.res; r != nil {
			t.segsTotal += int64(r.SegsTotal)
			t.segsPruned += int64(r.SegsPruned)
			t.segsScanned[c] += int64(r.SegsScanned)
			t.segsCached[c] += int64(r.SegsCached)
			t.blocksScanned += int64(r.BlocksScanned)
			t.blocksPruned += int64(r.BlocksPruned)
			t.matched += int64(len(r.Events))
		}
		if pg.next == "" {
			break
		}
		p.Cursor = pg.next
	}
	l := ms(time.Since(start))
	root.end()
	t.attempted++
	if err != nil {
		t.failed++
		l = failedMs
		fmt.Fprintf(os.Stderr, "pipebench: %s query failed: %v\n", classNames[c], err)
	}
	t.lat = append(t.lat, latency{class: c, ms: l})
	if c == classListing {
		t.listings++
		t.pages += pages
	}
}

// drawFunc returns the next query, or ok=false when there is nothing to
// query yet.
type drawFunc func() (class int, p store.Params, ok bool)

// queryLoop is one closed-loop client: it draws the next query only
// after the previous one completes, until the deadline passes. The last
// keep answers are kept for the correctness check.
func queryLoop(q *querier, draw drawFunc, deadline time.Time, keep int, idBase uint64, t *queryTally) {
	t.from = time.Now()
	for i := uint64(0); time.Now().Before(deadline); {
		c, p, ok := draw()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		i++
		q.run(c, p, idBase+i, keep, t)
	}
	t.to = time.Now()
}

// latencies splits the latencies by class, counts the successful ones,
// and returns the clients' running time.
func (t *queryTally) latencies() (byClass [numClasses][]float64, all []float64, ok int, secs float64) {
	for _, l := range t.lat {
		byClass[l.class] = append(byClass[l.class], l.ms)
		all = append(all, l.ms)
		if l.ms < failedMs {
			ok++
		}
	}
	return byClass, all, ok, t.to.Sub(t.from).Seconds()
}

// checkSamples re-issues each kept answer with pruning and the cache off
// (noprune=1) and counts the answers that differ. It runs outside the
// timed region.
func checkSamples(st *store.Store, samples []sample) (mismatched int) {
	for _, s := range samples {
		p := s.p
		p.NoPrune = true
		res, err := st.QueryCtx(context.Background(), p)
		h := fnv.New64a()
		if err == nil {
			err = res.Format(h, 0)
		}
		if err != nil || h.Sum64() != s.hash {
			mismatched++
			fmt.Fprintf(os.Stderr, "pipebench: %s answer differs from noprune (err %v)\n", classNames[s.class], err)
		}
	}
	return mismatched
}
