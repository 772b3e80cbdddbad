package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Group ties together the spans of one
// unit of work (a session or a query); N is the number of items the span
// covers (events for chunked Log spans, 1 otherwise).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Group  uint64 `json:"group,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

// spanRec keeps spans in memory until the run ends. A nil *spanRec is
// the untraced run: every method is a no-op, so call sites need no
// branches.
type spanRec struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// open is an in-progress span; close it with end.
type open struct {
	r *spanRec
	s span
}

// start opens a span named name under parent (0 = root) in group.
func (r *spanRec) start(name string, parent, group uint64) *open {
	if r == nil {
		return nil
	}
	return &open{r: r, s: span{ID: r.next.Add(1), Parent: parent, Group: group, Name: name,
		Start: int64(time.Since(r.t0)), N: 1}}
}

// id returns the span's ID for children to name as parent (0 untraced).
func (o *open) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span, covering n items.
func (o *open) endN(n int64) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.t0))
	o.s.N = n
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

func (o *open) end() {
	if o != nil {
		o.endN(o.s.N)
	}
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Count int64   `json:"count"`
	N     int64   `json:"n"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// summarize totals each span name's duration and self time: a span's
// duration minus the part of its interval its children cover.
func summarize(spans []span) map[string]*layerStat {
	children := map[uint64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := map[string]*layerStat{}
	for i := range spans {
		s := &spans[i]
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9
		st.Count++
		st.N += s.N
		st.Total += d
		st.Self += d - float64(covered(s, children[s.ID]))/1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write saves the spans and their per-name summary as one JSON file.
func (r *spanRec) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"workload": workload, "seed": seed,
		"summary": summarize(r.spans), "spans": r.spans,
	}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
