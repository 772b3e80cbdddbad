package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"k42trace/internal/event"
	"k42trace/internal/sdet"
	"k42trace/internal/store"
	"k42trace/internal/stream"
)

// traceCPUs is the processor count of every generated sdet run, and so of
// every replaying tracer: replayed events keep their original CPU.
const traceCPUs = 4

// rec is one replayable event: the (major, minor, payload) a producer
// logs and the CPU it logs on.
type rec struct {
	major event.Major
	minor uint16
	cpu   int
	hash  uint64 // recHash, precomputed so producers only add
	data  []uint64
}

// trace is one seeded sdet run, decoded and stripped of control events.
type trace struct {
	recs []rec
	// sum is the order-independent checksum of every record (the sum of
	// recHash), which conservation checks compare against the far side.
	sum uint64
	// bytes is the size of the original trace file.
	bytes int
}

// recHash mixes (major, minor, payload) into one word. Sums of recHash
// are multiset checksums: equal sums on both sides of a pipeline mean the
// same events arrived, in any order.
func recHash(major event.Major, minor uint16, data []uint64) uint64 {
	h := mix64(uint64(major)<<16 | uint64(minor) | uint64(len(data))<<24)
	for _, d := range data {
		h = mix64(h ^ d)
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genTraces runs n sdet workloads whose seeds derive from seed and
// decodes each into replay records. Every run uses the coarse kernel (the
// lock-contention configuration), so traces differ in their scripts but
// not in kind and per-session costs stay comparable; PC and
// hardware-counter sampling are on so the profile aggregation has data.
func genTraces(seed int64, n int) ([]*trace, error) {
	r := rand.New(rand.NewSource(seed))
	out := make([]*trace, n)
	for i := range out {
		var buf bytes.Buffer
		_, err := sdet.Run(sdet.Config{
			CPUs:      traceCPUs,
			Trace:     sdet.TraceOn,
			Params:    sdet.Params{ScriptsPerCPU: 16, CommandsPerScript: 20, Seed: r.Int63()},
			Sample:    10_000,
			HWCSample: 12_000,
		}, &buf)
		if err != nil {
			return nil, fmt.Errorf("sdet run %d: %w", i, err)
		}
		rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			return nil, err
		}
		evs, _, err := rd.ReadAll()
		if err != nil {
			return nil, err
		}
		out[i] = decodeTrace(evs, buf.Len())
	}
	return out, nil
}

func decodeTrace(evs []event.Event, size int) *trace {
	t := &trace{bytes: size}
	words := 0
	for i := range evs {
		words += len(evs[i].Data)
	}
	backing := make([]uint64, 0, words)
	for i := range evs {
		e := &evs[i]
		if e.Major() == event.MajorControl {
			continue
		}
		n := len(backing)
		backing = append(backing, e.Data...)
		rc := rec{major: e.Major(), minor: e.Minor(), cpu: e.CPU % traceCPUs,
			data: backing[n:len(backing):len(backing)]}
		rc.hash = recHash(rc.major, rc.minor, rc.data)
		t.sum += rc.hash
		t.recs = append(t.recs, rc)
	}
	return t
}

// Query classes of the seeded read mix.
const (
	classNarrow = iota
	classAgg
	classListing
	numClasses
)

var classNames = [numClasses]string{"narrow", "agg", "listing"}

// narrowMajors is the cycle of predicates narrow queries take: the
// majors an sdet trace carries in volume. aggKinds is the cycle of
// aggregations. Both cycles have an odd length (SCHED comes twice): each
// entry is an equal share of the class's queries, so with an
// odd count the class median falls inside one entry's share instead of on
// the boundary between two, where it would jump between their costs.
var (
	narrowMajors = []event.Major{
		event.MajorSched, event.MajorLock, event.MajorIO, event.MajorSyscall, event.MajorSched,
		event.MajorMem, event.MajorException, event.MajorAlloc, event.MajorSample,
	}
	aggKinds = []string{"overview", "lockstat", "profile"}
)

// queryGen draws the seeded dashboard mix. The class cycle is replayed in
// seeded shuffles of itself, so every ten queries hold the cycle's exact
// proportions in an order the seed decides. The narrow major and the
// aggregation follow fixed cycles from a seeded starting point.
type queryGen struct {
	r      *rand.Rand
	tenant string
	// Positions in the class, major and aggregation cycles, and the
	// current shuffle of the class cycle.
	n, major, agg int
	order         []int
}

func newQueryGen(seed int64, tenant string) *queryGen {
	r := rand.New(rand.NewSource(seed))
	return &queryGen{r: r, tenant: tenant, major: r.Intn(1 << 20), agg: r.Intn(1 << 20)}
}

// dashboardCycle is the class mix: 50% narrow, 30% agg, 20% listing.
var dashboardCycle = []int{classNarrow, classAgg, classListing, classNarrow, classAgg, classNarrow, classListing, classNarrow, classAgg, classNarrow}

// step advances the class cycle, and the major or aggregation cycle of
// the class it lands on, and returns the class and that cycle's position.
func (g *queryGen) step(cycle []int) (class, major, agg int) {
	if g.n%len(cycle) == 0 {
		g.order = append(g.order[:0], cycle...)
		g.r.Shuffle(len(g.order), func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
	}
	class = g.order[g.n%len(cycle)]
	g.n++
	switch class {
	case classNarrow:
		g.major++
	case classAgg:
		g.agg++
	}
	return class, g.major % len(narrowMajors), g.agg % len(aggKinds)
}

// dashboard draws one dashboard query over the newest session's whole
// range [lo, hi): narrow (one major), an aggregation, or a lock listing.
func (g *queryGen) dashboard(lo, hi uint64) (int, store.Params) {
	c, mj, ag := g.step(dashboardCycle)
	p := store.Params{Tenant: g.tenant, Agg: "events", From: lo, To: hi}
	switch c {
	case classNarrow:
		p.HasMajor, p.Major = true, narrowMajors[mj]
	case classAgg:
		p.Agg = aggKinds[ag]
	default:
		p.HasMajor, p.Major, p.Limit = true, event.MajorLock, 1000
	}
	return c, p
}
