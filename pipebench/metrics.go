package main

// units of the end-to-end metrics a phase reports.
var units = map[string]string{
	"ingest_events_per_s":    "1/s",
	"producer_ns_per_event":  "ns",
	"queries_per_s":          "1/s",
	"narrow_p50_ms":          "ms",
	"agg_p50_ms":             "ms",
	"listing_p50_ms":         "ms",
	"query_p90_ms":           "ms",
	"freshness_p50_ms":       "ms",
	"freshness_p90_ms":       "ms",
	"stored_bytes_per_event": "B",
}

// higherBetter marks the end-to-end metrics where a larger value is
// better; overhead is reported as a cost, positive when tracing hurt.
var higherBetter = map[string]bool{"ingest_events_per_s": true, "queries_per_s": true}

// perK is a count per thousand events.
func perK(n, events uint64) float64 { return 1000 * frac(float64(n), float64(events)) }

// layerMetrics derives the per-layer metrics of a traced phase from its
// tallies and the span summary.
func layerMetrics(r *result, out *phaseOut, s map[string]*layerStat) {
	pt, qt := out.pt, out.qt
	if pt == nil {
		pt = &pipeTally{}
	}
	if qt == nil {
		qt = &queryTally{}
	}
	// nsPer is a span name's mean time per covered item.
	nsPer := func(name string) float64 {
		if st := s[name]; st != nil {
			return frac(st.Total*1e9, float64(st.N))
		}
		return 0
	}
	msPerCall := func(name string) float64 {
		if st := s[name]; st != nil {
			return frac(st.Total*1e3, float64(st.Count))
		}
		return 0
	}
	c, sh := pt.core, pt.shm
	r.set("core.log_ns", nsPer("core.Log"), "ns")
	r.set("core.block_waits_per_kevent", perK(c.BlockWaits, c.Events), "count")
	r.set("core.cas_retries_per_kevent", perK(c.Retries, c.Events), "count")
	r.set("core.filler_frac", frac(float64(c.FillerWords), float64(c.Words+c.FillerWords)), "frac")
	r.set("core.dropped", float64(c.Dropped), "count")
	r.set("shm.log_ns", nsPer("shm.Log"), "ns")
	r.set("shm.block_waits_per_kevent", perK(sh.BlockWaits, sh.Events), "count")
	r.set("shm.reaped", float64(pt.reaped), "count")

	logged := float64(pt.logged)
	r.set("relay.write_blocked_s", float64(pt.wire.nanos)/1e9, "s")
	r.set("relay.bytes_per_event", frac(float64(pt.wire.bytes), logged), "B")
	r.set("live.drain_ms", median(pt.drainMs), "ms")
	r.set("live.spill_write_s", float64(pt.spill.nanos)/1e9, "s")
	r.set("live.spill_bytes_per_event", frac(float64(pt.spill.bytes), logged), "B")
	r.set("live.blocks", float64(pt.live.blocks), "count")
	r.set("live.garbled", float64(pt.live.garbled), "count")
	r.set("live.disconnects", float64(pt.live.disconnects), "count")

	r.set("store.ingest_ms", median(pt.ingestMs), "ms")
	r.set("store.segments_per_upload", frac(float64(pt.segments), float64(pt.uploads)), "count")
	r.set("store.compact_ms", median(pt.compactMs), "ms")
	r.set("store.compact_bytes_rewritten", float64(pt.compactBytes), "B")
	r.set("store.gc_ms", median(pt.gcMs), "ms")
	for _, class := range classNames {
		r.set("store.scan_ms."+class, msPerCall("store.QueryCtx/"+class), "ms")
		r.set("analysis.format_ms."+class, msPerCall("analysis.Format/"+class), "ms")
	}
	r.set("store.segs_pruned_frac", frac(float64(qt.segsPruned), float64(qt.segsTotal)), "frac")
	r.set("store.blocks_pruned_frac", frac(float64(qt.blocksPruned), float64(qt.blocksPruned+qt.blocksScanned)), "frac")
	var cached, scanned int64
	for c, class := range classNames {
		cached += qt.segsCached[c]
		scanned += qt.segsScanned[c]
		r.set("store.cache_hit_frac."+class, frac(float64(qt.segsCached[c]), float64(qt.segsScanned[c])), "frac")
	}
	r.set("store.cache_hit_frac", frac(float64(cached), float64(scanned)), "frac")
	r.set("store.events_per_block_scanned", frac(float64(qt.matched), float64(qt.blocksScanned)), "count")
	r.set("store.pages_per_listing", frac(float64(qt.pages), float64(qt.listings)), "count")

	r.set("proc.alloc_bytes_per_event", frac(float64(out.alloc), logged), "B")
	r.set("proc.alloc_bytes_per_query", frac(float64(out.alloc), float64(qt.attempted)), "B")
	r.set("proc.gc_cpu_frac", out.gcFrac, "frac")
	r.set("events_lost_frac", frac(float64(out.lost), logged), "frac")
	r.set("query_failed_frac", frac(float64(qt.failed), float64(qt.attempted)), "frac")
}
