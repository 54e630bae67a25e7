package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"tsg/internal/cycletime"
	"tsg/internal/netlist"
	"tsg/internal/serve"
	"tsg/internal/sg"
	"tsg/internal/store"
	"tsg/internal/timesim"
)

// replayEdits bounds the layer replay: the layers inside a backend are
// timed by replaying the resident designs and a deterministic prefix of
// the recorded edits on their public functions, after the window, so
// the replay costs no measured time.
const replayEdits = 300 // edits re-patched and re-appended to a scratch log

// layerReplay is what the direct calls into netlist, timesim,
// cycletime (cold) and store measured.
type layerReplay struct {
	designs int

	parse   time.Duration // netlist.ReadTSG + Build + fingerprint
	compile time.Duration // timesim.Compile
	pass1   time.Duration // every border origin, b periods, no parents
	records float64       // Σ b·periods·m

	cold time.Duration // cycletime.NewEngine + Summary

	patch   time.Duration // timesim Patch of every trace, per edit
	patches int

	appendGraph time.Duration
	graphs      int
	appendEdit  time.Duration
	edits       int
}

// residentDesigns lists every session's resident designs, the designs
// whose layers are replayed.
func residentDesigns(w *workload) []int {
	var out []int
	for _, set := range w.resident {
		out = append(out, set...)
	}
	return out
}

// editRecord is one executed edit, for the patch and log replays.
type editRecord struct {
	design int32
	arc    int
	delay  float64
}

func executedEdits(w *workload, sessions []*session) []editRecord {
	var out []editRecord
	for _, s := range sessions {
		for _, rec := range s.records {
			o := &s.stream[int(rec.idx)%len(s.stream)]
			if o.kind == opEdit && !rec.failed {
				out = append(out, editRecord{o.design, o.queries[0].Arc, o.queries[0].Delay})
			}
		}
	}
	if len(out) > replayEdits {
		out = out[:replayEdits]
	}
	return out
}

func replayLayers(w *workload, sessions []*session, scratch string) (*layerReplay, error) {
	lr := &layerReplay{}
	type kernel struct {
		sch    *timesim.Schedule
		traces []*timesim.Trace
		canon  []int
	}
	kernels := map[int32]*kernel{}
	edits := executedEdits(w, sessions)
	edited := map[int32]bool{}
	for _, e := range edits {
		edited[e.design] = true
	}
	designs := residentDesigns(w)
	for _, di := range designs {
		d := &w.designs[di]
		t0 := time.Now()
		if _, _, _, _, err := serve.FingerprintText(d.text); err != nil {
			return nil, err
		}
		lr.parse += time.Since(t0)
		g, err := netlist.ReadTSG(strings.NewReader(d.text))
		if err != nil {
			return nil, err
		}

		t0 = time.Now()
		eng, err := cycletime.NewEngine(g)
		if err != nil {
			return nil, err
		}
		if _, _, err := eng.Summary(); err != nil {
			return nil, err
		}
		lr.cold += time.Since(t0)

		t0 = time.Now()
		sch, err := timesim.Compile(g)
		if err != nil {
			return nil, err
		}
		lr.compile += time.Since(t0)
		border := g.BorderEvents()
		b := len(border)
		k := &kernel{sch: sch, canon: sg.CanonicalArcOrder(g)}
		keep := edited[int32(di)]
		t0 = time.Now()
		for _, origin := range border {
			tr, err := sch.RunFrom(origin, timesim.Options{Periods: b})
			if err != nil {
				return nil, err
			}
			if keep {
				k.traces = append(k.traces, tr)
			}
		}
		lr.pass1 += time.Since(t0)
		lr.records += float64(b) * float64(b) * float64(g.NumArcs())
		lr.designs++
		if keep {
			kernels[int32(di)] = k
		}
	}

	for _, e := range edits {
		k := kernels[e.design]
		if k == nil {
			continue
		}
		arc := k.canon[e.arc]
		t0 := time.Now()
		k.sch.RefreshArcDelay(arc, e.delay)
		for _, tr := range k.traces {
			if _, err := k.sch.Patch(tr, []int{arc}); err != nil {
				return nil, err
			}
		}
		lr.patch += time.Since(t0)
		lr.patches++
	}

	// The log: every replayed design body, then the edits, each appended
	// and fsynced exactly as a durable backend does.
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	appended := map[string]bool{}
	for _, di := range designs {
		d := &w.designs[di]
		appended[d.fp] = true
		t0 := time.Now()
		if err := st.AppendGraph(d.fp, []byte(d.text)); err != nil {
			return nil, err
		}
		lr.appendGraph += time.Since(t0)
		lr.graphs++
	}
	for i, e := range edits {
		fp := w.designs[e.design].fp
		if !appended[fp] {
			continue
		}
		t0 := time.Now()
		if err := st.AppendEdit(store.Edit{Fingerprint: fp, Client: "perfbench", Seq: uint64(i + 1),
			Edits: []store.EditDelta{{Arc: e.arc, Delay: e.delay}}}); err != nil {
			return nil, err
		}
		lr.appendEdit += time.Since(t0)
		lr.edits++
	}
	return lr, st.Close()
}

// perUs and perMs are mean durations in µs and ms.
func perUs(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }
func perMs(d time.Duration, n int) float64 { return ratio(float64(d)/1e6, float64(n)) }

// measureLayers computes the per-layer metrics of a traced run.
func measureLayers(w *workload, sessions []*session, win *window, snaps []snapshot, heapPeak []float64,
	tr *tracer, rs *replayStats, cfg config) (map[string]metric, error) {
	if rs == nil {
		rs = &replayStats{}
	}
	lr, err := replayLayers(w, sessions, cfg.workDir)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Ops and deltas over the traced phases.
	var tracedOps, untracedOps, tracedEdits float64
	var tracedSecs, untracedSecs float64
	for _, on := range win.traced {
		if on {
			tracedSecs += win.phase.Seconds()
		} else {
			untracedSecs += win.phase.Seconds()
		}
	}
	var opRecords float64 // Σ pass-1 records of each traced op's design
	for _, s := range sessions {
		for _, rec := range s.records {
			if rec.phase < 0 || int(rec.phase) >= len(win.traced) {
				continue
			}
			if !win.traced[rec.phase] {
				untracedOps++
				continue
			}
			tracedOps++
			if rec.kind == opEdit {
				tracedEdits++
			}
			d := &w.designs[s.stream[int(rec.idx)%len(s.stream)].design]
			opRecords += float64(d.border) * float64(d.border) * float64(d.arcs)
		}
	}
	var dCache serve.CacheStats
	var dWal int64
	var dHedge uint64
	var dRT rtStats
	for p, on := range win.traced {
		if !on {
			continue
		}
		a, b := snaps[p], snaps[p+1]
		dCache.Hits += b.cache.Hits - a.cache.Hits
		dCache.Misses += b.cache.Misses - a.cache.Misses
		dWal += b.wal - a.wal
		dHedge += b.cluster.HedgeAttempts - a.cluster.HedgeAttempts
		dRT.allocBytes += b.rt.allocBytes - a.rt.allocBytes
		dRT.allocObjects += b.rt.allocObjects - a.rt.allocObjects
		dRT.gcCPU += b.rt.gcCPU - a.rt.gcCPU
		dRT.totalCPU += b.rt.totalCPU - a.rt.totalCPU
	}

	// Spans.
	groups := tr.group()
	var clientLat [numOpKinds + 1][]float64
	var handlerLat [numOpKinds + 1][]float64
	var edges, allTotals []float64
	var routerSelf, hopNet, handlerSum, hopBytes float64
	var hops, editHops int
	var reqs []breakdown
	for _, g := range groups {
		if g.client == nil {
			continue // a hop or handler of a call that started untraced
		}
		clientLat[g.client.route] = append(clientLat[g.client.route], float64(g.client.end-g.client.start)/1e6)
		for _, h := range g.handlers {
			handlerLat[h.route] = append(handlerLat[h.route], float64(h.end-h.start)/1e6)
		}
		if g.client.route == uint8(opUpload) {
			continue // a set-up upload: only its call and handler times count
		}
		for _, h := range g.handlers {
			handlerSum += float64(h.end-h.start) / 1e6
		}
		for _, h := range g.hops {
			hops++
			hopBytes += float64(h.bytes)
			if h.route == uint8(opEdit) {
				editHops++
			}
		}
		for _, n := range g.hopNet() {
			hopNet += float64(n) / 1e6
		}
		b := g.breakdown()
		reqs = append(reqs, b)
		allTotals = append(allTotals, float64(b.total))
		if b.attributed {
			edges = append(edges, float64(b.edge)/1e6)
			routerSelf += float64(b.routerSelf) / 1e6
		}
	}

	set("client.edge_ms", median(edges), "ms")
	for _, k := range []struct {
		name string
		kind opKind
	}{{"analyze", opAnalyze}, {"whatif", opWhatIf}, {"edit", opEdit}, {"slacks", opSlacks}, {"mc", opMC}, {"upload", opUpload}} {
		set("client."+k.name+"_p50_ms", median(clientLat[k.kind]), "ms")
		set("serve.handler_ms."+k.name, median(handlerLat[k.kind]), "ms")
	}

	set("cluster.self_ms_per_op", ratio(routerSelf, tracedOps), "ms")
	set("cluster.hop_ms", ratio(hopNet, float64(hops)), "ms")
	set("cluster.hops_per_op", ratio(float64(hops), tracedOps), "count")
	set("cluster.hop_bytes_per_op", ratio(hopBytes, tracedOps), "B")
	set("cluster.sync_hops_per_edit", ratio(float64(editHops)-tracedEdits, tracedEdits), "count")
	set("cluster.hedge_frac", ratio(float64(dHedge), float64(hops)), "frac")

	// Serve self time: handler time not explained by the replayed cost of
	// the layers under each handler.
	under := [numOpKinds]float64{
		opAnalyze: perMs(rs.ns[opAnalyze], rs.count[opAnalyze]),
		opWhatIf:  perMs(rs.ns[opWhatIf], rs.count[opWhatIf]),
		opEdit:    perMs(rs.ns[opEdit], rs.count[opEdit]),
		opSlacks:  perMs(rs.ns[opSlacks], rs.count[opSlacks]),
		opMC:      perMs(rs.ns[opMC], rs.count[opMC]),
	}
	var explained float64
	for k := opKind(0); k < opUpload; k++ {
		explained += float64(len(handlerLat[k])) * under[k]
	}
	set("serve.self_ms_per_op", ratio(handlerSum-explained, tracedOps), "ms")
	set("serve.cache_hit_frac", ratio(float64(dCache.Hits), float64(dCache.Hits+dCache.Misses)), "frac")
	set("serve.cache_mb", float64(snaps[len(snaps)-2].cache.Bytes)/(1<<20), "MiB")

	set("store.append_ms.edit", perMs(lr.appendEdit, lr.edits), "ms")
	set("store.append_ms.graph", perMs(lr.appendGraph, lr.graphs), "ms")
	set("store.bytes_per_op", ratio(float64(dWal), tracedOps), "B")

	set("netlist.parse_ms_per_upload", perMs(lr.parse, lr.designs), "ms")

	st := rs.stats
	set("cycletime.analyze_warm_us", perUs(rs.ns[opAnalyze], rs.count[opAnalyze]), "us")
	set("cycletime.whatif_us_per_query", perUs(rs.ns[opWhatIf], rs.queries), "us")
	fast := ratio(float64(st.FastPathHits), float64(rs.queries))
	table := ratio(float64(st.TableAnswers), float64(rs.queries))
	full := 0.0
	if rs.queries > 0 {
		full = 1 - fast - table
	}
	set("cycletime.fastpath_frac", fast, "frac")
	set("cycletime.table_frac", table, "frac")
	set("cycletime.full_whatif_frac", full, "frac")
	set("cycletime.edit_us", perUs(rs.ns[opEdit], rs.count[opEdit]), "us")
	set("cycletime.incremental_frac", ratio(float64(st.IncrementalAnalyses), float64(rs.count[opEdit])), "frac")
	set("cycletime.patch_flood_frac", ratio(float64(st.PatchFloods), float64(rs.editB)), "frac")
	set("cycletime.slacks_us", perUs(rs.ns[opSlacks], rs.count[opSlacks]), "us")
	set("cycletime.cold_ms", perMs(lr.cold, lr.designs), "ms")
	replayed := 0
	for _, c := range rs.count {
		replayed += c
	}
	set("cycletime.pass2_per_op", ratio(float64(st.Pass2Runs), float64(replayed)), "count")
	set("cycletime.mc_us_per_sample", perUs(rs.ns[opMC], rs.samples), "us")

	set("timesim.compile_ms", perMs(lr.compile, lr.designs), "ms")
	set("timesim.pass1_ms", perMs(lr.pass1, lr.designs), "ms")
	set("timesim.records_per_op", ratio(opRecords, tracedOps), "count")
	set("timesim.ns_per_record", ratio(float64(lr.pass1), lr.records), "ns")
	set("timesim.patch_us", perUs(lr.patch, lr.patches), "us")

	set("runtime.alloc_kb_per_op", ratio(dRT.allocBytes/1024, tracedOps), "KiB")
	set("runtime.allocs_per_op", ratio(dRT.allocObjects, tracedOps), "count")
	set("runtime.gc_cpu_frac", ratio(dRT.gcCPU, dRT.totalCPU), "frac")
	var peak float64
	for p, on := range win.traced {
		if on && heapPeak[p] > peak {
			peak = heapPeak[p]
		}
	}
	set("runtime.heap_peak_mb", peak/(1<<20), "MiB")

	set("trace.overhead_frac", 1-ratio(ratio(tracedOps, tracedSecs), ratio(untracedOps, untracedSecs)), "frac")
	shares(m, reqs, "trace.share.", "trace.coverage_frac", 0)
	shares(m, reqs, "trace.p99_share.", "trace.p99_coverage_frac", quantile(allTotals, 0.99))
	return m, nil
}

// shares reports, over the traced calls at least minTotal ns long, what
// part of the client-observed latency each boundary layer's self time
// accounts for, their sum as coverage, and the rest as uncovered.
func shares(m map[string]metric, reqs []breakdown, prefix, coverage string, minTotal float64) {
	var total, edge, router, hop, handler float64
	for _, b := range reqs {
		if float64(b.total) < minTotal {
			continue
		}
		total += float64(b.total)
		if !b.attributed {
			continue
		}
		edge += float64(b.edge)
		router += float64(b.routerSelf)
		hop += float64(b.hop)
		handler += float64(b.handler)
	}
	m[prefix+"client_edge"] = metric{ratio(edge, total), "frac"}
	m[prefix+"router_self"] = metric{ratio(router, total), "frac"}
	m[prefix+"hop"] = metric{ratio(hop, total), "frac"}
	m[prefix+"handler"] = metric{ratio(handler, total), "frac"}
	m[coverage] = metric{ratio(edge+router+hop+handler, total), "frac"}
	m[prefix+"uncovered"] = metric{ratio(total-edge-router-hop-handler, total), "frac"}
}
