package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"time"

	"tsg/client"
	"tsg/internal/cycletime"
	"tsg/internal/dist"
	"tsg/internal/netlist"
	"tsg/internal/serve"
	"tsg/internal/sg"
	"tsg/internal/stat"
)

// digester folds an answer into 64 bits. Live answers are digested as
// they arrive, so the oracle compares digests after the window without
// keeping every response.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}
func (d *digester) int(v int)          { d.u64(uint64(v)) }
func (d *digester) f64(v float64)      { d.u64(math.Float64bits(v)) }
func (d *digester) str(s string)       { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *digester) lam(l serve.Lambda) { d.f64(l.Num); d.int(l.Den) }
func (d *digester) bool(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}
func (d *digester) sum() uint64 { return d.h.Sum64() }

func digestAnalyze(l serve.Lambda, crit []serve.CriticalCycle) uint64 {
	d := newDigester()
	d.lam(l)
	for _, c := range crit {
		d.int(len(c.Events))
		for _, e := range c.Events {
			d.str(e)
		}
		for _, a := range c.Arcs {
			d.int(a)
		}
		d.f64(c.Length)
		d.int(c.Period)
	}
	return d.sum()
}

func digestLambdas(ls []serve.Lambda) uint64 {
	d := newDigester()
	for _, l := range ls {
		d.lam(l)
	}
	return d.sum()
}

func digestEdit(applied int, l serve.Lambda) uint64 {
	d := newDigester()
	d.int(applied)
	d.lam(l)
	return d.sum()
}

func digestSlacks(l serve.Lambda, sl []serve.ArcSlack) uint64 {
	d := newDigester()
	d.lam(l)
	for _, s := range sl {
		d.int(s.Arc)
		d.f64(s.Delay)
		d.f64(s.Slack)
		d.bool(s.Tight)
	}
	return d.sum()
}

func digestMC(r *serve.MCResponse) uint64 {
	d := newDigester()
	d.int(r.Samples)
	for _, v := range []float64{r.Mean, r.Variance, r.Std, r.Min, r.Max} {
		d.f64(v)
	}
	for _, q := range r.Quantiles {
		d.f64(q.P)
		d.f64(q.Value)
	}
	for _, c := range r.Criticality {
		d.f64(c)
	}
	return d.sum()
}

// wireLambda is the server's wire form of an exact cycle time.
func wireLambda(r stat.Ratio) serve.Lambda {
	n := r.Normalize()
	return serve.Lambda{Num: n.Num, Den: n.Den}
}

// oracleDesign is an in-process engine over the same parsed graph a
// backend holds, with the wire↔graph arc maps the server uses.
type oracleDesign struct {
	g           *sg.Graph
	eng         *cycletime.Engine
	canon, rank []int
	poisoned    bool // an op on it failed, so its server state is unknown
}

func newOracleDesign(text string) (*oracleDesign, error) {
	g, _, err := netlist.ReadTSGDist(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	eng, err := cycletime.NewEngine(g)
	if err != nil {
		return nil, err
	}
	canon := sg.CanonicalArcOrder(g)
	rank := make([]int, len(canon))
	for k, i := range canon {
		rank[i] = k
	}
	return &oracleDesign{g: g, eng: eng, canon: canon, rank: rank}, nil
}

func (od *oracleDesign) analyze() (uint64, error) {
	lam, crit, err := od.eng.Summary()
	if err != nil {
		return 0, err
	}
	wire := make([]serve.CriticalCycle, len(crit))
	for i, c := range crit {
		arcs := make([]int, len(c.Arcs))
		for j, a := range c.Arcs {
			arcs[j] = od.rank[a]
		}
		wire[i] = serve.CriticalCycle{Events: od.g.EventNames(c.Events), Arcs: arcs, Length: c.Length, Period: c.Period}
	}
	return digestAnalyze(wireLambda(lam), wire), nil
}

// replayStats is what an engine replay of a session's ops measured:
// time per op kind and the engines' work counters.
type replayStats struct {
	ns      [numOpKinds]time.Duration
	count   [numOpKinds]int
	queries int // what-if queries
	editB   int // Σ border size over edits: per-trace patches attempted
	stats   cycletime.EngineStats
	samples int // MC samples
}

func (r *replayStats) merge(o *replayStats) {
	for k := range r.ns {
		r.ns[k] += o.ns[k]
		r.count[k] += o.count[k]
	}
	r.queries += o.queries
	r.editB += o.editB
	r.samples += o.samples
	r.addEngine(cycletime.EngineStats{}, o.stats)
}

func (r *replayStats) addEngine(before, after cycletime.EngineStats) {
	r.stats.Analyses += after.Analyses - before.Analyses
	r.stats.IncrementalAnalyses += after.IncrementalAnalyses - before.IncrementalAnalyses
	r.stats.FastPathHits += after.FastPathHits - before.FastPathHits
	r.stats.TableAnswers += after.TableAnswers - before.TableAnswers
	r.stats.WindowedPass1 += after.WindowedPass1 - before.WindowedPass1
	r.stats.SlabPass1 += after.SlabPass1 - before.SlabPass1
	r.stats.PatchFloods += after.PatchFloods - before.PatchFloods
	r.stats.LazyPass2Skips += after.LazyPass2Skips - before.LazyPass2Skips
	r.stats.Pass2Runs += after.Pass2Runs - before.Pass2Runs
}

// verdict counts the oracle's findings.
type verdict struct {
	checked int
	wrong   int
	first   string // first mismatch, for the report
}

func (v *verdict) mismatch(format string, args ...any) {
	v.wrong++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// checkSession replays each session's executed ops, in order, on fresh
// in-process engines and compares every answer. Sessions own disjoint
// designs, so each design's op order is its session's order and the
// replay is deterministic; the sessions replay concurrently.
func checkSession(w *workload, sessions []*session, v *verdict) (*replayStats, error) {
	stats := make([]*replayStats, len(sessions))
	verdicts := make([]verdict, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for si := range sessions {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			stats[si], errs[si] = replaySession(w, si, sessions[si], &verdicts[si])
		}(si)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rs := &replayStats{}
	for si := range sessions {
		rs.merge(stats[si])
		v.checked += verdicts[si].checked
		v.wrong += verdicts[si].wrong
		if v.first == "" {
			v.first = verdicts[si].first
		}
	}
	return rs, nil
}

func replaySession(w *workload, si int, s *session, v *verdict) (*replayStats, error) {
	rs := &replayStats{}
	ods := map[int32]*oracleDesign{}
	for _, di := range w.resident[si] {
		od, err := newOracleDesign(w.designs[di].text)
		if err != nil {
			return nil, err
		}
		if _, err := od.analyze(); err != nil {
			return nil, err
		}
		ods[int32(di)] = od
	}
	for _, rec := range s.records {
		o := &s.stream[int(rec.idx)%len(s.stream)]
		od := ods[o.design]
		if od.poisoned {
			continue
		}
		if rec.failed {
			od.poisoned = true
			continue
		}
		before := od.eng.Stats()
		t0 := time.Now()
		want, err := replayOp(od, o, rs)
		rs.ns[o.kind] += time.Since(t0)
		rs.count[o.kind]++
		rs.addEngine(before, od.eng.Stats())
		if err != nil {
			return nil, fmt.Errorf("oracle replay of %s: %w", opNames[o.kind], err)
		}
		v.checked++
		if want != rec.digest {
			v.mismatch("session %d op %d (%s on design %d): answer differs from the in-process engine", si, rec.idx, opNames[o.kind], o.design)
		}
	}
	return rs, nil
}

func replayOp(od *oracleDesign, o *op, rs *replayStats) (uint64, error) {
	switch o.kind {
	case opAnalyze:
		return od.analyze()
	case opWhatIf:
		cands := make([]cycletime.WhatIf, len(o.queries))
		for i, q := range o.queries {
			cands[i] = cycletime.WhatIf{Arc: od.canon[q.Arc], Delay: q.Delay}
		}
		rs.queries += len(cands)
		lams, err := od.eng.SensitivitySweep(cands)
		if err != nil {
			return 0, err
		}
		wire := make([]serve.Lambda, len(lams))
		for i, l := range lams {
			wire[i] = wireLambda(l)
		}
		return digestLambdas(wire), nil
	case opEdit:
		rs.editB += len(od.g.BorderEvents())
		if err := od.eng.SetDelay(od.canon[o.queries[0].Arc], o.queries[0].Delay); err != nil {
			return 0, err
		}
		lam, err := od.eng.CycleTime()
		if err != nil {
			return 0, err
		}
		return digestEdit(1, wireLambda(lam)), nil
	case opSlacks:
		lam, err := od.eng.CycleTime()
		if err != nil {
			return 0, err
		}
		sl, err := od.eng.Slacks()
		if err != nil {
			return 0, err
		}
		wire := make([]serve.ArcSlack, len(sl))
		for i, s := range sl {
			wire[i] = serve.ArcSlack{Arc: od.rank[s.Arc], Delay: od.g.Arc(s.Arc).Delay, Slack: s.Slack, Tight: s.Tight}
		}
		return digestSlacks(wireLambda(lam), wire), nil
	}
	return 0, fmt.Errorf("op kind %s is not a session op", opNames[o.kind])
}

// checkMC recomputes each distinct MC request in process, with the same
// seed and worker count, and compares every served answer to it.
func checkMC(w *workload, sessions []*session, v *verdict) (*replayStats, error) {
	rs := &replayStats{}
	want := make([]uint64, len(w.mcReqs))
	done := make([]bool, len(w.mcReqs))
	ods := map[int32]*oracleDesign{}
	for si, s := range sessions {
		for _, rec := range s.records {
			if rec.failed {
				continue
			}
			o := &s.stream[int(rec.idx)%len(s.stream)]
			if !done[o.mc] {
				od := ods[o.design]
				if od == nil {
					var err error
					if od, err = newOracleDesign(w.designs[o.design].text); err != nil {
						return nil, err
					}
					ods[o.design] = od
				}
				t0 := time.Now()
				dg, samples, err := mcAnswer(od, w.mcReqs[o.mc])
				rs.ns[opMC] += time.Since(t0)
				rs.count[opMC]++
				rs.samples += samples
				if err != nil {
					return nil, err
				}
				want[o.mc], done[o.mc] = dg, true
			}
			v.checked++
			if want[o.mc] != rec.digest {
				v.mismatch("session %d MC op %d (request %d): answer differs from in-process AnalyzeMC", si, rec.idx, o.mc)
			}
		}
	}
	return rs, nil
}

// mcAnswer computes an MC request the way the server does: uniform
// ±jitter around the graph's delays, criticality in wire arc order.
func mcAnswer(od *oracleDesign, req client.MCRequest) (uint64, int, error) {
	nominal := make([]float64, od.g.NumArcs())
	for i := range nominal {
		nominal[i] = od.g.Arc(i).Delay
	}
	model, err := dist.JitterUniform(nominal, req.Jitter)
	if err != nil {
		return 0, 0, err
	}
	res, err := od.eng.AnalyzeMC(model, cycletime.MCOptions{
		Samples: req.Samples, Seed: req.Seed, Criticality: req.Criticality, Workers: req.Workers,
	})
	if err != nil {
		return 0, 0, err
	}
	wire := &serve.MCResponse{Samples: res.Samples, Mean: res.Mean, Variance: res.Variance,
		Std: res.Std, Min: res.Min, Max: res.Max}
	for _, q := range res.Quantiles {
		wire.Quantiles = append(wire.Quantiles, serve.QuantileEstimate{P: q.P, Value: q.Value})
	}
	if res.Criticality != nil {
		wire.Criticality = make([]float64, len(od.canon))
		for k, i := range od.canon {
			wire.Criticality[k] = res.Criticality[i]
		}
	}
	return digestMC(wire), res.Samples, nil
}
