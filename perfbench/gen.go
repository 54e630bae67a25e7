package main

import (
	"fmt"
	"math/rand"
	"strings"

	"tsg/client"
	"tsg/internal/gen"
	"tsg/internal/netlist"
	"tsg/internal/sg"
)

// design is one generated input graph: the .tsg text a client uploads,
// plus what the op generator and the oracle need to know about it.
type design struct {
	family string
	text   string
	fp     string
	arcs   int
	border int
	// delays holds the nominal arc delays in canonical-rank order, the
	// index space of every arc on the wire.
	delays []float64
}

type opKind uint8

const (
	opAnalyze opKind = iota
	opWhatIf
	opEdit
	opSlacks
	opMC
	opUpload // a resident design's upload during set-up
	numOpKinds
)

var opNames = [numOpKinds]string{"analyze", "whatif", "edit", "slacks", "mc", "upload"}

// op is one closed-loop request of a session's pre-generated stream.
type op struct {
	kind   opKind
	design int32
	// queries are the what-if batch, or the single edit of opEdit.
	queries []client.WhatIfQuery
	// mc indexes workload.mcReqs for opMC.
	mc int32
}

// workload is everything a run sends, generated from the seed before
// any server boots.
type workload struct {
	name    string
	designs []design
	// resident lists, per session, the designs uploaded and analysed
	// during set-up; the timed ops of session and montecarlo only touch
	// these.
	resident [][]int
	// streams holds each session's op stream; a run cycles through it.
	streams [][]op
	mcReqs  []client.MCRequest
}

var workloadNames = []string{"session", "montecarlo"}

// Stream sizes. The session stream is longer than a run gets through in
// one pass on a 2-vCPU machine; MC requests repeat by design (see
// makeWorkload).
const (
	sessionStreamLen = 1 << 16
	mcDistinct       = 64
	mcTail           = 2 // distinct MC requests in the tail class
)

// designSeed draws the resident designs. They are the same for every
// run seed: which structures and delays a seed drew moved session
// throughput by up to 1.5× between seeds, while one seed repeated within
// a few percent, so the run seed draws what the sessions send (arcs,
// delays, op order, MC sample seeds) over a fixed resident set.
const designSeed = 1

// makeWorkload generates the named workload: its designs from
// designSeed, its op streams from seed.
func makeWorkload(name string, seed int64) (*workload, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	dg := &generator{rng: rand.New(rand.NewSource(designSeed)), seen: map[string]bool{}}
	w := &workload{name: name}
	switch name {
	case "session":
		// Two interactive designers, each with a private resident set.
		for s := 0; s < 2; s++ {
			var set []int
			// Sizes follow a fixed ladder: random-live 500..1500 events
			// with b 4..8, stacks of 8, 20 and 32 cells.
			for i := 0; i < 8; i++ {
				var d design
				var err error
				if i < 5 {
					d, err = dg.randomLive(500+250*i, 4+i)
				} else {
					d, err = dg.stackSized(8 + 12*(i-5))
				}
				if err != nil {
					return nil, err
				}
				set = append(set, w.add(d))
			}
			w.resident = append(w.resident, set)
			w.streams = append(w.streams, g.sessionOps(w, set, sessionStreamLen))
		}
	case "montecarlo":
		// One statistical-timing session over small resident designs, so
		// that a run holds thousands of MC requests.
		// Sizes, sample counts and the criticality share are fixed
		// ladders, so a seed changes sample streams and order, not how
		// much work a run holds.
		var set []int
		for i := 0; i < 6; i++ {
			var d design
			var err error
			if i < 4 {
				d, err = dg.randomLive(300+133*i, 2+i/2)
			} else {
				d, err = dg.stackSized(4 + 4*(i-4))
			}
			if err != nil {
				return nil, err
			}
			set = append(set, w.add(d))
		}
		w.resident = [][]int{set}
		// The latency tail is one class of request: criticality on the
		// largest random-live design, several times dearer than any
		// other request and 1/32 of the stream. p99 then falls inside
		// that class rather than on the sparse edge between single
		// requests of different cost, where which requests a run
		// happened to slow down decided it.
		const tailDesign = 3
		mcDesign := make([]int32, mcDistinct)
		for i := 0; i < mcDistinct; i++ {
			d, samples, crit := i%len(set), 64+128*i/(mcDistinct-1), i%4 == 1
			if d == tailDesign {
				crit = false
			}
			if i >= mcDistinct-mcTail {
				d, samples, crit = tailDesign, 160, true
			}
			mcDesign[i] = int32(set[d])
			w.mcReqs = append(w.mcReqs, client.MCRequest{
				GraphRef:    client.ByFingerprint(w.designs[set[d]].fp),
				Samples:     samples,
				Seed:        g.rng.Uint64()>>1 | 1,
				Jitter:      0.1,
				Criticality: crit,
				Workers:     2,
			})
		}
		ops := make([]op, mcDistinct)
		for i, j := range g.rng.Perm(mcDistinct) {
			ops[i] = op{kind: opMC, mc: int32(j), design: mcDesign[j]}
		}
		w.streams = [][]op{ops}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

func (w *workload) add(d design) int {
	w.designs = append(w.designs, d)
	return len(w.designs) - 1
}

type generator struct {
	rng  *rand.Rand
	seen map[string]bool
}

func (g *generator) between(lo, hi int) int { return lo + g.rng.Intn(hi-lo+1) }

// finish serialises a generated graph. A fingerprint already handed out
// reports ok=false and the caller draws again, so every design of a
// workload is distinct content.
func (g *generator) finish(family string, gr *sg.Graph) (design, bool, error) {
	fp := sg.Fingerprint(gr)
	if g.seen[fp] {
		return design{}, false, nil
	}
	g.seen[fp] = true
	var b strings.Builder
	if err := netlist.WriteTSG(&b, gr); err != nil {
		return design{}, false, err
	}
	canon := sg.CanonicalArcOrder(gr)
	delays := make([]float64, len(canon))
	for k, a := range canon {
		delays[k] = gr.Arc(a).Delay
	}
	return design{family: family, text: b.String(), fp: fp,
		arcs: gr.NumArcs(), border: len(gr.BorderEvents()), delays: delays}, true, nil
}

// randomLive draws a random live graph with n events, border b and
// m = 2n arcs.
func (g *generator) randomLive(n, b int) (design, error) {
	for {
		gr, err := gen.RandomLive(g.rng, gen.RandomOptions{Events: n, Border: b, ExtraArcs: n})
		if err != nil {
			return design{}, err
		}
		if d, ok, err := g.finish("random", gr); ok || err != nil {
			return d, err
		}
	}
}

// stackSized draws a stack of the given depth with random integral
// handshake and shift delays.
func (g *generator) stackSized(cells int) (design, error) {
	for {
		gr, err := gen.StackOpts(gen.StackOptions{
			Cells:          cells,
			HandshakeDelay: float64(g.between(1, 99)),
			ShiftDelay:     float64(g.between(1, 99)),
		})
		if err != nil {
			return design{}, err
		}
		if d, ok, err := g.finish("stack", gr); ok || err != nil {
			return d, err
		}
	}
}

// sessionMix is one design's share of a block of session ops: ~40%
// analyze, ~30% what-if batches of 8, ~20% single-arc edits and ~10%
// slacks.
var sessionMix = []opKind{opAnalyze, opAnalyze, opAnalyze, opAnalyze, opWhatIf, opWhatIf, opWhatIf, opEdit, opEdit, opSlacks}

// sessionOps draws the interactive mix over one session's resident set
// in shuffled blocks that give every design the same sessionMix, so a
// window of a few thousand ops holds nearly the same work whatever the
// seed. Delays stay integral, so every λ is a small exact rational.
func (g *generator) sessionOps(w *workload, set []int, n int) []op {
	ops := make([]op, 0, n+len(set)*len(sessionMix))
	for len(ops) < n {
		block := make([]op, 0, len(set)*len(sessionMix))
		for _, di := range set {
			for _, k := range sessionMix {
				block = append(block, op{kind: k, design: int32(di)})
			}
		}
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			g.fill(&block[i], &w.designs[block[i].design])
		}
		ops = append(ops, block...)
	}
	return ops
}

// fill draws the arcs and delays of a what-if or edit op.
func (g *generator) fill(o *op, d *design) {
	switch o.kind {
	case opWhatIf:
		o.queries = make([]client.WhatIfQuery, 8)
		for q := range o.queries {
			k := g.rng.Intn(d.arcs)
			orig := int(d.delays[k])
			delay := orig + 1 + g.rng.Intn(orig/2+3)
			if q%2 == 1 {
				delay = max(0, orig-1-g.rng.Intn(orig/2+1))
			}
			o.queries[q] = client.WhatIfQuery{Arc: k, Delay: float64(delay)}
		}
	case opEdit:
		k := g.rng.Intn(d.arcs)
		o.queries = []client.WhatIfQuery{{Arc: k, Delay: float64(g.rng.Intn(2*int(d.delays[k]) + 3))}}
	}
}
