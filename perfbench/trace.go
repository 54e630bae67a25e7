package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, one per boundary the benchmark can reach from outside the
// program: the client call, the client's HTTP exchange inside it, the
// router's ServeHTTP, each router→backend hop (its http.RoundTripper)
// and the backend's ServeHTTP.
const (
	spanClient uint8 = iota
	spanExchange
	spanRouter
	spanHop
	spanHandler
)

var spanKindNames = [...]string{"client", "exchange", "router", "hop", "handler"}

// reqHeader carries a traced request's id from the client to the router
// and from each hop to its backend. The benchmark adds it itself; the
// program's own tracing is not used.
const reqHeader = "X-Perfbench-Req"

type reqKey struct{}

// span is one recorded interval. req ties the spans of one client call
// together; the op that made the call is found through the client span.
type span struct {
	req   uint64
	kind  uint8
	node  int8 // backend index for hop and handler spans, else -1
	route uint8
	start int64 // ns since tracer.base
	end   int64
	bytes int64 // request + response body bytes of an exchange or hop
}

// tracer keeps every span in memory; they are written out once, after
// the run.
type tracer struct {
	base    time.Time
	nextReq atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs one client request under a fresh id as a client span; on a
// nil tracer it runs the request untraced.
func (t *tracer) call(ctx context.Context, route opKind, f func(context.Context) error) error {
	if t == nil {
		return f(ctx)
	}
	id := t.nextReq.Add(1)
	start := t.now()
	err := f(withReq(ctx, id))
	t.add(span{req: id, kind: spanClient, node: -1, route: uint8(route), start: start, end: t.now()})
	return err
}

func withReq(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// routeOf maps a /v1 path to its op-kind index (numOpKinds when not a
// protocol route, e.g. health probes).
func routeOf(path string) uint8 {
	switch path {
	case "/v1/analyze":
		return uint8(opAnalyze)
	case "/v1/whatif":
		return uint8(opWhatIf)
	case "/v1/edit":
		return uint8(opEdit)
	case "/v1/slacks":
		return uint8(opSlacks)
	case "/v1/graphs":
		return uint8(opUpload)
	case "/v1/mc":
		return uint8(opMC)
	}
	return uint8(numOpKinds)
}

// handler wraps a router or backend handler: requests carrying the
// header get a span and the id in their context, so the router's hops
// can pass it on.
func (t *tracer) handler(kind uint8, node int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(withReq(r.Context(), id)))
		t.add(span{req: id, kind: kind, node: int8(node), route: routeOf(r.URL.Path), start: start, end: t.now()})
	})
}

// spanTransport times each request that carries an id in its context
// until its response body is drained or closed, counts its bytes, and
// passes the id on in reqHeader. It is a session's transport (exchange
// spans) and, on traced runs, the router's hop transport (hop spans).
// Requests without an id, such as health probes, are neither timed nor
// counted.
type spanTransport struct {
	t     *tracer
	kind  uint8
	base  http.RoundTripper
	nodes map[string]int8 // backend host:port → index; read-only, empty for a session
}

// transport wraps base in a spanTransport recording kind spans; urls
// are the backends in topology order, for hop spans.
func (t *tracer) transport(kind uint8, base http.RoundTripper, urls []string) *spanTransport {
	h := &spanTransport{t: t, kind: kind, base: base, nodes: map[string]int8{}}
	for i, u := range urls {
		h.nodes[strings.TrimPrefix(u, "http://")] = int8(i)
	}
	return h
}

func (h *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := reqOf(r.Context())
	if id == 0 {
		return h.base.RoundTrip(r)
	}
	node, ok := h.nodes[r.URL.Host]
	if !ok {
		node = -1
	}
	s := span{req: id, kind: h.kind, node: node, route: routeOf(r.URL.Path), start: h.t.now()}
	if r.ContentLength > 0 {
		s.bytes = r.ContentLength
	}
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := h.base.RoundTrip(r)
	if err != nil {
		s.end = h.t.now()
		h.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: h.t, s: s}
	return resp, nil
}

// spanBody ends its exchange or hop span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		route := "other"
		if int(s.route) < len(opNames) {
			route = opNames[s.route]
		}
		if err := enc.Encode(map[string]any{
			"req": s.req, "kind": spanKindNames[s.kind], "node": s.node, "route": route,
			"start_ns": s.start, "end_ns": s.end, "bytes": s.bytes,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a closed time range in ns.
type interval struct{ a, b int64 }

// covered returns the length of the union of the intervals.
func covered(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.a > cur.b {
			total += cur.b - cur.a
			cur = x
			continue
		}
		if x.b > cur.b {
			cur.b = x.b
		}
	}
	return total + cur.b - cur.a
}

// reqSpans groups one client call's spans.
type reqSpans struct {
	client    *span
	exchanges []*span // more than one when the client retried
	routers   []*span
	hops      []*span
	handlers  []*span
}

// breakdown is the self time of each boundary layer of one call, in ns.
// The client edge is the exchange time outside the router span (the
// loopback transport and both sides' HTTP and JSON work), router self is
// the router span minus the hops it covers, hop is the hop time not
// covered by backend handlers, and handler is the backend time. Every
// part is a measured span's self time; what the client call spends
// outside its exchanges (request encoding, answer digesting) and any
// call whose router span is missing stays uncovered.
type breakdown struct {
	total, edge, routerSelf, hop, handler int64
	attributed                            bool
}

func (r *reqSpans) breakdown() breakdown {
	b := breakdown{total: r.client.end - r.client.start}
	if len(r.exchanges) == 0 || len(r.routers) == 0 {
		return b
	}
	b.attributed = true
	// clip bounds a span to [lo, hi]: work outside it, such as a hedge
	// loser that outlives the router span, does not delay the answer.
	clip := func(spans []*span, lo, hi int64) []interval {
		out := make([]interval, 0, len(spans))
		for _, s := range spans {
			a := min(max(s.start, lo), hi)
			out = append(out, interval{a, max(min(s.end, hi), a)})
		}
		return out
	}
	// hull is the smallest interval holding every span of a kind.
	hull := func(spans []*span) (int64, int64) {
		lo, hi := spans[0].start, spans[0].end
		for _, s := range spans[1:] {
			lo, hi = min(lo, s.start), max(hi, s.end)
		}
		return lo, hi
	}
	ex := covered(clip(r.exchanges, r.client.start, r.client.end))
	exLo, exHi := hull(r.exchanges)
	router := covered(clip(r.routers, exLo, exHi))
	b.edge = nonNeg(ex - router)
	// Hops and handlers count inside the router span, as far as it lies
	// inside the exchange.
	lo, hi := hull(r.routers)
	lo = max(lo, exLo)
	hi = max(min(hi, exHi), lo)
	hopCover := covered(clip(r.hops, lo, hi))
	b.routerSelf = nonNeg(router - hopCover)
	b.handler = covered(clip(r.handlers, lo, hi))
	b.hop = nonNeg(hopCover - b.handler)
	return b
}

func nonNeg(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// group collects the spans of every traced call by request id.
func (t *tracer) group() map[uint64]*reqSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64]*reqSpans, len(t.spans)/4)
	for i := range t.spans {
		s := &t.spans[i]
		r := out[s.req]
		if r == nil {
			r = &reqSpans{}
			out[s.req] = r
		}
		switch s.kind {
		case spanClient:
			r.client = s
		case spanExchange:
			r.exchanges = append(r.exchanges, s)
		case spanRouter:
			r.routers = append(r.routers, s)
		case spanHop:
			r.hops = append(r.hops, s)
		case spanHandler:
			r.handlers = append(r.handlers, s)
		}
	}
	return out
}

// hopNet returns, for each hop, its duration minus the backend handler
// span it carried (same request, same node, nested inside the hop).
func (r *reqSpans) hopNet() []int64 {
	out := make([]int64, 0, len(r.hops))
	used := make([]bool, len(r.handlers))
	for _, h := range r.hops {
		d := h.end - h.start
		for j, s := range r.handlers {
			if !used[j] && s.node == h.node && s.route == h.route && s.start >= h.start && s.end <= h.end {
				used[j] = true
				d -= s.end - s.start
				break
			}
		}
		out = append(out, nonNeg(d))
	}
	return out
}
