package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"tsg/client"
)

// record is one executed op: when it ran, how long the client waited,
// and a digest of the answer for the oracle.
type record struct {
	idx    int32 // position in the session's stream
	kind   opKind
	phase  int8 // window phase the op started in; -1 before the window
	failed bool
	lat    int64 // ns
	digest uint64
}

// session is one closed-loop client: it sends its next request only
// after the previous answer arrived, over one keep-alive connection.
type session struct {
	id      int
	cl      *client.Client
	tr      *http.Transport
	stream  []op
	records []record
	err     error // first failure, for the report
}

// newSession builds a session on its own connection; a non-nil tracer
// records the HTTP exchange of every traced call.
func newSession(id int, url string, stream []op, t *tracer) *session {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 1
	var rt http.RoundTripper = tr
	if t != nil {
		rt = t.transport(spanExchange, tr, nil)
	}
	hc := &http.Client{Transport: rt, Timeout: 60 * time.Second}
	return &session{id: id, tr: tr, stream: stream,
		cl: client.New(url, client.WithHTTPClient(hc))}
}

func (s *session) close() { s.tr.CloseIdleConnections() }

// window describes the timed part of a run: consecutive phases of equal
// length. An untraced run has one phase; a traced run has four, traced
// in the middle two (untraced, traced, traced, untraced), so tracing
// overhead is measured against untraced phases on either side.
type window struct {
	start  time.Time // first timed op
	phase  time.Duration
	traced []bool
}

func (w *window) end() time.Time { return w.start.Add(w.phase * time.Duration(len(w.traced))) }

// phaseAt returns the phase index at t, -1 before the window and
// len(traced) after it.
func (w *window) phaseAt(t time.Time) int {
	if t.Before(w.start) {
		return -1
	}
	p := int(t.Sub(w.start) / w.phase)
	if p > len(w.traced) {
		p = len(w.traced)
	}
	return p
}

// runner drives the sessions of one run.
type runner struct {
	w        *workload
	sessions []*session
	win      *window
	tracer   *tracer // nil on untraced runs
	maxOps   int     // stop each session after this many ops (tests); 0 = by time
}

// run executes every session's closed loop until the window closes (or
// maxOps ops per session) and waits for all of them.
func (r *runner) run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range r.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			r.loop(ctx, s)
		}(s)
	}
	wg.Wait()
}

func (r *runner) loop(ctx context.Context, s *session) {
	end := r.win.end()
	for i := 0; ; i++ {
		if r.maxOps > 0 && i >= r.maxOps {
			return
		}
		t0 := time.Now()
		if r.maxOps == 0 && !t0.Before(end) {
			return
		}
		phase := r.win.phaseAt(t0)
		var tr *tracer // nil outside the traced phases
		if phase >= 0 && phase < len(r.win.traced) && r.win.traced[phase] {
			tr = r.tracer
		}
		o := &s.stream[i%len(s.stream)]
		digest, err := r.exec(ctx, s, o, tr)
		rec := record{idx: int32(i), kind: o.kind, phase: int8(phase),
			lat: int64(time.Since(t0)), digest: digest, failed: err != nil}
		if err != nil && s.err == nil {
			s.err = fmt.Errorf("session %d op %d (%s): %w", s.id, i, opNames[o.kind], err)
		}
		s.records = append(s.records, rec)
	}
}

// exec sends one op, as a traced call when tr is non-nil, and digests
// its answer.
func (r *runner) exec(ctx context.Context, s *session, o *op, tr *tracer) (uint64, error) {
	d := &r.w.designs[o.design]
	ref := client.ByFingerprint(d.fp)
	var digest uint64
	var err error
	switch o.kind {
	case opAnalyze:
		err = tr.call(ctx, opAnalyze, func(ctx context.Context) error {
			res, err := s.cl.Analyze(ctx, ref)
			if err == nil {
				digest = digestAnalyze(res.Lambda, res.Critical)
			}
			return err
		})
	case opWhatIf:
		err = tr.call(ctx, opWhatIf, func(ctx context.Context) error {
			res, err := s.cl.WhatIf(ctx, ref, o.queries)
			if err == nil {
				digest = digestLambdas(res.Lambdas)
			}
			return err
		})
	case opEdit:
		err = tr.call(ctx, opEdit, func(ctx context.Context) error {
			res, err := s.cl.Edit(ctx, ref, []client.DelayEdit{{Arc: o.queries[0].Arc, Delay: o.queries[0].Delay}})
			if err == nil {
				digest = digestEdit(res.Applied, res.Lambda)
			}
			return err
		})
	case opSlacks:
		err = tr.call(ctx, opSlacks, func(ctx context.Context) error {
			res, err := s.cl.Slacks(ctx, ref)
			if err == nil {
				digest = digestSlacks(res.Lambda, res.Slacks)
			}
			return err
		})
	case opMC:
		req := r.w.mcReqs[o.mc]
		err = tr.call(ctx, opMC, func(ctx context.Context) error {
			res, err := s.cl.MC(ctx, ref, req)
			if err == nil {
				digest = digestMC(res)
			}
			return err
		})
	}
	return digest, err
}

// upload sends a session's resident set and its first analyses: the
// set-up every workload pays before its first timed op. A non-nil
// tracer records each upload call; the first analyses stay untraced, so
// the per-op analyze figures hold warm answers only.
func (s *session) upload(ctx context.Context, w *workload, set []int, tr *tracer) error {
	for _, di := range set {
		d := &w.designs[di]
		var up *client.UploadResponse
		send := func(ctx context.Context) (err error) {
			up, err = s.cl.UploadText(ctx, d.text)
			return err
		}
		if err := tr.call(ctx, opUpload, send); err != nil {
			return fmt.Errorf("uploading %s design %d: %w", d.family, di, err)
		}
		if up.Fingerprint != d.fp {
			return fmt.Errorf("design %d: server fingerprint %s, generator %s", di, up.Fingerprint, d.fp)
		}
		if _, err := s.cl.Analyze(ctx, client.ByFingerprint(d.fp)); err != nil {
			return fmt.Errorf("first analysis of design %d: %w", di, err)
		}
	}
	return nil
}
