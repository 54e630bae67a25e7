package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tsg/internal/cluster"
	"tsg/internal/serve"
	"tsg/internal/store"
)

// backend is one durable tsgserved equivalent: a serve.Server with its
// own write-ahead log, listening on loopback.
type backend struct {
	srv   *serve.Server
	st    *store.Store
	httpd *http.Server
	url   string
}

// topology is the deployed serving stack in one process: one router at
// its shipped defaults in front of two durable backends at theirs. Only
// addresses, data directories and, on traced runs, the router's hop
// transport are set.
type topology struct {
	backends []*backend
	router   *cluster.Router
	httpd    *http.Server
	url      string
}

const numBackends = 2

// boot starts the stack with its data under dir. A non-nil tracer wraps
// the router and backend handlers and the router's hop transport.
func boot(dir string, tr *tracer) (*topology, error) {
	t := &topology{}
	var urls []string
	for i := 0; i < numBackends; i++ {
		st, rec, err := store.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)), store.Options{})
		if err != nil {
			t.close()
			return nil, err
		}
		s := serve.New(serve.Config{Store: st})
		if err := s.Recover(rec); err != nil {
			st.Close()
			t.close()
			return nil, err
		}
		var h http.Handler = s
		if tr != nil {
			h = tr.handler(spanHandler, i, s)
		}
		b := &backend{srv: s, st: st}
		if b.httpd, b.url, err = listen(h); err != nil {
			st.Close()
			t.close()
			return nil, err
		}
		t.backends = append(t.backends, b)
		urls = append(urls, b.url)
	}
	cfg := cluster.Config{Nodes: urls}
	if tr != nil {
		cfg.HTTPClient = &http.Client{Transport: tr.transport(spanHop, http.DefaultTransport, urls)}
	}
	r, err := cluster.New(cfg)
	if err != nil {
		t.close()
		return nil, err
	}
	r.Start()
	t.router = r
	var h http.Handler = r
	if tr != nil {
		h = tr.handler(spanRouter, -1, r)
	}
	if t.httpd, t.url, err = listen(h); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed once shut down
	return srv, "http://" + ln.Addr().String(), nil
}

// close stops the router's probes and every listener, then closes the
// logs. Serve goroutines exit when their listeners close.
func (t *topology) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.httpd != nil {
		errs = append(errs, t.httpd.Shutdown(ctx))
	}
	if t.router != nil {
		t.router.Stop()
	}
	for _, b := range t.backends {
		if b.httpd != nil {
			errs = append(errs, b.httpd.Shutdown(ctx))
		}
		errs = append(errs, b.st.Close())
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

// cacheStats sums the backends' engine-cache hits, misses and bytes.
func (t *topology) cacheStats() serve.CacheStats {
	var out serve.CacheStats
	for _, b := range t.backends {
		st := b.srv.Cache().Stats()
		out.Bytes += st.Bytes
		out.Hits += st.Hits
		out.Misses += st.Misses
	}
	return out
}

// walBytes sums the backends' log sizes.
func (t *topology) walBytes() int64 {
	var n int64
	for _, b := range t.backends {
		n += b.st.Size()
	}
	return n
}

// removeAll deletes a run's data directory, reporting failure on stderr
// only: the measurement is already complete.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing", dir+":", err)
	}
}
