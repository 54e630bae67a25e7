// Command perfbench is the repository benchmark: it runs the deployed
// serving stack (client → router → two durable backends → engine →
// kernel) in one process on loopback, drives it with closed-loop
// sessions generated from a seed, checks every answer against an
// independent oracle, and prints its metrics as one JSON line.
//
//	perfbench --workload session --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate,
// traced run of the same workload that reports the per-layer metrics.
// WORKLOADS.md records why each workload exists and what each metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tsg/internal/exp"
)

// config is one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds data directories and the span dump.
	workDir string
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// warmup runs ops before the window; they are checked, not timed.
	warmup time.Duration
	// maxOps, when positive, ends each session after that many ops
	// instead of by time (self-tests).
	maxOps int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// answers lists every op's answer digest in session order (self-tests).
	answers [][]uint64
	note    string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: session or montecarlo")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.workDir = ".bench_build"
	cfg.setups = 15
	cfg.warmup = time.Second
	if flag.NArg() != 0 || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.note != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", res.note)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one benchmark run.
func run(ctx context.Context, cfg config) (*result, error) {
	t0 := time.Now()
	w, err := makeWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t0)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dataRoot, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dataRoot)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	topo, sessions, setupTimes, err := setUp(ctx, cfg, w, dataRoot, tr)
	if err != nil {
		return nil, err
	}
	closeAll := func() error {
		for _, s := range sessions {
			s.close()
		}
		return topo.close()
	}

	win := &window{start: time.Now().Add(cfg.warmup), phase: time.Duration(cfg.seconds * float64(time.Second)), traced: []bool{false}}
	if cfg.trace {
		win.phase /= 4
		win.traced = []bool{false, true, true, false}
	}
	r := &runner{w: w, sessions: sessions, win: win, tracer: tr, maxOps: cfg.maxOps}

	snaps, heap, err := measure(ctx, r, topo)
	if err != nil {
		closeAll()
		return nil, err
	}
	hwm := exp.VmHWMBytes()
	if hwm == 0 {
		closeAll()
		return nil, errors.New("reading the peak RSS (VmHWM) from /proc/self/status")
	}
	if err := closeAll(); err != nil {
		return nil, fmt.Errorf("stopping the stack: %w", err)
	}

	res := &result{Metrics: map[string]metric{}}
	failedOps := 0
	for _, s := range sessions {
		res.Attempted += len(s.records)
		var ans []uint64
		for _, rec := range s.records {
			if rec.failed {
				failedOps++
			}
			ans = append(ans, rec.digest)
		}
		res.answers = append(res.answers, ans)
		if s.err != nil && res.note == "" {
			res.note = s.err.Error()
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no op completed")
	}

	tOracle := time.Now()
	var v verdict
	var replay *replayStats
	switch w.name {
	case "session":
		replay, err = checkSession(w, sessions, &v)
	case "montecarlo":
		replay, err = checkMC(w, sessions, &v)
	}
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// Every op that answered must have been checked and found right.
	res.Failed = failedOps + v.wrong
	res.Correct = v.wrong == 0 && v.checked == res.Attempted-failedOps
	if v.first != "" {
		res.note = v.first
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: generated in %.1fs, %d ops checked in %.1fs\n",
		cfg.workload, cfg.seed, genTime.Seconds(), v.checked, time.Since(tOracle).Seconds())

	if !cfg.trace {
		endToEnd(res, cfg, sessions, win, snaps, hwm, setupTimes)
		return res, nil
	}
	lm, err := measureLayers(w, sessions, win, snaps, heap, tr, replay, cfg)
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	traceDir := filepath.Join(cfg.workDir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// setUp boots the stack cfg.setups times, each time uploading and
// analysing the resident sets from fresh data directories, and keeps
// the last stack for the run. Only set-up is timed, not generation.
func setUp(ctx context.Context, cfg config, w *workload, dataRoot string, tr *tracer) (*topology, []*session, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(dataRoot, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		last := i == cfg.setups-1
		topo, err := boot(dir, tr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("booting the stack: %w", err)
		}
		sessions := make([]*session, len(w.streams))
		for s := range sessions {
			sessions[s] = newSession(s, topo.url, w.streams[s], tr)
		}
		errs := make([]error, len(sessions))
		var wg sync.WaitGroup
		upTracer := tr
		if !last {
			upTracer = nil // only the set-up the run keeps is traced
		}
		for s := range sessions {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = sessions[s].upload(ctx, w, w.resident[s], upTracer)
			}(s)
		}
		wg.Wait()
		times = append(times, time.Since(t0).Seconds())
		if err := errors.Join(errs...); err != nil {
			topo.close()
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if last {
			return topo, sessions, times, nil
		}
		for _, s := range sessions {
			s.close()
		}
		if err := topo.close(); err != nil {
			return nil, nil, nil, err
		}
		removeAll(dir)
	}
}

// measure runs the sessions through the warm-up and the window, taking
// a counter snapshot at every phase boundary.
func measure(ctx context.Context, r *runner, topo *topology) ([]snapshot, []float64, error) {
	win := r.win
	heap := startHeapSampler(win)
	snaps := make([]snapshot, len(win.traced)+1)
	snapErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		var first error
		for p := range snaps {
			select {
			case <-time.After(time.Until(win.start.Add(time.Duration(p) * win.phase))):
			case <-stop:
				// Op-count runs end before the window does: close it now.
			}
			var err error
			snaps[p], err = takeSnapshot(topo)
			if err != nil && first == nil {
				first = err
			}
		}
		snapErr <- first
	}()
	r.run(ctx)
	close(stop)
	err := <-snapErr
	return snaps, heap.finish(), err
}

// endToEnd fills the metrics a user of the service sees.
func endToEnd(res *result, cfg config, sessions []*session, win *window, snaps []snapshot, hwm int64, setupTimes []float64) {
	var lat []float64
	for _, s := range sessions {
		for _, rec := range s.records {
			if rec.phase == 0 {
				lat = append(lat, float64(rec.lat)/1e6)
			}
		}
	}
	ops := float64(len(lat))
	res.Metrics["throughput_ops_s"] = metric{ratio(ops, win.phase.Seconds()), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	res.Metrics["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{ratio(float64(snaps[1].cpu-snaps[0].cpu)/1e6, ops), "ms"}
	res.Metrics["mem_peak_mb"] = metric{float64(hwm) / (1 << 20), "MiB"}
	res.Metrics["setup_s"] = metric{median(append([]float64(nil), setupTimes...)), "s"}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in the window, setups %v\n", cfg.workload, cfg.seed, len(lat), setupTimes)
}
