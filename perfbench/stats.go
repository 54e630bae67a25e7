package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"tsg/internal/cluster"
	"tsg/internal/serve"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (a metric with nothing to count
// on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Go runtime counters read at each snapshot.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const heapObjects = "/memory/classes/heap/objects:bytes"

type rtStats struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtStats{allocBytes: v(0), allocObjects: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// snapshot is every counter the benchmark reads at a phase boundary,
// through public surfaces only.
type snapshot struct {
	cpu     time.Duration
	cache   serve.CacheStats
	wal     int64
	cluster cluster.ClusterStatus
	rt      rtStats
}

func takeSnapshot(t *topology) (snapshot, error) {
	s := snapshot{cpu: cpuTime(), cache: t.cacheStats(), wal: t.walBytes(), rt: readRuntime()}
	resp, err := http.Get(t.url + "/debug/cluster")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/debug/cluster: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s.cluster)
}

// heapSampler tracks the peak Go heap (live and unswept objects) per
// window phase. Only its goroutine touches peak until finish.
type heapSampler struct {
	peak []float64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(win *window) *heapSampler {
	h := &heapSampler{peak: make([]float64, len(win.traced)), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapObjects}}
		for {
			select {
			case <-h.stop:
				return
			case now := <-tick.C:
				p := win.phaseAt(now)
				if p < 0 || p >= len(h.peak) {
					continue
				}
				metrics.Read(s)
				h.peak[p] = max(h.peak[p], float64(s[0].Value.Uint64()))
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.peak
}
