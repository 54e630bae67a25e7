package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-tests check
// against: the metric names every run must report.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortConfig is a run bounded by op count, not by the clock, so no
// assertion below depends on timing.
func shortConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 60, trace: trace,
		workDir: t.TempDir(), setups: 1, maxOps: 12}
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	spec := loadSpec(t)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(context.Background(), shortConfig(t, wl, 3, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d (%s)", wl, trace, res.Correct, res.Failed, res.Attempted, res.note)
			}
			names := spec.EndToEnd
			if trace {
				names = spec.PerLayer
			}
			for _, n := range names {
				m, ok := res.Metrics[n.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, n.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", wl, trace, n.Name, m.Value)
				}
			}
		}
	}
}

func TestSameSeedSameOpsAndAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	for _, wl := range workloadNames {
		a, err := makeWorkload(wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeWorkload(wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 generated two different workloads", wl)
		}
		c, err := makeWorkload(wl, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.streams, c.streams) && reflect.DeepEqual(a.mcReqs, c.mcReqs) {
			t.Fatalf("%s: seeds 7 and 8 generated the same op streams", wl)
		}

		r1, err := run(context.Background(), shortConfig(t, wl, 7, false))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := run(context.Background(), shortConfig(t, wl, 7, false))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.answers, r2.answers) {
			t.Fatalf("%s: two runs of seed 7 answered differently", wl)
		}
	}
}

// TestOracleCatchesWrongAnswers flips one recorded answer and expects
// the oracle to reject the run.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	w, err := makeWorkload("montecarlo", 4)
	if err != nil {
		t.Fatal(err)
	}
	o := w.streams[0][0]
	od, err := newOracleDesign(w.designs[o.design].text)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := mcAnswer(od, w.mcReqs[o.mc])
	if err != nil {
		t.Fatal(err)
	}
	s := &session{stream: w.streams[0], records: []record{{idx: 0, kind: opMC, digest: want}, {idx: 0, kind: opMC, digest: want ^ 1}}}
	var v verdict
	if _, err := checkMC(w, []*session{s}, &v); err != nil {
		t.Fatal(err)
	}
	if v.checked != 2 || v.wrong != 1 {
		t.Fatalf("checked %d, wrong %d; want 2 and 1", v.checked, v.wrong)
	}
}

func TestCovered(t *testing.T) {
	got := covered([]interval{{5, 9}, {0, 2}, {1, 3}, {8, 10}})
	if got != 8 {
		t.Fatalf("covered = %d, want 8", got)
	}
}

// TestBreakdown checks the self-time split of one call: the parts come
// from measured spans, and the client's time outside its exchange stays
// uncovered.
func TestBreakdown(t *testing.T) {
	r := &reqSpans{
		client:    &span{start: 0, end: 100},
		exchanges: []*span{{start: 5, end: 95}},
		routers:   []*span{{start: 10, end: 90}},
		hops:      []*span{{start: 20, end: 80}, {start: 25, end: 95}}, // a hedge loser outliving the router
		handlers:  []*span{{start: 30, end: 70}},
	}
	got := r.breakdown()
	want := breakdown{total: 100, edge: 10, routerSelf: 10, hop: 30, handler: 40, attributed: true}
	if got != want {
		t.Fatalf("breakdown = %+v, want %+v", got, want)
	}
	m := map[string]metric{}
	shares(m, []breakdown{got}, "s.", "cov", 0)
	if c, u := m["cov"].Value, m["s.uncovered"].Value; math.Abs(c-0.9) > 1e-12 || math.Abs(u-0.1) > 1e-12 {
		t.Fatalf("coverage %v, uncovered %v; want 0.9 and 0.1", c, u)
	}
}
