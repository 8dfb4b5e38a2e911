package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The same seed must yield byte-identical inputs, and another seed other
// inputs.
func TestInputsDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := makeInputs(wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(wl, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", wl)
		}
		c, _ := makeInputs(wl, 8)
		if reflect.DeepEqual(a.docs, c.docs) {
			t.Errorf("%s: seeds 7 and 8 gave the same documents", wl)
		}
	}
}

// roundCounts are the per-round counts a traced single-writer run must
// repeat exactly.
type roundCounts struct {
	prims, deltaRoots, nodes, cacheHits, cacheMisses int
}

func tracedCounts(t *testing.T, wl string, rounds int) []roundCounts {
	t.Helper()
	in, err := makeInputs(wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	in.reads = nil // single writer
	tr := newTracer()
	e, err := setupTraced(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := tracedPass(e, in, rounds, tr)
	if err != nil {
		t.Fatal(err)
	}
	var out []roundCounts
	for i, r := range recs {
		if r.err != nil {
			t.Fatalf("%s round %d: %v", wl, i, r.err)
		}
		s := r.sample
		out = append(out, roundCounts{
			prims:       r.prims,
			deltaRoots:  int(s.DeltaRoots),
			nodes:       int(s.Merged + s.Inserted + s.Removed + s.Modified),
			cacheHits:   int(s.CacheHits),
			cacheMisses: int(s.CacheMisses),
		})
	}
	return out
}

func TestTracedCountsDeterministic(t *testing.T) {
	for _, wl := range []string{wPointUpdate, wJoinViews} {
		a := tracedCounts(t, wl, 12)
		b := tracedCounts(t, wl, 12)
		if len(a) != 12 {
			t.Fatalf("%s: %d rounds traced, want 12", wl, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: per-round counts differ between two runs:\n%v\n%v", wl, a, b)
		}
		busy := false
		for _, c := range a {
			busy = busy || c.deltaRoots > 0
		}
		if !busy {
			t.Errorf("%s: no round produced a delta", wl)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the benchmark
// runs and reports.
func TestBenchmarkJSONNames(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	e2e := e2eMetrics(&loadReport{}, nil, 0)
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics listed, %d reported", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	layers := newLayerMetrics()
	if len(b.PerLayer) != len(layers) {
		t.Errorf("%d per-layer metrics listed, %d reported", len(b.PerLayer), len(layers))
	}
	for _, m := range b.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
}
