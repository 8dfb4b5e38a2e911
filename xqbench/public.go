package main

import (
	"fmt"
	"runtime"
	"time"

	"xqview"
)

// dbConfig is the Database configuration every in-process workload uses,
// the one `xqview -cache` runs with: base-table cache and disjoint-view
// skipping on, sub-plan sharing on, arena, compaction and parallelism at
// their defaults. It is printed with every result.
func dbConfig() map[string]any {
	return map[string]any{
		"cache_base_tables":   true,
		"skip_disjoint_views": true,
		"share_subplans":      true,
		"arena":               "default (on)",
		"compaction":          "default (on)",
		"parallelism":         fmt.Sprintf("default (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
	}
}

func newDatabase() *xqview.Database {
	db := xqview.NewDatabase()
	db.SetCacheBaseTables(true)
	db.SetSkipDisjointViews(true)
	db.SetShareSubplans(true)
	return db
}

// setupPublic loads the documents and creates the views through the public
// API, and reports how long that took.
func setupPublic(in *inputs) (*xqview.Database, []*xqview.View, time.Duration, error) {
	t0 := time.Now()
	db := newDatabase()
	for _, d := range in.docs {
		if err := db.LoadDocument(d.name, d.text); err != nil {
			return nil, nil, 0, fmt.Errorf("load %s: %w", d.name, err)
		}
	}
	views := make([]*xqview.View, len(in.views))
	for i, q := range in.views {
		v, err := db.CreateView(q)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("create view %d: %w", i, err)
		}
		views[i] = v
	}
	return db, views, time.Since(t0), nil
}

// publicPass drives the Database through its public API for one window:
// one closed-loop writer over in.rounds, from the first round after the
// warm-up, beside one open-loop reader of snapshot view reads and point
// queries. It also returns each round's MaintainAll wall time as the
// program reports it.
func publicPass(db *xqview.Database, in *inputs, window time.Duration) (*loadReport, []float64) {
	rep := &loadReport{}
	var maintain []float64
	end := time.Now().Add(window)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeLoop(in.rounds, warmRounds, end, 0, func(script string) error {
			reports, err := db.ApplyUpdates(script)
			if err == nil && len(reports) > 0 {
				maintain = append(maintain, ms(reports[0].Total))
			}
			return err
		}, rep)
	}()
	readRep := &loadReport{}
	openLoop(in.reads, in.rate, 1, end, nil, func(_ time.Time, op readOp) readResult {
		snap := db.Snapshot()
		defer snap.Release()
		var s string
		var err error
		if op.view != "" {
			s, err = snap.ViewXML(op.view)
		} else {
			s, err = snap.Query(op.query)
		}
		return readResult{bytes: len(s), err: err}
	}, readRep)
	<-writerDone
	rep.add(readRep)
	return rep, maintain
}

// warmRounds rounds run untimed after each set-up, so lazily built state
// (state caches, the shared DAG's partitions) is warm when timing starts.
const warmRounds = 20

// warmUp applies the warm-up rounds.
func warmUp(db *xqview.Database, in *inputs) error {
	for _, script := range in.rounds[:warmRounds] {
		if _, err := db.ApplyUpdates(script); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// checkRecompute is the refresh-theorem oracle: every view's incrementally
// maintained extent must equal the extent of the same view created from
// scratch over the final documents, byte for byte.
func checkRecompute(db *xqview.Database, views []*xqview.View, in *inputs) error {
	fresh := newDatabase()
	for _, d := range in.docs {
		text, err := db.DocumentXML(d.name)
		if err != nil {
			return fmt.Errorf("oracle: serialize %s: %w", d.name, err)
		}
		if err := fresh.LoadDocument(d.name, text); err != nil {
			return fmt.Errorf("oracle: reload %s: %w", d.name, err)
		}
	}
	for i, v := range views {
		fv, err := fresh.CreateView(in.views[i])
		if err != nil {
			return fmt.Errorf("oracle: recreate view-%d: %w", i, err)
		}
		if err := sameBytes(fmt.Sprintf("view-%d (incremental vs recomputed)", i), v.XML(), fv.XML()); err != nil {
			return err
		}
	}
	return nil
}

// sameBytes reports where two serializations first differ.
func sameBytes(what, got, want string) error {
	if got == want {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("mismatch: %s: lengths %d and %d, first difference at byte %d: %q vs %q",
		what, len(got), len(want), i, clip(got, i), clip(want, i))
}

func clip(s string, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
