package main

import (
	"fmt"
	"runtime"
	"time"
)

// instances is how many times an untraced run sets up: it measures an
// equal share of the window on each instance and pools the samples.
// Instances of the same inputs differ in speed by about a tenth (memory
// layout, collector pacing), so one instance per run would make the run
// the unit of noise. setup_s is the median set-up time over the instances.
const instances = 6

// runInproc runs point-update or join-views. Untraced (trace false), it
// reports the end-to-end metrics of instances set-ups through the public
// API. Traced, it measures half a window untraced, then replays the same
// rounds through the traced engine, checks that both end with the same view
// bytes, and reports the per-layer metrics.
func runInproc(in *inputs, window time.Duration, trace bool, spansPath string) (*result, error) {
	res := &result{}
	if !trace {
		rep := &loadReport{}
		var setups, heaps []float64
		for k := 0; k < instances; k++ {
			runtime.GC()
			db, views, d, err := setupPublic(in)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			if err := warmUp(db, in); err != nil {
				return nil, err
			}
			heaps = append(heaps, liveHeapMB())
			r, _ := publicPass(db, in, window/instances)
			rep.add(r)
			// The oracle costs about a set-up; the first and the last
			// instance, which end after different rounds, are checked.
			if k == 0 || k == instances-1 {
				if err := checkRecompute(db, views, in); err != nil && res.mismatch == nil {
					res.mismatch = err
				}
			}
		}
		res.attempted, res.failed = rep.attempted(), rep.failed()
		res.metrics = e2eMetrics(rep, setups, median(heaps))
		return res, nil
	}

	db, views, _, err := setupPublic(in)
	if err != nil {
		return nil, err
	}
	if err := warmUp(db, in); err != nil {
		return nil, err
	}
	heap0 := liveHeapMB()
	rep, maintain := publicPass(db, in, window/2)
	heap1 := liveHeapMB()
	res.attempted, res.failed = rep.attempted(), rep.failed()
	res.metrics = newLayerMetrics()
	res.mismatch = checkRecompute(db, views, in)
	want := make([]string, len(views))
	for i, v := range views {
		want[i] = v.XML()
	}
	m := res.metrics
	untraced := e2eMetrics(rep, nil, 0)
	genLayers(m, rep)
	m.put("untraced.maintain_ms", median(maintain))
	m.put("heap.kb_per_round", ratio((heap1-heap0)*1024, float64(rep.rounds)))
	db, views = nil, nil
	runtime.GC()

	tr := newTracer()
	e, err := setupTraced(in, tr)
	if err != nil {
		return nil, err
	}
	trep, recs, qs, err := tracedPass(e, in, rep.rounds, tr)
	if err != nil {
		return nil, err
	}
	res.attempted += trep.attempted()
	res.failed += trep.failed()
	if res.mismatch == nil {
		got := e.viewsXML()
		for i := range want {
			if err := sameBytes(fmt.Sprintf("view-%d (traced vs untraced run)", i), got[i], want[i]); err != nil {
				res.mismatch = err
				break
			}
		}
	}
	if res.mismatch == nil {
		res.mismatch = e.checkExtents(tr)
	}
	compileMS, execMS := compileShare(tr, qs)
	roundLayers(m, recs)
	readLayers(m, tr, compileMS, execMS, trep.readBytes)
	setupLayers(m, tr)
	overheadLayers(m, untraced, e2eMetrics(trep, nil, 0), tr)
	return res, tr.write(spansPath)
}
