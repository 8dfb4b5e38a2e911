package main

import (
	"fmt"
	"runtime"
	"time"

	"xqview/internal/compile"
	"xqview/internal/core"
	"xqview/internal/deepunion"
	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// The traced run drives the same seeded rounds, reads and queries through
// the exported functions the public API calls, in the same order, with a
// span around each call:
//
//	round: update.ParseAndEvaluate → core.MaintainAll (Database.ApplyUpdates)
//	read:  core.SnapReg.Acquire → core.ViewFrame.XML → core.Version.Release
//	query: core.SnapReg.Acquire → core.QueryReader → core.Version.Release,
//	       plus a separate compile.Compile of the same text for the compile
//	       share, made after the pass so it adds nothing to the op.
//
// Per-round counts come from the program's own per-round data: the
// core.MaintStats MaintainAll returns and the obs.RoundSample it appends.

// engine is the state a Database holds, built from the exported pieces
// with the Database's options.
type engine struct {
	store *xmldoc.Store
	views []*core.View
	opts  core.Options
	reg   *core.SnapReg
}

// setupTraced builds the engine the way setupPublic builds a Database:
// documents, then views named view-0, view-1, … , then one published
// version.
func setupTraced(in *inputs, tr *tracer) (*engine, error) {
	req := tr.newReq()
	root := tr.begin("setup", req, nil)
	defer tr.end(root)
	e := &engine{store: xmldoc.NewStore(), reg: core.NewSnapReg()}
	for _, d := range in.docs {
		s := tr.begin("xmldoc.Store.Load", req, root)
		_, err := e.store.Load(d.name, d.text)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.name, err)
		}
	}
	plans := make([]*xat.Plan, len(in.views))
	for i, q := range in.views {
		s := tr.begin("core.NewView", req, root)
		v, err := core.NewView(e.store, q)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("create view %d: %w", i, err)
		}
		v.Name = fmt.Sprintf("view-%d", i)
		e.views = append(e.views, v)
		plans[i] = v.Plan
	}
	e.opts = core.Options{
		CacheBaseTables:   true,
		SkipDisjointViews: true,
		ShareSubplans:     true,
		SharedDAG:         xat.BuildSharedDAG(plans),
		Snapshots:         e.reg,
	}
	e.reg.PublishFull(e.store, e.views)
	return e, nil
}

// roundRec is one traced round.
type roundRec struct {
	target, maintain, wall time.Duration
	prims                  int
	stats                  []*core.MaintStats
	sample                 obs.RoundSample
	err                    error
}

func (e *engine) round(tr *tracer, script string) roundRec {
	req := tr.newReq()
	root := tr.begin("round", req, nil)
	s := tr.begin("update.ParseAndEvaluate", req, root)
	prims, err := update.ParseAndEvaluate(e.store, script)
	tr.end(s)
	r := roundRec{target: s.dur(), prims: len(prims)}
	if err == nil {
		s = tr.begin("core.MaintainAll", req, root)
		r.stats, err = core.MaintainAll(e.store, e.views, prims, e.opts)
		tr.end(s)
		r.maintain = s.dur()
		r.sample, _ = obs.Rounds.Last()
	}
	tr.end(root)
	r.wall, r.err = root.dur(), err
	return r
}

// queued is a traced query whose compile share is measured after the pass.
type queued struct {
	req   int64
	root  *span
	query string
	run   time.Duration // core.QueryReader
}

func (e *engine) read(tr *tracer, op readOp, qs *[]queued) readResult {
	req := tr.newReq()
	name := "read"
	if op.view == "" {
		name = "query"
	}
	root := tr.begin(name, req, nil)
	defer tr.end(root)
	s := tr.begin("core.SnapReg.Acquire", req, root)
	v := e.reg.Acquire()
	tr.end(s)
	var res readResult
	if op.view != "" {
		s = tr.begin("core.ViewFrame.XML", req, root)
		if f := v.Frame(op.view); f != nil {
			res.bytes = len(f.XML())
		} else {
			res.err = fmt.Errorf("view %q not in snapshot", op.view)
		}
		tr.end(s)
	} else {
		s = tr.begin("core.QueryReader", req, root)
		out, err := core.QueryReader(v.Store, op.query)
		tr.end(s)
		res = readResult{bytes: len(out), err: err}
		*qs = append(*qs, queued{req: req, root: root, query: op.query, run: s.dur()})
	}
	s = tr.begin("core.Version.Release", req, root)
	v.Release()
	tr.end(s)
	return res
}

// compileShare compiles each traced query again on its own and returns the
// per-query compile and execute (QueryReader minus compile) times in ms.
func compileShare(tr *tracer, qs []queued) (compileMS, execMS []float64) {
	for _, q := range qs {
		s := tr.begin("compile.Compile", q.req, q.root)
		_, err := compile.Compile(q.query)
		tr.end(s)
		if err != nil {
			continue
		}
		compileMS = append(compileMS, ms(s.dur()))
		execMS = append(execMS, ms(q.run-s.dur()))
	}
	return compileMS, execMS
}

// viewsXML serializes every view of the engine's published version.
func (e *engine) viewsXML() []string {
	v := e.reg.Acquire()
	defer v.Release()
	out := make([]string, len(v.Frames))
	for i := range v.Frames {
		out[i] = v.Frames[i].XML()
	}
	return out
}

// checkExtents runs the deep-union structural invariants over every
// view's extent.
func (e *engine) checkExtents(tr *tracer) error {
	req := tr.newReq()
	for _, v := range e.views {
		s := tr.begin("deepunion.Validate", req, nil)
		err := deepunion.Validate(v.Extent)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", v.Name, err)
		}
	}
	return nil
}

// tracedPass applies the warm-up rounds untraced, then replays exactly
// rounds rounds through the engine with a closed-loop writer, beside the
// same open-loop reader as the public pass running until the writer
// finishes. Telemetry (obs) is on for the replay so MaintainAll appends its
// RoundSample.
func tracedPass(e *engine, in *inputs, rounds int, tr *tracer) (*loadReport, []roundRec, []queued, error) {
	for _, script := range in.rounds[:warmRounds] {
		prims, err := update.ParseAndEvaluate(e.store, script)
		if err == nil {
			_, err = core.MaintainAll(e.store, e.views, prims, e.opts)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	defer obs.SetEnabled(obs.SetEnabled(true))
	rep := &loadReport{}
	recs := make([]roundRec, 0, rounds)
	var qs []queued
	far := time.Now().Add(24 * time.Hour)
	stop := make(chan struct{})
	done := make(chan struct{})
	readRep := &loadReport{}
	go func() {
		defer close(done)
		if len(in.reads) > 0 {
			openLoop(in.reads, in.rate, 1, far, stop, func(_ time.Time, op readOp) readResult {
				return e.read(tr, op, &qs)
			}, readRep)
		}
	}()
	writeLoop(in.rounds, warmRounds, far, rounds, func(script string) error {
		r := e.round(tr, script)
		recs = append(recs, r)
		return r.err
	}, rep)
	close(stop)
	<-done
	rep.add(readRep)
	return rep, recs, qs, nil
}

// perLayer lists every per-layer metric with its unit. Each run reports
// all of them; a layer a workload does not exercise reports 0 (no rounds
// on http-read, no HTTP on the in-process workloads).
var perLayer = []struct{ name, unit string }{
	{"update.target_ms", "ms"},
	{"update.target_share", "ratio"},
	{"update.prims_per_round", "count"},
	{"compact.kept_ratio", "ratio"},
	{"validate_ms", "ms"},
	{"validate.irrelevant_ratio", "ratio"},
	{"propagate_ms", "ms"},
	{"xat.cache_hit_ratio", "ratio"},
	{"xat.shared_hits_per_round", "count"},
	{"xat.views_skipped_ratio", "ratio"},
	{"xat.delta_roots_per_round", "count"},
	{"view.max_ms", "ms"},
	{"apply_ms", "ms"},
	{"deepunion.nodes_per_round", "count"},
	{"source_ms", "ms"},
	{"core.maintain_ms", "ms"},
	{"core.other_ms", "ms"},
	{"core.snap_depth", "count"},
	{"core.snap_retired", "count"},
	{"arena.kb_per_round", "KB"},
	{"alloc.objs_per_round", "count"},
	{"snap.acquire_us", "us"},
	{"serialize_ms", "ms"},
	{"read.kb", "KB"},
	{"query.compile_ms", "ms"},
	{"query.exec_ms", "ms"},
	{"http.handler_ms", "ms"},
	{"http.ttfb_ms", "ms"},
	{"http.transfer_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.max_outstanding", "count"},
	{"setup.load_s", "s"},
	{"setup.view_s", "s"},
	{"untraced.ops_per_s", "1/s"},
	{"traced.ops_per_s", "1/s"},
	{"untraced.op_p50_ms", "ms"},
	{"traced.op_p50_ms", "ms"},
	{"untraced.read_p50_ms", "ms"},
	{"traced.read_p50_ms", "ms"},
	{"untraced.query_p50_ms", "ms"},
	{"traced.query_p50_ms", "ms"},
	{"untraced.maintain_ms", "ms"},
	{"heap.kb_per_round", "KB"},
	{"trace.spans", "count"},
}

func newLayerMetrics() metrics {
	m := metrics{}
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
	return m
}

// put sets an already listed per-layer metric, keeping its unit.
func (m metrics) put(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("unlisted per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// roundLayers derives the update-path per-layer metrics from the traced
// rounds. Times are medians over rounds; counts are means per round;
// ratios are ratios of sums.
func roundLayers(m metrics, recs []roundRec) {
	var target, validate, propagate, apply, source, maintain, other, vmax []float64
	var sumTarget, sumWall, prims, in, out, irr, total, hits, misses float64
	var shared, skipped, views, roots, nodes, depth, retired, arena, allocs float64
	n := 0.0
	for _, r := range recs {
		if r.err != nil || len(r.stats) == 0 {
			continue
		}
		n++
		target = append(target, ms(r.target))
		maintain = append(maintain, ms(r.maintain))
		sumTarget += ms(r.target)
		sumWall += ms(r.wall)
		prims += float64(r.prims)
		st0 := r.stats[0]
		validate = append(validate, ms(st0.Validate))
		source = append(source, ms(st0.Source))
		irr += float64(st0.Validation.Irrelevant)
		total += float64(st0.Validation.Total)
		var p, a, worst time.Duration
		live := 0
		for _, st := range r.stats {
			p += st.Propagate
			a += st.Apply
			if st.Propagate+st.Apply > worst {
				worst = st.Propagate + st.Apply
			}
			if st.Skipped == 0 {
				live++
			}
		}
		propagate = append(propagate, ms(p))
		apply = append(apply, ms(a))
		vmax = append(vmax, ms(worst))
		// The per-view phases run on a pool of min(GOMAXPROCS, live views)
		// workers; spreading their summed time evenly over the pool
		// estimates the pool's wall time.
		workers := runtime.GOMAXPROCS(0)
		if live < workers {
			workers = live
		}
		pool := 0.0
		if workers > 0 {
			pool = ms(p+a) / float64(workers)
		}
		other = append(other, ms(r.maintain)-ms(st0.Validate)-ms(st0.Source)-pool)
		s := r.sample
		in += float64(s.PrimsIn)
		out += float64(s.PrimsOut)
		hits += float64(s.CacheHits)
		misses += float64(s.CacheMisses)
		shared += float64(s.SharedHits)
		skipped += float64(s.Skipped)
		views += float64(s.Views)
		roots += float64(s.DeltaRoots)
		nodes += float64(s.Merged + s.Inserted + s.Removed + s.Modified)
		depth += float64(s.SnapDepth)
		retired += float64(s.SnapRetired)
		arena += float64(s.ArenaBytes) / 1024
		allocs += float64(s.HeapAllocs)
	}
	if n == 0 {
		return
	}
	m.put("update.target_ms", median(target))
	m.put("update.target_share", ratio(sumTarget, sumWall))
	m.put("update.prims_per_round", prims/n)
	m.put("compact.kept_ratio", ratio(out, in))
	m.put("validate_ms", median(validate))
	m.put("validate.irrelevant_ratio", ratio(irr, total))
	m.put("propagate_ms", median(propagate))
	m.put("xat.cache_hit_ratio", ratio(hits, hits+misses))
	m.put("xat.shared_hits_per_round", shared/n)
	m.put("xat.views_skipped_ratio", ratio(skipped, views))
	m.put("xat.delta_roots_per_round", roots/n)
	m.put("view.max_ms", median(vmax))
	m.put("apply_ms", median(apply))
	m.put("deepunion.nodes_per_round", nodes/n)
	m.put("source_ms", median(source))
	m.put("core.maintain_ms", median(maintain))
	m.put("core.other_ms", median(other))
	m.put("core.snap_depth", depth/n)
	m.put("core.snap_retired", retired/n)
	m.put("arena.kb_per_round", arena/n)
	m.put("alloc.objs_per_round", allocs/n)
}

// readLayers derives the read-path per-layer metrics from the spans of
// traced reads and queries.
func readLayers(m metrics, tr *tracer, compileMS, execMS []float64, readBytes []float64) {
	acq := tr.durations("core.SnapReg.Acquire")
	for i := range acq {
		acq[i] *= 1000
	}
	m.put("snap.acquire_us", median(acq))
	m.put("serialize_ms", median(tr.durations("core.ViewFrame.XML")))
	m.put("read.kb", mean(readBytes)/1024)
	m.put("query.compile_ms", median(compileMS))
	m.put("query.exec_ms", median(execMS))
}

// setupLayers derives the setup split from the traced setup's spans.
func setupLayers(m metrics, tr *tracer) {
	sum := func(name string) float64 {
		s := 0.0
		for _, d := range tr.durations(name) {
			s += d
		}
		return s / 1000
	}
	m.put("setup.load_s", sum("xmldoc.Store.Load"))
	m.put("setup.view_s", sum("core.NewView"))
}

// overheadLayers reports the untraced and traced passes' end-to-end
// numbers side by side; their difference is the tracing overhead.
func overheadLayers(m metrics, untraced, traced metrics, tr *tracer) {
	for _, k := range []string{"ops_per_s", "op_p50_ms", "read_p50_ms", "query_p50_ms"} {
		m.put("untraced."+k, untraced[k].Value)
		m.put("traced."+k, traced[k].Value)
	}
	m.put("trace.spans", float64(tr.len()))
}

// genLayers reports how far the open-loop generator fell behind.
func genLayers(m metrics, rep *loadReport) {
	m.put("gen.late_p99_ms", quantile(rep.late, 0.99))
	m.put("gen.max_outstanding", float64(rep.maxOutstanding))
}
