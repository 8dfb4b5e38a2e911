package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loadReport is what one measured pass observed. Latencies are in ms.
type loadReport struct {
	// Closed-loop writer.
	rounds     int           // rounds attempted
	roundFails int           // rounds that returned an error
	writerWall time.Duration // from the first round's start to the last round's end
	updates    []float64

	// Open-loop reader.
	readAttempts   int
	readFails      int
	readWall       time.Duration // from the loop's start to the last op's end
	reads, queries []float64     // due → last byte
	late           []float64     // due → start of the operation
	maxOutstanding int
	readBytes      []float64 // bytes of each view read
}

func (r *loadReport) attempted() int { return r.rounds + r.readAttempts }
func (r *loadReport) failed() int    { return r.roundFails + r.readFails }

// opsPerS is the rate the workload's main stream completed at: committed
// rounds per second when there is a writer, else reader operations per
// second.
func (r *loadReport) opsPerS() float64 {
	if r.rounds > 0 {
		return float64(r.rounds-r.roundFails) / r.writerWall.Seconds()
	}
	return float64(r.readAttempts-r.readFails) / r.readWall.Seconds()
}

// mainLatencies is the latency sample of the workload's main stream:
// rounds when there is a writer, else every reader operation.
func (r *loadReport) mainLatencies() []float64 {
	if r.rounds > 0 {
		return r.updates
	}
	return append(append([]float64(nil), r.reads...), r.queries...)
}

// writeLoop runs a closed-loop writer: each round starts when the previous
// one returned. It starts at rounds[from] and cycles through rounds, and
// stops after maxRounds rounds (when positive) or at end.
func writeLoop(rounds []string, from int, end time.Time, maxRounds int, apply func(script string) error, rep *loadReport) {
	start := time.Now()
	for i := 0; ; i++ {
		if maxRounds > 0 && i >= maxRounds {
			break
		}
		if maxRounds <= 0 && !time.Now().Before(end) {
			break
		}
		t0 := time.Now()
		err := apply(rounds[(from+i)%len(rounds)])
		rep.updates = append(rep.updates, ms(time.Since(t0)))
		rep.rounds++
		if err != nil {
			rep.roundFails++
		}
	}
	rep.writerWall = time.Since(start)
}

// add pools another pass's observations into r.
func (r *loadReport) add(o *loadReport) {
	r.rounds += o.rounds
	r.roundFails += o.roundFails
	r.writerWall += o.writerWall
	r.updates = append(r.updates, o.updates...)
	r.readAttempts += o.readAttempts
	r.readFails += o.readFails
	r.readWall += o.readWall
	r.reads = append(r.reads, o.reads...)
	r.queries = append(r.queries, o.queries...)
	r.late = append(r.late, o.late...)
	r.readBytes = append(r.readBytes, o.readBytes...)
	if o.maxOutstanding > r.maxOutstanding {
		r.maxOutstanding = o.maxOutstanding
	}
}

// readResult is what one reader operation reports back to the loop.
type readResult struct {
	bytes int
	err   error
}

// openLoop issues ops on a fixed schedule from workers goroutines: op i is
// due at start + i/rate whether or not earlier ops have finished, and its
// latency runs from when it was due, so a stall also delays every op queued
// behind it. It stops issuing at end or when stop closes, then waits for
// the ops in flight.
func openLoop(ops []readOp, rate float64, workers int, end time.Time, stop <-chan struct{}, do func(due time.Time, op readOp) readResult, rep *loadReport) {
	var (
		mu        sync.Mutex
		next      atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
	)
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-stop:
						t.Stop()
						return
					case <-t.C:
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				began := time.Now()
				outstanding := int(began.Sub(start)/interval) + 1 - int(completed.Load())
				op := ops[i%len(ops)]
				res := do(due, op)
				lat := ms(time.Since(due))
				completed.Add(1)
				mu.Lock()
				rep.readAttempts++
				if res.err != nil {
					rep.readFails++
				}
				if op.view != "" {
					rep.reads = append(rep.reads, lat)
					rep.readBytes = append(rep.readBytes, float64(res.bytes))
				} else {
					rep.queries = append(rep.queries, lat)
				}
				rep.late = append(rep.late, ms(began.Sub(due)))
				if outstanding > rep.maxOutstanding {
					rep.maxOutstanding = outstanding
				}
				if d := time.Since(start); d > rep.readWall {
					rep.readWall = d
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// e2eMetrics are the end-to-end metrics of one pass.
func e2eMetrics(rep *loadReport, setup []float64, heapMB float64) metrics {
	m := metrics{}
	main := rep.mainLatencies()
	m.set("setup_s", median(setup), "s")
	m.set("ops_per_s", rep.opsPerS(), "1/s")
	m.set("op_p50_ms", quantile(main, 0.50), "ms")
	m.set("op_p95_ms", quantile(main, 0.95), "ms")
	m.set("read_p50_ms", quantile(rep.reads, 0.50), "ms")
	m.set("read_p95_ms", quantile(rep.reads, 0.95), "ms")
	m.set("query_p50_ms", quantile(rep.queries, 0.50), "ms")
	m.set("query_p95_ms", quantile(rep.queries, 0.95), "ms")
	m.set("heap_mb", heapMB, "MB")
	return m
}
