package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running `xqview -serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr *tailBuffer
	exited chan struct{} // closed once the process has been waited for
}

// servers tracks the live server processes so every exit path — normal
// return, error, or a signal to the benchmark — can kill and reap them.
var servers struct {
	sync.Mutex
	live map[*server]bool
}

// killServers kills and reaps every live server.
func killServers() {
	servers.Lock()
	live := make([]*server, 0, len(servers.live))
	for s := range servers.live {
		live = append(live, s)
	}
	servers.Unlock()
	for _, s := range live {
		s.stop()
	}
}

func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
	servers.Lock()
	delete(servers.live, s)
	servers.Unlock()
}

// tailBuffer keeps the last few KB written to it, for failure messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if over := len(b.buf) - 8192; over > 0 {
		b.buf = b.buf[over:]
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// freePort asks the kernel for a free loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts `xqview -http 127.0.0.1:<free port> -serve` over the
// given document and view files with the -cache configuration, and waits
// until /healthz answers and the view is served. It returns the time from
// process start to that point. A port lost to a race is retried.
func startServer(bin, docPath, queryPath string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, fmt.Errorf("free port: %w", err)
		}
		s := &server{
			base:   fmt.Sprintf("http://127.0.0.1:%d", port),
			stderr: &tailBuffer{},
			exited: make(chan struct{}),
		}
		s.cmd = exec.Command(bin, "-doc", "site.xml="+docPath, "-query", queryPath,
			"-cache", "-http", fmt.Sprintf("127.0.0.1:%d", port), "-serve")
		s.cmd.Stdout = io.Discard
		s.cmd.Stderr = s.stderr
		// The kernel kills the server if the benchmark dies without
		// reaching its cleanup.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := s.cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("start %s: %w", bin, err)
		}
		servers.Lock()
		if servers.live == nil {
			servers.live = map[*server]bool{}
		}
		servers.live[s] = true
		servers.Unlock()
		go func() {
			s.cmd.Wait()
			close(s.exited)
		}()
		if err := s.waitReady(60 * time.Second); err != nil {
			s.stop()
			lastErr = fmt.Errorf("server not ready: %w; server stderr:\n%s", err, s.stderr)
			continue
		}
		return s, time.Since(t0), nil
	}
	return nil, 0, lastErr
}

// waitReady polls /healthz, then the view, until both answer 200.
func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	c := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/healthz", "/view?name=view-0"} {
		for {
			select {
			case <-s.exited:
				return errors.New("server exited")
			default:
			}
			if resp, err := c.Get(s.base + path); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v", path, limit)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// httpClient issues the workload's requests over at most httpConns
// connections and checks every body: each /view body must equal the first,
// and each /query body must equal the first answer to the same query.
type httpClient struct {
	base string
	c    *http.Client
	tr   *tracer // nil when untraced

	mu      sync.Mutex
	view    []byte
	answers map[string][]byte
	bad     error
	ttfb    []float64
	xfer    []float64
}

func newHTTPClient(base string, tr *tracer) *httpClient {
	t := &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, DisableCompression: true}
	return &httpClient{
		base:    base,
		c:       &http.Client{Transport: t, Timeout: httpLimitMS * time.Millisecond},
		tr:      tr,
		answers: map[string][]byte{},
	}
}

func (h *httpClient) do(op readOp, due time.Time) readResult {
	u := h.base + "/view?name=" + url.QueryEscape(op.view)
	if op.view == "" {
		u = h.base + "/query?q=" + url.QueryEscape(op.query)
	}
	var req int64
	var root *span
	if h.tr != nil {
		req = h.tr.newReq()
		root = h.tr.begin("http.request", req, nil)
	}
	t0 := time.Now()
	resp, err := h.c.Get(u)
	if err != nil {
		return readResult{err: err}
	}
	t1 := time.Now()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, body)
	}
	if err == nil && t2.Sub(due) > httpLimitMS*time.Millisecond {
		err = fmt.Errorf("%s: over the %d ms latency limit", u, httpLimitMS)
	}
	if h.tr != nil {
		h.tr.endAt(h.tr.begin("http.wait", req, root), due, t0)
		h.tr.endAt(h.tr.begin("http.ttfb", req, root), t0, t1)
		h.tr.endAt(h.tr.begin("http.transfer", req, root), t1, t2)
		h.tr.endAt(root, due, t2)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ttfb = append(h.ttfb, ms(t1.Sub(t0)))
	h.xfer = append(h.xfer, ms(t2.Sub(t1)))
	if err != nil {
		return readResult{err: err}
	}
	if op.view != "" {
		if h.view == nil {
			h.view = body
		} else if !bytes.Equal(body, h.view) && h.bad == nil {
			h.bad = fmt.Errorf("mismatch: /view bodies differ between requests")
		}
	} else if prev, ok := h.answers[op.query]; !ok {
		h.answers[op.query] = body
	} else if !bytes.Equal(body, prev) && h.bad == nil {
		h.bad = fmt.Errorf("mismatch: /query bodies differ between requests for %s", op.query)
	}
	return readResult{bytes: len(body)}
}

// pass runs the open-loop client for one window.
func (h *httpClient) pass(in *inputs, window time.Duration) *loadReport {
	rep := &loadReport{}
	openLoop(in.reads, in.rate, httpConns, time.Now().Add(window), nil, func(due time.Time, op readOp) readResult {
		return h.do(op, due)
	}, rep)
	return rep
}

// checkBodies compares the bodies the clients were served with the
// in-process answers for the same inputs: View.XML and Database.Query, each
// plus the newline the handlers append.
func checkBodies(in *inputs, clients ...*httpClient) error {
	db, views, _, err := setupPublic(in)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	want := map[string]string{}
	for _, h := range clients {
		if h.bad != nil {
			return h.bad
		}
		if h.view != nil {
			if err := sameBytes("/view vs View.XML", string(h.view), views[0].XML()+"\n"); err != nil {
				return err
			}
		}
		for q, body := range h.answers {
			w, ok := want[q]
			if !ok {
				if w, err = db.Query(q); err != nil {
					return fmt.Errorf("oracle: query: %w", err)
				}
				want[q] = w
			}
			if err := sameBytes("/query vs Database.Query", string(body), w+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// statsClient reads the server's telemetry endpoints.
var statsClient = &http.Client{Timeout: 30 * time.Second}

// fetch GETs path and returns the body.
func (s *server) fetch(path string) ([]byte, error) {
	resp, err := statsClient.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// heapMB forces a collection in the server (the pprof heap endpoint's
// gc=1) and reads its heap gauge from /metrics.
func (s *server) heapMB() (float64, error) {
	if _, err := s.fetch("/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	body, err := s.fetch("/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "go_heap_alloc_bytes" {
			v, err := strconv.ParseFloat(f[1], 64)
			return v / (1 << 20), err
		}
	}
	return 0, errors.New("/metrics has no go_heap_alloc_bytes")
}

// handlerP50MS reads the server's own read-latency median from
// /stats/rounds.
func (s *server) handlerP50MS() (float64, error) {
	body, err := s.fetch("/stats/rounds")
	if err != nil {
		return 0, err
	}
	var p struct {
		Quantiles map[string]struct {
			P50 float64 `json:"p50"`
		} `json:"quantiles"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, fmt.Errorf("/stats/rounds: %w", err)
	}
	return p.Quantiles["read"].P50 * 1000, nil
}

// runHTTPRead runs http-read. Untraced, it starts the server instances
// times, measures an equal share of the window against each (setup_s is the
// median start → healthy-with-view time) and reports the end-to-end
// metrics. Traced, it measures half a window untraced and half traced
// against one server, reads the server's own read latency, and repeats the
// server's view reads and queries through a traced in-process engine for
// the layers inside it.
func runHTTPRead(in *inputs, bin, workdir string, window time.Duration, trace bool, spansPath string) (*result, error) {
	dir, err := os.MkdirTemp(workdir, "http-read-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	docPath := filepath.Join(dir, "site.xml")
	queryPath := filepath.Join(dir, "view.xq")
	if err := os.WriteFile(docPath, []byte(in.docs[0].text), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(queryPath, []byte(in.views[0]), 0o644); err != nil {
		return nil, err
	}
	defer killServers()
	start := func() (*server, float64, error) {
		srv, d, err := startServer(bin, docPath, queryPath)
		if err != nil {
			return nil, 0, err
		}
		// Warm-up: connections, and lazily built state in the server.
		h := newHTTPClient(srv.base, nil)
		for _, op := range in.reads[:warmOps] {
			if r := h.do(op, time.Now()); r.err != nil {
				srv.stop()
				return nil, 0, fmt.Errorf("warm-up: %w; server stderr:\n%s", r.err, srv.stderr)
			}
		}
		return srv, d.Seconds(), nil
	}
	if !trace {
		rep := &loadReport{}
		var setups, heaps []float64
		var clients []*httpClient
		for k := 0; k < instances; k++ {
			srv, d, err := start()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
			h := newHTTPClient(srv.base, nil)
			clients = append(clients, h)
			rep.add(h.pass(in, window/instances))
			heap, err := srv.heapMB()
			if err != nil {
				return nil, fmt.Errorf("server heap: %w; server stderr:\n%s", err, srv.stderr)
			}
			heaps = append(heaps, heap)
			srv.stop()
		}
		res := &result{attempted: rep.attempted(), failed: rep.failed(),
			metrics: e2eMetrics(rep, setups, median(heaps))}
		res.mismatch = checkBodies(in, clients...)
		return res, nil
	}

	srv, _, err := start()
	if err != nil {
		return nil, err
	}
	half := window / 2
	h := newHTTPClient(srv.base, nil)
	rep := h.pass(in, half)
	tr := newTracer()
	ht := newHTTPClient(srv.base, tr)
	trep := ht.pass(in, half)
	handler, err := srv.handlerP50MS()
	if err != nil {
		return nil, fmt.Errorf("server stats: %w; server stderr:\n%s", err, srv.stderr)
	}
	srv.stop()
	res := &result{attempted: rep.attempted() + trep.attempted(), failed: rep.failed() + trep.failed(),
		metrics: newLayerMetrics()}
	res.mismatch = checkBodies(in, h, ht)
	m := res.metrics
	genLayers(m, rep)
	m.put("http.handler_ms", handler)
	m.put("http.ttfb_ms", median(ht.ttfb))
	m.put("http.transfer_ms", median(ht.xfer))

	// The layers inside the server, repeated in-process on the same
	// document and view.
	e, err := setupTraced(in, tr)
	if err != nil {
		return nil, err
	}
	var qs []queued
	for _, op := range in.reads[:warmOps] {
		e.read(newTracer(), op, &qs)
	}
	qs = nil
	runtime.GC()
	var readBytes []float64
	for _, op := range in.reads[warmOps : warmOps+replicaOps] {
		r := e.read(tr, op, &qs)
		if r.err != nil {
			return nil, r.err
		}
		if op.view != "" {
			readBytes = append(readBytes, float64(r.bytes))
		}
	}
	compileMS, execMS := compileShare(tr, qs)
	readLayers(m, tr, compileMS, execMS, readBytes)
	setupLayers(m, tr)
	overheadLayers(m, e2eMetrics(rep, nil, 0), e2eMetrics(trep, nil, 0), tr)
	return res, tr.write(spansPath)
}

const (
	// warmOps requests warm each server up before timing.
	warmOps = 5
	// replicaOps is how many of the workload's operations the traced
	// in-process replica of the server repeats.
	replicaOps = 40
)
