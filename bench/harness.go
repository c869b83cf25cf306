package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// byteCount is the traffic seen at one server listener, both ways.
type byteCount struct{ in, out atomic.Int64 }

func (b *byteCount) total() int64 { return b.in.Load() + b.out.Load() }

// countingListener measures bytes crossing accepted connections at the
// server side — the ground truth for net_bytes_per_record, framing and
// headers included.
type countingListener struct {
	net.Listener
	n *byteCount
}

func (cl countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: cl.n}, nil
}

type countingConn struct {
	net.Conn
	n *byteCount
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.n.in.Add(int64(n))
	return n, err
}

// Write counts the bytes before they leave, so a client that has read a
// response always finds it counted; a short write is taken back.
func (cc countingConn) Write(p []byte) (int, error) {
	cc.n.out.Add(int64(len(p)))
	n, err := cc.Conn.Write(p)
	cc.n.out.Add(int64(n - len(p)))
	return n, err
}

// roundTripper wraps the HTTP client's transport. It always counts
// shed answers (the serve client's status error is not inspectable from
// outside) and, while the span log is on, records one http.roundtrip
// span per exchange keyed by the X-Request-Id the client generated.
type roundTripper struct {
	next  http.RoundTripper
	shed  atomic.Int64
	spans *spanLog
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	tracing := rt.spans.enabled()
	var start time.Duration
	if tracing {
		start = rt.spans.now()
	}
	resp, err := rt.next.RoundTrip(req)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		rt.shed.Add(1)
	}
	if tracing {
		rt.spans.add(span{Req: -1, XID: req.Header.Get(obs.RequestIDHeader), Name: "http.roundtrip", Parent: "client.call", Start: start, End: rt.spans.now()})
	}
	return resp, err
}

// harness is one in-process deployment: the scoring server at product
// defaults behind byte-counting loopback listeners on both planes, plus
// the public client of the workload's plane.
type harness struct {
	plane   string
	srv     *serve.Server
	httpSrv *http.Server
	httpN   byteCount
	wireN   byteCount

	wireCancel context.CancelFunc
	httpDone   chan struct{} // closed when the HTTP accept loop has returned
	wireDone   chan struct{} // closed when the wire accept loop has returned

	wc      *wire.Client
	hc      *http.Client
	rt      *roundTripper
	baseURL string
	spans   *spanLog
}

// setupTimes is one cold start, stage by stage: artifact bytes →
// LoadArtifact → serve.New → listen + connect → first verdict.
type setupTimes struct {
	load, newServer, connect, firstScore, total time.Duration
}

// startHarness performs one timed cold start from the artifact's bytes.
// conns is P: the wire pool size and the HTTP connection cap.
func startHarness(artBytes []byte, plane string, conns int, first []*data.Record, spans *spanLog) (*harness, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	art, err := serve.LoadArtifact(bytes.NewReader(artBytes))
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	srv, err := serve.New(art, serve.Config{})
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	h := &harness{plane: plane, srv: srv, spans: spans, httpDone: make(chan struct{}), wireDone: make(chan struct{})}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, st, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		srv.Close()
		return nil, st, err
	}
	h.httpSrv = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(h.httpDone)
		// Serve returns ErrServerClosed once close shuts the listener.
		_ = h.httpSrv.Serve(countingListener{Listener: hln, n: &h.httpN})
	}()
	var wireCtx context.Context
	wireCtx, h.wireCancel = context.WithCancel(context.Background())
	go func() {
		defer close(h.wireDone)
		// ServeWire ends, with the listener's close error, when close shuts it.
		_ = h.srv.ServeWire(wireCtx, countingListener{Listener: wln, n: &h.wireN})
	}()
	h.baseURL = "http://" + hln.Addr().String()
	h.rt = &roundTripper{spans: spans, next: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	h.hc = &http.Client{Timeout: serve.DefaultClientTimeout, Transport: h.rt}
	h.wc = wire.NewClient(wln.Addr().String())
	h.wc.Conns = conns
	h.wc.MaxAttempts = 1
	if plane == "wire" {
		if err := h.wc.Connect(); err != nil {
			h.close()
			return nil, st, fmt.Errorf("connect wire: %w", err)
		}
	}
	t3 := time.Now()
	verdicts, _, err := h.score(first)
	if err != nil {
		h.close()
		return nil, st, fmt.Errorf("first score: %w", err)
	}
	if len(verdicts) != len(first) {
		h.close()
		return nil, st, fmt.Errorf("first score: %d verdicts for %d records", len(verdicts), len(first))
	}
	t4 := time.Now()
	st = setupTimes{load: t1.Sub(t0), newServer: t2.Sub(t1), connect: t3.Sub(t2), firstScore: t4.Sub(t3), total: t4.Sub(t0)}
	return h, st, nil
}

// score sends one request through the workload's public client, exactly
// once (no retries, no fallback). The second result is the
// X-Request-Id of an HTTP exchange while tracing, "" otherwise.
func (h *harness) score(recs []*data.Record) ([]nids.Verdict, string, error) {
	if h.plane == "wire" {
		v, _, err := h.wc.Score(recs)
		return v, "", err
	}
	c := &serve.Client{BaseURL: h.baseURL, HTTP: h.hc, MaxAttempts: 1}
	v, _, err := c.Score(recs)
	if h.spans.enabled() {
		return v, c.LastRequestID(), err
	}
	return v, "", err
}

// listener returns the byte counter of the plane under load.
func (h *harness) listener() *byteCount {
	if h.plane == "wire" {
		return &h.wireN
	}
	return &h.httpN
}

// close shuts the deployment down in the product's order: clients,
// HTTP listener, wire drain, scorers. Every goroutine it started has
// exited when it returns.
func (h *harness) close() {
	h.wc.Close()
	h.hc.CloseIdleConnections()
	h.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A drain that outlives ctx is cut short by srv.Close below, which
	// force-closes what is left; nothing here can act on the error.
	_ = h.httpSrv.Shutdown(ctx)
	_ = h.srv.ShutdownWire(ctx)
	h.wireCancel()
	<-h.httpDone
	<-h.wireDone
	h.srv.Close()
}

// scrape reads the server's own /metrics through its handler (no
// socket, so the listeners' byte counts stay pure scoring traffic).
func (h *harness) scrape() (map[string]*obs.PromFamily, error) {
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	return obs.ParseProm(rec.Body)
}
