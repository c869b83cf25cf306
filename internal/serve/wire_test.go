package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/wire"
)

// startWireListener opens a loopback wire listener on srv and returns its
// address. The listener is shut down via cancel at cleanup; tests that
// exercise drain call ShutdownWire themselves first.
func startWireListener(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveWireOn(t, srv, ln)
}

// serveWireOn serves the wire plane on ln until cleanup.
func serveWireOn(t *testing.T, srv *Server, ln net.Listener) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeWire(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// wireTestConn is a hand-driven protocol peer: tests that need exact
// frame-level control (hostile fingerprints, drain ordering, garbage)
// drive the connection themselves instead of going through wire.Client.
type wireTestConn struct {
	nc  net.Conn
	bw  *bufio.Writer
	fr  *wire.FrameReader
	fw  *wire.FrameWriter
	enc *wire.RecordEncoder
}

// dialWire connects and completes the Hello/Schema handshake.
func dialWire(t *testing.T, addr string) *wireTestConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &wireTestConn{
		nc: nc,
		bw: bufio.NewWriter(nc),
		fr: wire.NewFrameReader(bufio.NewReader(nc)),
	}
	c.fw = wire.NewFrameWriter(c.bw)
	if err := c.fw.Write(wire.FrameHello, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	ft, p, err := c.fr.Read()
	if err != nil || ft != wire.FrameSchema {
		t.Fatalf("handshake answer: frame %d, err %v (want Schema)", ft, err)
	}
	info, err := wire.DecodeSchemaInfo(p)
	if err != nil {
		t.Fatal(err)
	}
	c.enc = wire.NewRecordEncoder(info.Schema)
	if c.enc.Fingerprint() != info.Fingerprint {
		t.Fatalf("client fingerprint %016x != server %016x", c.enc.Fingerprint(), info.Fingerprint)
	}
	return c
}

// sendScore frames one score request (mutate, when non-nil, edits the
// payload before framing — hostile-input tests use it).
func (c *wireTestConn) sendScore(t *testing.T, id uint64, deadlineMS uint32, tag string, recs []*data.Record, mutate func([]byte)) {
	t.Helper()
	p, err := c.enc.AppendScoreRequest(nil, id, deadlineMS, tag, recs)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(p)
	}
	if err := c.fw.Write(wire.FrameScore, p); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// readFrame reads one frame with a test-failure deadline.
func (c *wireTestConn) readFrame(t *testing.T) (wire.FrameType, []byte) {
	t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, p, err := c.fr.Read()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return ft, p
}

// expectError reads one frame and asserts it is an Error with the given
// id and status.
func (c *wireTestConn) expectError(t *testing.T, id uint64, status int) wire.WireError {
	t.Helper()
	ft, p := c.readFrame(t)
	if ft != wire.FrameError {
		t.Fatalf("frame type %d, want Error", ft)
	}
	we, err := wire.ParseError(p)
	if err != nil {
		t.Fatal(err)
	}
	if we.ID != id || we.Status != status {
		t.Fatalf("error frame id=%d status=%d (%s), want id=%d status=%d", we.ID, we.Status, we.Msg, id, status)
	}
	return we
}

// TestWireMatchesHTTPPlane pins that the two planes are one scoring path:
// for each outcome a request can have without any overload — scored,
// unknown tag, wrong record shape — both planes answer the same status,
// the same verdicts (which equal the f64 oracle's), and move the same
// counters by the same amounts. (The overload outcomes — 429, 503,
// mid-request swap, shadow mirroring — are the scenario tests in
// overload_test.go and v2_test.go, run over both planes the same way.)
// Wire requests are traced through the same ring, and the wire metrics
// move.
func TestWireMatchesHTTPPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 2)
	srv, ts := newTestServer(t, a, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond})
	planes := planesOf(t, srv, ts)

	want := f64Verdicts(t, a, recs)
	var attacks int64
	for _, v := range want {
		if v.IsAttack {
			attacks++
		}
	}
	// Records of another dataset's shape: well-formed, wrong for this model.
	gen, err := synth.New(synth.UNSWNB15Config())
	if err != nil {
		t.Fatal(err)
	}
	foreign := gen.Schema()
	odd := gen.Generate(2, 1)

	n := int64(len(recs))
	for _, tc := range []struct {
		name     string
		rq       planeRequest
		status   int
		admitted int64
		delta    map[string]int64
	}{
		{"scored", planeRequest{recs: recs}, http.StatusOK, n,
			map[string]int64{"records": n, "live.records": n, "live.attacks": attacks}},
		{"unknown tag", planeRequest{tag: "nonesuch", recs: recs[:1]}, http.StatusNotFound, 0,
			map[string]int64{"errors_4xx": 1}},
		{"wrong record shape", planeRequest{recs: []*data.Record{&odd.Records[0], &odd.Records[1]}, schema: &foreign}, http.StatusBadRequest, 0,
			map[string]int64{"errors_4xx": 1}},
	} {
		rq := tc.rq
		ans, delta := onBothPlanes(t, srv, planes, tc.admitted, func(t *testing.T, p scorePlane) planeAnswer {
			return p.score(t, rq)
		})
		if ans.status != tc.status {
			t.Fatalf("%s: both planes answered %d, want %d", tc.name, ans.status, tc.status)
		}
		if !reflect.DeepEqual(delta, tc.delta) {
			t.Fatalf("%s: counters moved by %v, want %v", tc.name, delta, tc.delta)
		}
		if tc.status != http.StatusOK {
			continue
		}
		if ans.version != a.Version() {
			t.Fatalf("%s: answered by version %q, want %q", tc.name, ans.version, a.Version())
		}
		if err := sameVerdicts(ans.verdicts, want); err != nil {
			t.Fatalf("%s: served vs f64 oracle: %v", tc.name, err)
		}
	}

	// Tracing: the scored wire request went through the same ring, tagged
	// with the wire endpoint and its hex request id.
	var wireTrace bool
	for _, tr := range srv.traces.Snapshot() {
		if tr.Endpoint == "/wire/score" && tr.Status == http.StatusOK {
			wireTrace = true
			if len(tr.ID) != 16 {
				t.Fatalf("wire trace id %q, want 16 hex digits", tr.ID)
			}
			if tr.Records != len(recs) {
				t.Fatalf("wire trace records = %d, want %d", tr.Records, len(recs))
			}
		}
	}
	if !wireTrace {
		t.Fatal("no scored /wire/score trace captured")
	}

	// Metrics: the four wire families render and move. A refused request
	// (404, 400) is an answer, not a protocol error.
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"pelican_wire_connections 1",
		`pelican_wire_frames_total{dir="in"}`,
		`pelican_wire_frames_total{dir="out"}`,
		`pelican_wire_bytes_total{dir="in"}`,
		`pelican_wire_bytes_total{dir="out"}`,
		"pelican_wire_protocol_errors_total 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if srv.m.wireFramesIn.Load() < 2 || srv.m.wireFramesOut.Load() < 2 {
		t.Fatalf("wire frame counters in=%d out=%d, want >= 2 each",
			srv.m.wireFramesIn.Load(), srv.m.wireFramesOut.Load())
	}

	// wire.Client over the same listener knows the live version from the
	// handshake alone, answers the same verdicts and tracks the answering
	// version.
	wc := wire.NewClient(startWireListener(t, srv))
	defer wc.Close()
	if err := wc.Connect(); err != nil {
		t.Fatal(err)
	}
	if wc.ModelVersion() != a.Version() {
		t.Fatalf("wire.Client ModelVersion after Connect = %q, want %q", wc.ModelVersion(), a.Version())
	}
	got, version, err := wc.Score(recs)
	if err != nil {
		t.Fatal(err)
	}
	if version != a.Version() || wc.ModelVersion() != version {
		t.Fatalf("wire.Client answered version %q (ModelVersion %q), want %q", version, wc.ModelVersion(), a.Version())
	}
	if err := sameVerdicts(got, want); err != nil {
		t.Fatalf("wire.Client vs f64 oracle: %v", err)
	}
}

// TestWirePipelinedOutOfOrder pins the multiplexing contract: many
// concurrent calls over one client share its pooled connections and every
// caller gets its own answer back — and a connection that pipelines past
// its in-flight cap is slowed, never refused or mis-answered.
func TestWirePipelinedOutOfOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, orig, recs := trainTestArtifact(t, "mlp", 11, 2)
	srv, _ := newTestServer(t, a, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond})
	addr := startWireListener(t, srv)

	want := make([]nids.Verdict, len(recs))
	orig.DetectBatch(recs, want)

	wc := wire.NewClient(addr)
	defer wc.Close()
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each caller scores a distinct rotation so a cross-wired
			// response (wrong id → wrong caller) cannot go unnoticed.
			sub := []*data.Record{recs[g%len(recs)], recs[(g+1)%len(recs)]}
			for i := 0; i < 8; i++ {
				got, _, err := wc.Score(sub)
				if err != nil {
					errs <- err
					return
				}
				for j := range sub {
					w := want[(g+j)%len(recs)]
					if got[j].IsAttack != w.IsAttack || got[j].Class != w.Class {
						t.Errorf("caller %d call %d rec %d: %+v, want %+v", g, i, j, got[j], w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A hand-driven connection writes 8× the per-connection cap before it
	// reads a single answer: the frames past the cap wait in the socket,
	// and every id is still answered exactly once, with its own verdicts.
	c := dialWire(t, addr)
	const frames = 8 * wireMaxInFlight
	for id := 0; id < frames; id++ {
		c.sendScore(t, uint64(id+1), 0, "", []*data.Record{recs[id%len(recs)], recs[(id+1)%len(recs)]}, nil)
	}
	answered := make(map[uint64]bool)
	for len(answered) < frames {
		ft, p := c.readFrame(t)
		resp, err := wire.ParseScoreResponse(p)
		if ft != wire.FrameResult || err != nil {
			t.Fatalf("frame type %d (%v) after %d answers, want Result", ft, err, len(answered))
		}
		if resp.ID < 1 || resp.ID > frames || answered[resp.ID] {
			t.Fatalf("answer id %d: unknown or answered twice", resp.ID)
		}
		answered[resp.ID] = true
		got := make([]nids.Verdict, resp.Count)
		if err := resp.DecodeVerdicts(got); err != nil || len(got) != 2 {
			t.Fatalf("id %d: %d verdicts, %v", resp.ID, len(got), err)
		}
		for j := range got {
			w := want[(int(resp.ID)-1+j)%len(recs)]
			if got[j].IsAttack != w.IsAttack || got[j].Class != w.Class {
				t.Fatalf("id %d rec %d: %+v, want %+v", resp.ID, j, got[j], w)
			}
		}
	}
}

// TestWireIdleConnGoroutines pins what a connection costs: once
// handshaken, an idle wire connection holds two goroutines — its reader
// and its writer — however many requests it may pipeline, and gives them
// back when the client hangs up.
func TestWireIdleConnGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, _ := trainTestArtifact(t, "mlp", 11, 1)
	srv, _ := newTestServer(t, a, Config{Replicas: 1})
	addr := startWireListener(t, srv)

	// One handshaken connection first: the listener's own goroutines are
	// running by then, so the baseline counts them.
	dialWire(t, addr)
	base := runtime.NumGoroutine()
	const n = 8
	var conns []*wireTestConn
	for i := 0; i < n; i++ {
		conns = append(conns, dialWire(t, addr))
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine()-base <= 2*n })
	for _, c := range conns {
		c.nc.Close()
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= base })
}

// smallSendBufListener shrinks the send buffer of every connection it
// accepts, so a peer that stops reading wedges its connection after a few
// hundred answers instead of megabytes of them. (The receive side keeps
// its default: a tiny receive window stalls a healthy sender on TCP's
// persist timer, which would look like a wedge.)
type smallSendBufListener struct{ net.Listener }

func (l smallSendBufListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return nc, err
}

// TestShutdownWireHonoursCtxWithStalledClient pins that a client that
// stops reading stalls only its own connection. It pipelines 32-record
// Score frames and never reads an answer, until its writes block. While
// it is wedged, a request on another wire connection and an HTTP request
// are each answered within a second: an answer is queued by the scoring
// worker that completes it, which must never wait on a client's socket.
// Then ShutdownWire, with a 300ms ctx, still sends the healthy
// connection its GoAway, returns context.DeadlineExceeded within ctx + 1s
// having force-closed the stalled connection, and no connection is left.
func TestShutdownWireHonoursCtxWithStalledClient(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	srv, ts := newTestServer(t, a, Config{Replicas: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := serveWireOn(t, srv, smallSendBufListener{ln})

	stalled := dialWire(t, addr)
	p, err := stalled.enc.AppendScoreRequest(nil, 1, 0, "", recs[:32])
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.NewFrameWriter(&frame).Write(wire.FrameScore, p); err != nil {
		t.Fatal(err)
	}
	for sent := 0; ; sent++ {
		if sent == 100000 {
			t.Fatal("the stalled connection never wedged")
		}
		stalled.nc.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := stalled.nc.Write(frame.Bytes()); err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatal(err)
			}
			t.Logf("wedged after %d frames", sent)
			break
		}
	}

	healthy := dialWire(t, addr)
	begin := time.Now()
	healthy.sendScore(t, 7, 0, "", recs[:2], nil)
	if ft, _ := healthy.readFrame(t); ft != wire.FrameResult || time.Since(begin) > time.Second {
		t.Fatalf("healthy wire connection: frame %d after %v, want a Result within 1s", ft, time.Since(begin))
	}
	begin = time.Now()
	if resp, body := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:2])}); resp.StatusCode != http.StatusOK || time.Since(begin) > time.Second {
		t.Fatalf("HTTP request: %d (%s) after %v, want 200 within 1s", resp.StatusCode, body, time.Since(begin))
	}

	const budget = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	shut := make(chan error, 1)
	begin = time.Now()
	go func() { shut <- srv.ShutdownWire(ctx) }()
	healthy.nc.SetReadDeadline(time.Now().Add(budget + time.Second))
	if ft, _, err := healthy.fr.Read(); err != nil || ft != wire.FrameGoAway {
		t.Fatalf("healthy connection: frame %d, %v; want its GoAway", ft, err)
	}
	select {
	case err := <-shut:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ShutdownWire = %v, want context.DeadlineExceeded", err)
		}
		if d := time.Since(begin); d > budget+time.Second {
			t.Fatalf("ShutdownWire returned after %v, its ctx allowed %v", d, budget)
		}
	case <-time.After(budget + time.Second):
		t.Fatalf("ShutdownWire still blocked %v after a %v ctx", budget+time.Second, budget)
	}
	waitFor(t, time.Second, func() bool { return srv.m.wireConnections.Load() == 0 })
}

// TestWireDeadlineExpiredSheds mirrors TestDeadlineExpiredSheds503 over
// the binary plane: a request whose frame deadline runs out behind a
// stalled replica is shed with an Error 503 — the deadline field maps to
// X-Timeout-Ms exactly.
func TestWireDeadlineExpiredSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 13, 1)
	inj := &chaos.Injector{}
	srv, _ := newTestServer(t, a, Config{
		Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		QueueDepth: 8, Chaos: inj,
	})
	addr := startWireListener(t, srv)
	c := dialWire(t, addr)

	// Occupy the only replica, then send a request that cannot survive
	// the stall on a 50ms budget.
	inj.SetScoreDelay(400 * time.Millisecond)
	c.sendScore(t, 1, 0, "", recs[:1], nil)
	time.Sleep(50 * time.Millisecond)
	c.sendScore(t, 2, 50, "", recs[:1], nil)

	deadline := time.Now().Add(10 * time.Second)
	var got503 bool
	for time.Now().Before(deadline) {
		ft, p := c.readFrame(t)
		if ft == wire.FrameError {
			we, err := wire.ParseError(p)
			if err != nil {
				t.Fatal(err)
			}
			if we.ID != 2 || we.Status != http.StatusServiceUnavailable {
				t.Fatalf("error frame id=%d status=%d (%s), want id=2 status=503", we.ID, we.Status, we.Msg)
			}
			got503 = true
			break
		}
	}
	if !got503 {
		t.Fatal("no 503 Error frame for the expired request")
	}
	inj.SetScoreDelay(0)
	if n := srv.reg.StatsFor("live").DeadlineExpired.Load(); n != 1 {
		t.Fatalf("DeadlineExpired = %d, want 1", n)
	}
}

// TestWireFingerprintMismatch409 pins the schema-skew guard: a request
// stamped with a foreign fingerprint is refused with 409 before any
// record is decoded, telling the client to re-handshake.
func TestWireFingerprintMismatch409(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	srv, _ := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond})
	addr := startWireListener(t, srv)
	c := dialWire(t, addr)

	c.sendScore(t, 7, 0, "", recs[:2], func(p []byte) {
		p[12] ^= 0xFF // corrupt the fingerprint field
	})
	c.expectError(t, 7, http.StatusConflict)
	if n := srv.m.wireProtoErrors.Load(); n != 0 {
		t.Fatalf("fingerprint mismatch counted as protocol error (%d); it is a deliberate 409", n)
	}
	// The connection survives: a correct request still scores.
	c.sendScore(t, 8, 0, "", recs[:2], nil)
	ft, p := c.readFrame(t)
	if ft != wire.FrameResult {
		t.Fatalf("post-409 frame type %d, want Result", ft)
	}
	resp, err := wire.ParseScoreResponse(p)
	if err != nil || resp.ID != 8 || resp.Count != 2 {
		t.Fatalf("post-409 response %+v, %v", resp, err)
	}
}

// TestWireClientRehandshakesAfterSchemaChange pins wire.Client's one
// retryable answer beyond the shared policy: when a promote changes the
// live schema under an established connection, the next request is
// refused 409, the client retires that connection, re-handshakes on a
// fresh one, and the call succeeds against the new model.
func TestWireClientRehandshakesAfterSchemaChange(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, recs := trainArtifactOn(t, synth.NSLKDDConfig(), 71, 1)
	renamed := synth.NSLKDDConfig()
	renamed.NumericName = append([]string(nil), renamed.NumericName...)
	renamed.NumericName[0] = "renamed_" + renamed.NumericName[0]
	a2, _ := trainArtifactOn(t, renamed, 73, 1)

	srv, _ := newTestServer(t, a1, Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond})
	wc := &wire.Client{Addr: startWireListener(t, srv), RetryBase: time.Millisecond}
	defer wc.Close()
	if _, version, err := wc.Score(recs[:4]); err != nil || version != a1.Version() {
		t.Fatalf("before the promote: version %q, err %v", version, err)
	}

	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, version, err := wc.Score(recs[:4]); err != nil || version != a2.Version() {
		t.Fatalf("after the promote: version %q, err %v; want a re-handshake and %q", version, err, a2.Version())
	}
	if wc.Errors() != 0 {
		t.Fatalf("the re-handshake surfaced %d call errors", wc.Errors())
	}
}

// TestWireClientFailsUnencodableBatchOnce pins the caller-error path: a
// batch the client cannot encode against the handshake schema — a record
// with the wrong feature count, or more records than one frame carries —
// fails on the first attempt, as the same batch's 400 does over HTTP. It
// never reaches the network and never sleeps a backoff.
func TestWireClientFailsUnencodableBatchOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	srv, _ := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond})
	const retryBase = 300 * time.Millisecond
	wc := &wire.Client{Addr: startWireListener(t, srv), Conns: 1, MaxAttempts: 3, RetryBase: retryBase}
	defer wc.Close()
	if err := wc.Connect(); err != nil {
		t.Fatal(err)
	}

	short := *recs[0]
	short.Numeric = short.Numeric[:len(short.Numeric)-1]
	tooMany := make([]*data.Record, 32769)
	for i := range tooMany {
		tooMany[i] = recs[0]
	}
	for i, batch := range [][]*data.Record{{recs[1], &short}, tooMany} {
		_, _, _, bytesOut := wc.Stats()
		start := time.Now()
		_, _, err := wc.Score(batch)
		took := time.Since(start)
		if !errors.Is(err, wire.ErrBadPayload) {
			t.Fatalf("batch %d: err = %v, want ErrBadPayload", i, err)
		}
		if took >= retryBase/2 {
			t.Fatalf("batch %d: failed after %v, want under %v: a caller error must not back off", i, took, retryBase/2)
		}
		if _, _, after, _ := wc.Stats(); after != bytesOut {
			t.Fatalf("batch %d: %d bytes sent for an unencodable batch", i, after-bytesOut)
		}
		if got := wc.Errors(); got != int64(i+1) {
			t.Fatalf("batch %d: Errors() = %d, want %d", i, got, i+1)
		}
	}
}

// TestWireUnknownTag404 pins slot resolution parity with ?tag=.
func TestWireUnknownTag404(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	srv, _ := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond})
	addr := startWireListener(t, srv)
	c := dialWire(t, addr)
	c.sendScore(t, 3, 0, "nonesuch", recs[:1], nil)
	c.expectError(t, 3, http.StatusNotFound)
}

// TestWireProtocolErrorAnswersAndCloses pins the hostile-peer contract:
// garbage on the wire is counted, answered with a connection-level Error
// 400, and the connection is closed — it never hangs and never panics
// the server.
func TestWireProtocolErrorAnswersAndCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, _ := trainTestArtifact(t, "mlp", 11, 1)
	srv, _ := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond})
	addr := startWireListener(t, srv)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("this is not a PLWF frame at all, not even close")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := wire.NewFrameReader(bufio.NewReader(nc))
	ft, p, err := fr.Read()
	if err != nil || ft != wire.FrameError {
		t.Fatalf("garbage answer: frame %d, err %v, want Error", ft, err)
	}
	we, err := wire.ParseError(p)
	if err != nil || we.ID != 0 || we.Status != http.StatusBadRequest {
		t.Fatalf("garbage answer %+v, %v; want connection-level 400", we, err)
	}
	// The server closes after the notice.
	if _, _, err := fr.Read(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
	waitFor(t, time.Second, func() bool { return srv.m.wireProtoErrors.Load() >= 1 })
	waitFor(t, time.Second, func() bool { return srv.m.wireConnections.Load() == 0 })
}

// TestWireResetIsNotAProtocolError pins that a peer resetting its
// connection is an I/O failure, not a protocol violation: handshaken
// clients that hang up with a TCP reset leave
// pelican_wire_protocol_errors_total at 0.
func TestWireResetIsNotAProtocolError(t *testing.T) {
	srv, _ := newTestServer(t, tinyArtifact(t), Config{Replicas: 1})
	addr := startWireListener(t, srv)
	for i := 0; i < 5; i++ {
		c := dialWire(t, addr)
		if err := c.nc.(*net.TCPConn).SetLinger(0); err != nil {
			t.Fatal(err)
		}
		c.nc.Close()
	}
	waitFor(t, 5*time.Second, func() bool { return srv.m.wireConnections.Load() == 0 })
	if n := srv.m.wireProtoErrors.Load(); n != 0 {
		t.Fatalf("5 reset connections counted %d protocol errors, want 0", n)
	}
}

// TestWireGracefulDrain pins the zero-dropped-frames drain: ShutdownWire
// sends GoAway, the in-flight request is still answered, a post-GoAway
// request is answered 503 (delivered, so the client accounts it as shed),
// and the server waits for the client to collect everything and close
// before ShutdownWire returns — gracefully, not by force.
func TestWireGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 13, 1)
	inj := &chaos.Injector{}
	srv, err := New(a, Config{
		Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		QueueDepth: 8, Chaos: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := startWireListener(t, srv)
	c := dialWire(t, addr)

	// Put one request in flight behind a 300ms stall, then drain.
	inj.SetScoreDelay(300 * time.Millisecond)
	c.sendScore(t, 1, 0, "", recs[:1], nil)
	time.Sleep(50 * time.Millisecond)

	shutdownDone := make(chan error, 1)
	shCtx, shCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer shCancel()
	go func() { shutdownDone <- srv.ShutdownWire(shCtx) }()

	// GoAway arrives while request 1 is still scoring.
	ft, _ := c.readFrame(t)
	if ft != wire.FrameGoAway {
		t.Fatalf("first post-drain frame %d, want GoAway", ft)
	}
	// A post-GoAway request is answered 503 — delivered, not dropped.
	c.sendScore(t, 2, 0, "", recs[:1], nil)
	c.expectError(t, 2, http.StatusServiceUnavailable)
	// The in-flight request's answer still lands.
	ft, p := c.readFrame(t)
	if ft != wire.FrameResult {
		t.Fatalf("in-flight answer frame %d, want Result", ft)
	}
	resp, perr := wire.ParseScoreResponse(p)
	if perr != nil || resp.ID != 1 || resp.Count != 1 {
		t.Fatalf("in-flight answer %+v, %v", resp, perr)
	}

	// The server is still waiting on us: ShutdownWire must not have
	// returned. Closing our end releases it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("ShutdownWire returned %v before the client closed", err)
	case <-time.After(100 * time.Millisecond):
	}
	c.nc.Close()
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("ShutdownWire = %v, want nil (graceful, not forced)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ShutdownWire did not return after the client closed")
	}
	if n := srv.m.wireConnections.Load(); n != 0 {
		t.Fatalf("wire connections gauge = %d after drain, want 0", n)
	}
}

// TestWireClientDrainsToShed pins the wire.Client side of drain: after
// GoAway the client reports Draining and surfaces no phantom successes.
func TestWireClientDrainsToShed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	srv, err := New(a, Config{Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := startWireListener(t, srv)

	wc := &wire.Client{Addr: addr, Conns: 1, MaxAttempts: 1, RetryBase: time.Millisecond}
	defer wc.Close()
	if _, _, err := wc.Score(recs[:2]); err != nil {
		t.Fatal(err)
	}

	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	if err := srv.ShutdownWire(shCtx); err != nil {
		t.Fatalf("ShutdownWire = %v (the idle client must close on GoAway)", err)
	}
	waitFor(t, 5*time.Second, wc.Draining)
	// Post-drain calls fail (the listener is gone) but are classifiable
	// as drain, never as phantom verdicts.
	if _, _, err := wc.Score(recs[:2]); err == nil {
		t.Fatal("Score succeeded against a drained server")
	} else if _, shed := wire.ShedStatus(err); !shed && !wc.Draining() {
		t.Fatalf("post-drain error %v not classifiable as drain/shed", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", d)
}
