package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wire"
)

// This file is the binary scoring plane: a wire.Frame listener that
// decodes score requests, hands them to the scoring core (score.go) the
// HTTP handler also feeds, and encodes the answers — one admission
// controller, one deadline policy, one set of stage histograms, one drain
// sequence. The wire plane is a second front door, never a second scoring
// path.
//
// Connection lifecycle: accept → Hello/Schema handshake → pipelined
// Score frames admitted by the connection's reader → out-of-order answers
// serialized by one writer goroutine. Nothing waits for a verdict: the
// scoring worker that settles a request's last record encodes its answer
// onto the write queue, so a connection is two goroutines however much it
// pipelines, and its in-flight cap is a credit count (see readLoop). On
// drain (ShutdownWire) every connection gets a GoAway; in-flight requests
// are still answered, post-GoAway requests answer Error 503 (shed, same
// as the HTTP plane's drain answer), and the connection closes when the
// client, having collected its last response, closes its end — so no
// in-flight frame is ever dropped.

// ServeWire accepts wire-protocol connections on ln and serves them
// until ln is closed (by ShutdownWire, Close, or ctx cancellation).
// Each connection gets a reader and a writer goroutine; ctx bounds the
// scoring work of every request on every connection. Blocks; run it in a
// goroutine beside http.Server.Serve.
func (s *Server) ServeWire(ctx context.Context, ln net.Listener) error {
	track(s, &s.wireLns, ln, true)
	defer track(s, &s.wireLns, ln, false)
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.wireWG.Add(1)
		go func(conn net.Conn) {
			defer s.wireWG.Done()
			s.serveWireConn(ctx, conn)
		}(nc)
	}
}

// ShutdownWire gracefully drains the wire plane: stops accepting, sends
// every connection a GoAway, answers everything already in flight, and
// waits for clients to collect their responses and close. Queuing a
// GoAway never blocks, so a client that stopped reading delays neither
// the others' notice nor ctx. Connections still open when ctx expires are
// force-closed. Call it after the HTTP listener has shut down and before
// Close (the scorers must outlive the in-flight wire requests).
func (s *Server) ShutdownWire(ctx context.Context) error {
	for _, cn := range s.stopWireAccept() {
		cn.beginDrain()
	}
	stop := context.AfterFunc(ctx, s.forceCloseWire)
	s.wireWG.Wait()
	if !stop() { // ctx expired: the force close ran
		return ctx.Err()
	}
	return nil
}

// forceCloseWire abandons graceful drain: every wire socket is closed
// outright. In-flight requests finish scoring (the scorers drain them)
// but their responses may be lost — the crash-shaped path, used by
// Close for embedded/test servers that never called ShutdownWire.
func (s *Server) forceCloseWire() {
	for _, cn := range s.stopWireAccept() {
		cn.closeSocket()
	}
}

// stopWireAccept closes every wire listener and returns the connections
// open at that moment. No socket is touched under the lock.
func (s *Server) stopWireAccept() []*wireServerConn {
	s.wireMu.Lock()
	lns := make([]net.Listener, 0, len(s.wireLns))
	for ln := range s.wireLns {
		lns = append(lns, ln)
	}
	conns := make([]*wireServerConn, 0, len(s.wireConns))
	for cn := range s.wireConns {
		conns = append(conns, cn)
	}
	s.wireMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	return conns
}

// track adds k to, or removes it from, one of the wire plane's sets.
func track[K comparable](s *Server, set *map[K]struct{}, k K, add bool) {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if !add {
		delete(*set, k)
	} else if *set == nil {
		*set = map[K]struct{}{k: {}}
	} else {
		(*set)[k] = struct{}{}
	}
}

// wireReply is one outbound frame: the payload buffer returns to the
// reply pool after the writer sends it.
type wireReply struct {
	ft      wire.FrameType
	payload []byte
}

// wireServerConn is one accepted wire connection.
type wireServerConn struct {
	s  *Server
	nc net.Conn
	bw *bufio.Writer
	fr *wire.FrameReader
	fw *wire.FrameWriter

	// writeq has room for an answer per credit plus the one GoAway, so an
	// enqueue never blocks; credits holds one token per answer owed.
	writeq     chan wireReply
	credits    chan struct{}
	noMoreSend chan struct{} // closed when nothing further will be enqueued
	down       chan struct{} // closed when the socket is being torn down
	writerDone chan struct{}
	downOnce   sync.Once

	draining atomic.Bool
	// active counts admitted Score frames whose reply is not yet
	// enqueued; the connection teardown waits it out so every read
	// request gets its answer written.
	active sync.WaitGroup
}

const wireConnBufSize = 64 << 10

// wireMaxInFlight caps the answers one connection may owe at once; the
// frames past it wait in the socket (TCP backpressure).
const wireMaxInFlight = 8

// serveWireConn runs one connection to completion.
func (s *Server) serveWireConn(ctx context.Context, nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	bw := bufio.NewWriterSize(nc, wireConnBufSize)
	cn := &wireServerConn{
		s:          s,
		nc:         nc,
		bw:         bw,
		fr:         wire.NewFrameReader(bufio.NewReaderSize(nc, wireConnBufSize)),
		fw:         wire.NewFrameWriter(bw),
		writeq:     make(chan wireReply, wireMaxInFlight+1),
		credits:    make(chan struct{}, wireMaxInFlight),
		noMoreSend: make(chan struct{}),
		down:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	s.m.wireConnections.Add(1)
	track(s, &s.wireConns, cn, true)
	go cn.writeLoop()
	cn.readLoop(ctx)
	// The reader is done. Wait until every admitted request's reply is
	// enqueued, let the writer drain and flush, then release the socket.
	cn.active.Wait()
	close(cn.noMoreSend)
	<-cn.writerDone
	cn.closeSocket()
	track(s, &s.wireConns, cn, false)
	s.m.wireConnections.Add(-1)
}

// beginDrain marks the connection draining and, once, queues the GoAway
// into writeq's reserved slot, so it never blocks. The connection then
// closes on the client's initiative (or a force close): the client
// collects its in-flight responses and closes its end.
func (cn *wireServerConn) beginDrain() {
	if cn.draining.CompareAndSwap(false, true) {
		cn.enqueueReply(wire.FrameGoAway, nil)
	}
}

// closeSocket tears the transport down, unblocking the reader and writer.
func (cn *wireServerConn) closeSocket() {
	cn.downOnce.Do(func() {
		close(cn.down)
		cn.nc.Close()
	})
}

// readLoop is the connection's single reader: handshake, then admission.
// Every frame is answered by exactly one frame, so the reader takes that
// answer's credit before handling it.
func (cn *wireServerConn) readLoop(ctx context.Context) {
	s := cn.s
	handshaken := false
	for {
		ft, p, err := cn.fr.Read()
		if err != nil {
			if err != io.EOF && wire.IsProtocolError(err) && cn.acquire() {
				cn.protoError(err)
			}
			return
		}
		s.m.wireFramesIn.Add(1)
		s.m.wireBytesIn.Add(int64(wire.HeaderSize + len(p)))
		if !cn.acquire() {
			return
		}
		switch ft {
		case wire.FrameHello:
			if !cn.sendSchema() {
				return
			}
			handshaken = true
		case wire.FrameScore:
			if !handshaken {
				cn.protoError(fmt.Errorf("wire: score frame before handshake"))
				return
			}
			wr := getWireRequest()
			req, perr := wr.rb.SetPayload(p)
			if perr != nil {
				putWireRequest(wr)
				cn.protoError(perr)
				return
			}
			wr.req, wr.cn = req, cn
			if cn.draining.Load() || s.draining.Load() {
				// Same answer the HTTP plane gives during drain; the reply
				// is still delivered, so the client can account it as shed.
				s.countError(http.StatusServiceUnavailable, wr.requestID(), "server is draining")
				wr.reject(http.StatusServiceUnavailable, "server is draining")
				putWireRequest(wr)
				continue
			}
			tr := obs.NewTrace(wr.requestID(), "/wire/score")
			tr.Records = wr.req.Count
			cn.active.Add(1)
			s.admit(ctx, int64(wr.req.DeadlineMS), internWireTag(wr.req.Tag), wr, tr)
		default:
			// Clients send only Hello and Score.
			cn.protoError(wire.ErrUnknownFrame)
			return
		}
	}
}

// protoError counts a protocol violation, best-effort notifies the peer
// with a connection-level Error frame, and lets the caller close.
func (cn *wireServerConn) protoError(err error) {
	cn.s.m.wireProtoErrors.Add(1)
	cn.s.log.Warn("wire protocol error", "remote", cn.nc.RemoteAddr().String(), "error", err.Error())
	cn.sendError(0, http.StatusBadRequest, err.Error())
}

// sendSchema answers a Hello with the live slot's schema. The handshake
// always describes the live schema; a client pinned to a slot with a
// different feature layout learns that via the per-request fingerprint
// check (409).
func (cn *wireServerConn) sendSchema() bool {
	si, ok := cn.s.slot(registry.Live)
	if !ok {
		cn.s.m.requestErrors5xx.Add(1)
		cn.sendError(0, http.StatusServiceUnavailable, "no model loaded under tag \"live\"")
		return false
	}
	payload, err := wire.EncodeSchemaInfo(wire.SchemaInfo{
		ModelVersion: si.artifact.Version(),
		Fingerprint:  si.wireFP,
		Schema:       si.artifact.Schema,
	})
	if err != nil {
		cn.s.m.requestErrors5xx.Add(1)
		cn.sendError(0, http.StatusInternalServerError, "encode schema: "+err.Error())
		return false
	}
	buf := append(getReplyBuf(), payload...)
	cn.enqueueReply(wire.FrameSchema, buf)
	return true
}

// sendError queues an Error frame (id 0 = connection-level).
func (cn *wireServerConn) sendError(id uint64, status int, msg string) {
	buf := wire.AppendError(getReplyBuf(), id, status, msg)
	cn.enqueueReply(wire.FrameError, buf)
}

// acquire takes the credit for one answer, waiting while wireMaxInFlight
// are owed; false means the connection is being torn down.
func (cn *wireServerConn) acquire() bool {
	select {
	case cn.credits <- struct{}{}:
		return true
	case <-cn.down:
		return false
	}
}

// enqueueReply hands one outbound frame to the writer; if the connection
// is going down the buffer is recycled and the frame dropped. It never
// blocks: writeq has room for the GoAway and every credited answer.
func (cn *wireServerConn) enqueueReply(ft wire.FrameType, payload []byte) {
	select {
	case cn.writeq <- wireReply{ft: ft, payload: payload}:
	case <-cn.down:
		putReplyBuf(payload)
	}
}

// writeLoop is the connection's single writer: it serializes the
// pipelined replies, flushing once per burst (drain the queue, then
// flush) so pipelined responses share syscalls without adding latency.
func (cn *wireServerConn) writeLoop() {
	defer close(cn.writerDone)
	for {
		select {
		case rep := <-cn.writeq:
			if !cn.writeReply(rep) || !cn.writeQueued() {
				return
			}
		case <-cn.noMoreSend:
			// Nothing further will be enqueued; drain what's there, flush,
			// and exit.
			cn.writeQueued()
			return
		case <-cn.down:
			return
		}
	}
}

// writeQueued writes every reply already queued, then flushes once.
func (cn *wireServerConn) writeQueued() bool {
	for {
		select {
		case rep := <-cn.writeq:
			if !cn.writeReply(rep) {
				return false
			}
		default:
			if err := cn.bw.Flush(); err != nil {
				cn.closeSocket()
				return false
			}
			return true
		}
	}
}

func (cn *wireServerConn) writeReply(rep wireReply) bool {
	if rep.ft != wire.FrameGoAway {
		<-cn.credits // off the queue: the reader may take another frame
	}
	err := cn.fw.Write(rep.ft, rep.payload)
	cn.s.m.wireFramesOut.Add(1)
	cn.s.m.wireBytesOut.Add(int64(wire.HeaderSize + len(rep.payload)))
	putReplyBuf(rep.payload)
	if err != nil {
		cn.closeSocket()
		return false
	}
	return true
}

// internWireTag maps a request's tag bytes to the registry tag without
// allocating for the overwhelmingly common cases.
func internWireTag(b []byte) string {
	if len(b) == 0 || string(b) == registry.Live {
		return registry.Live
	}
	if string(b) == registry.Shadow {
		return registry.Shadow
	}
	return string(b)
}

// wireRequest is the pooled per-request state: the copied frame payload,
// the record slabs, the core's state with its verdict slab, and the
// connection to answer on. It is the scoring core's scoreRequest.
type wireRequest struct {
	cn  *wireServerConn
	req wire.ScoreRequest
	rb  wire.RecordBuffer
	st  scoreState
}

// records checks the schema fingerprint and materialises the packed
// records, into wr's pooled slabs, against si's schema.
func (wr *wireRequest) records(si *slotInstance) ([]data.Record, int, error) {
	if wr.req.Fingerprint != si.wireFP {
		// The request was encoded against a schema this slot no longer
		// serves (a promote changed the vocabulary). Decoding its indices
		// would score garbage; the client re-handshakes.
		return nil, http.StatusConflict,
			fmt.Errorf("schema fingerprint mismatch (client %016x, server %016x); re-handshake", wr.req.Fingerprint, si.wireFP)
	}
	recs, err := wr.rb.Decode(&wr.req, si.artifact.Schema)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("decode records: %w", err)
	}
	return recs, 0, nil
}

func (wr *wireRequest) state() *scoreState { return &wr.st }

// complete answers the request through settle — on the scoring worker
// that settled its last record, or in admit for a refusal — and recycles it.
func (wr *wireRequest) complete() {
	cn := wr.cn
	cn.s.settle(wr)
	cn.active.Done()
	putWireRequest(wr)
}

// pooled: records and verdicts are recycled when the reply goes out.
func (wr *wireRequest) pooled() bool { return true }

func (wr *wireRequest) respond(si *slotInstance, verdicts []nids.Verdict) error {
	buf, err := wire.AppendScoreResponse(getReplyBuf(), wr.req.ID, si.artifact.Version(), verdicts)
	if err != nil {
		putReplyBuf(buf)
		return err
	}
	wr.cn.enqueueReply(wire.FrameResult, buf)
	return nil
}

func (wr *wireRequest) reject(status int, msg string) { wr.cn.sendError(wr.req.ID, status, msg) }

// requestID is the frame's request id as the 16 hex digits the trace ring
// and the logs carry — the wire plane's X-Request-Id.
func (wr *wireRequest) requestID() string { return fmt.Sprintf("%016x", wr.req.ID) }

var wireRequestPool = sync.Pool{New: func() any { return new(wireRequest) }}

func getWireRequest() *wireRequest { return wireRequestPool.Get().(*wireRequest) }
func putWireRequest(wr *wireRequest) {
	wr.cn, wr.st.sp.ctx, wr.st.sp.trace, wr.st.si, wr.st.cancel, wr.st.err = nil, nil, nil, nil, nil, nil
	wireRequestPool.Put(wr)
}

// replyBufPool recycles outbound frame payload buffers.
var replyBufPool = sync.Pool{New: func() any { return []byte(nil) }}

func getReplyBuf() []byte { return replyBufPool.Get().([]byte)[:0] }
func putReplyBuf(p []byte) {
	if p != nil {
		replyBufPool.Put(p) //nolint:staticcheck // slice header boxing is fine here
	}
}
