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
	"time"

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
// Score frames fanned over a fixed per-connection worker pool →
// out-of-order Result frames serialized by one writer goroutine. On
// drain (ShutdownWire) every connection gets a GoAway; in-flight
// requests are still answered, post-GoAway requests answer Error 503
// (shed, same as the HTTP plane's drain answer), and the connection
// closes when the client, having collected its last response, closes
// its end — so no in-flight frame is ever dropped.

// ServeWire accepts wire-protocol connections on ln and serves them
// until ln is closed (by ShutdownWire, Close, or ctx cancellation).
// Each connection gets its own goroutines; ctx bounds the scoring work
// of every request on every connection. Blocks; run it in a goroutine
// beside http.Server.Serve.
func (s *Server) ServeWire(ctx context.Context, ln net.Listener) error {
	s.trackWireListener(ln, true)
	defer s.trackWireListener(ln, false)
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-watchDone:
		}
	}()
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
// waits for clients to collect their responses and close. Connections
// still open when ctx expires are force-closed. Call it after the HTTP
// listener has shut down and before Close (the scorers must outlive the
// in-flight wire requests).
func (s *Server) ShutdownWire(ctx context.Context) error {
	for _, cn := range s.stopWireAccept() {
		cn.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wireWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceCloseWire()
		<-done
		return ctx.Err()
	}
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

func (s *Server) trackWireListener(ln net.Listener, add bool) {
	s.wireMu.Lock()
	if add {
		if s.wireLns == nil {
			s.wireLns = make(map[net.Listener]struct{})
		}
		s.wireLns[ln] = struct{}{}
	} else {
		delete(s.wireLns, ln)
	}
	s.wireMu.Unlock()
}

func (s *Server) trackWireConn(cn *wireServerConn, add bool) {
	s.wireMu.Lock()
	if add {
		if s.wireConns == nil {
			s.wireConns = make(map[*wireServerConn]struct{})
		}
		s.wireConns[cn] = struct{}{}
	} else {
		delete(s.wireConns, cn)
	}
	s.wireMu.Unlock()
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

	writeq     chan wireReply
	noMoreSend chan struct{} // closed when nothing further will be enqueued
	down       chan struct{} // closed when the socket is being torn down
	writerDone chan struct{}
	noMoreOnce sync.Once
	downOnce   sync.Once

	draining atomic.Bool
	// active counts accepted Score frames whose reply is not yet
	// enqueued; the connection teardown waits it out so every read
	// request gets its answer written.
	active   sync.WaitGroup
	reqq     chan *wireRequest
	workerWG sync.WaitGroup
}

const wireConnBufSize = 64 << 10

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
		writeq:     make(chan wireReply, 4*wirePipeline),
		noMoreSend: make(chan struct{}),
		down:       make(chan struct{}),
		writerDone: make(chan struct{}),
		reqq:       make(chan *wireRequest, wirePipeline),
	}
	s.m.wireConnections.Add(1)
	s.trackWireConn(cn, true)
	go cn.writeLoop()
	for i := 0; i < wirePipeline; i++ {
		cn.workerWG.Add(1)
		go cn.worker(ctx)
	}
	cn.readLoop()
	// The reader is done: no further requests will be dispatched. Let the
	// workers finish, wait until every accepted request's reply has been
	// enqueued, let the writer drain and flush, then release the socket.
	close(cn.reqq)
	cn.workerWG.Wait()
	cn.active.Wait()
	cn.noMoreOnce.Do(func() { close(cn.noMoreSend) })
	<-cn.writerDone
	cn.closeSocket()
	s.trackWireConn(cn, false)
	s.m.wireConnections.Add(-1)
}

// beginDrain marks the connection draining and queues the GoAway notice.
// The connection then closes on the client's initiative (or a force
// close): the client collects its in-flight responses, sees its pending
// set empty, and closes its end.
func (cn *wireServerConn) beginDrain() {
	cn.draining.Store(true)
	cn.enqueueReply(wire.FrameGoAway, nil)
}

// closeSocket tears the transport down, unblocking the reader and writer.
func (cn *wireServerConn) closeSocket() {
	cn.downOnce.Do(func() {
		close(cn.down)
		cn.nc.Close()
	})
}

// readLoop is the connection's single reader: handshake, then dispatch.
func (cn *wireServerConn) readLoop() {
	s := cn.s
	handshaken := false
	for {
		ft, p, err := cn.fr.Read()
		if err != nil {
			if err != io.EOF && wire.IsProtocolError(err) {
				cn.protoError(err)
			}
			return
		}
		s.m.wireFramesIn.Add(1)
		s.m.wireBytesIn.Add(int64(wire.HeaderSize + len(p)))
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
			cn.active.Add(1)
			if cn.draining.Load() || s.draining.Load() {
				// Same answer the HTTP plane gives during drain; the reply
				// is still delivered, so the client can account it as shed.
				s.countError(http.StatusServiceUnavailable, wr.requestID(), "server is draining")
				wr.reject(http.StatusServiceUnavailable, "server is draining")
				cn.active.Done()
				putWireRequest(wr)
				continue
			}
			cn.reqq <- wr
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

// enqueueReply hands one outbound frame to the writer; if the connection
// is going down the buffer is recycled and the frame dropped.
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
			if !cn.writeBurst(rep) {
				return
			}
		case <-cn.noMoreSend:
			// Nothing further will be enqueued; drain what's there, flush,
			// and exit.
			for {
				select {
				case rep := <-cn.writeq:
					if !cn.writeReply(rep) {
						return
					}
				default:
					cn.bw.Flush()
					return
				}
			}
		case <-cn.down:
			return
		}
	}
}

// writeBurst writes rep plus everything else already queued, then
// flushes once.
func (cn *wireServerConn) writeBurst(rep wireReply) bool {
	if !cn.writeReply(rep) {
		return false
	}
	for {
		select {
		case next := <-cn.writeq:
			if !cn.writeReply(next) {
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

// worker scores dispatched requests. The pool is fixed at connection
// setup (wirePipeline workers), so pipelining costs no per-frame
// goroutine.
func (cn *wireServerConn) worker(ctx context.Context) {
	defer cn.workerWG.Done()
	for wr := range cn.reqq {
		cn.handleScore(ctx, wr)
	}
}

// handleScore runs one score request end to end: trace, then the shared
// scoring core, which calls back into wr to decode the records and to
// encode the answer. By return, the reply (result or error) is enqueued
// — that pairs the active.Done with the reader's Add.
func (cn *wireServerConn) handleScore(ctx context.Context, wr *wireRequest) {
	defer cn.active.Done()
	defer putWireRequest(wr)
	s := cn.s
	start := time.Now()
	tr := obs.NewTrace(wr.requestID(), "/wire/score")
	tr.Records = wr.req.Count
	s.serveScore(ctx, int64(wr.req.DeadlineMS), internWireTag(wr.req.Tag), wr, tr, start)
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
// the record slabs, the queue entry with its verdict slab, and the
// connection to answer on. It is the scoring core's scoreRequest.
type wireRequest struct {
	cn  *wireServerConn
	req wire.ScoreRequest
	rb  wire.RecordBuffer
	sp  span
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

func (wr *wireRequest) span(n int) *span {
	if cap(wr.sp.verdicts) < n {
		wr.sp.verdicts = make([]nids.Verdict, n)
	}
	wr.sp.verdicts = wr.sp.verdicts[:n]
	for i := range wr.sp.verdicts {
		wr.sp.verdicts[i] = nids.Verdict{}
	}
	return &wr.sp
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
	wr.cn, wr.sp.ctx, wr.sp.trace = nil, nil, nil
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
