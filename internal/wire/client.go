package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/resilience"
)

// Client-side transport errors.
var (
	// ErrUnavailable means no healthy wire connection exists and one could
	// not be established right now (dial failed, or the reconnect backoff
	// window is still open). Retryable.
	ErrUnavailable = errors.New("wire: no connection available")
	// ErrTimeout means the request was written but no response arrived
	// within the client timeout.
	ErrTimeout = errors.New("wire: request timed out")
	// ErrClosed means the connection died while the request was in flight.
	ErrClosed = errors.New("wire: connection closed")
	// errVerdictCount means the server answered with a verdict count that
	// does not match the request's record count.
	errVerdictCount = errors.New("wire: verdict count mismatch")
)

// Client defaults.
const (
	// DefaultTimeout bounds each attempt of a scoring call — a call can
	// take MaxAttempts × Timeout plus backoff — and is sent to the server
	// as the request's deadline hint, so the server sheds what the client
	// has already given up on. Matches serve.DefaultClientTimeout.
	DefaultTimeout = 10 * time.Second
	// DefaultConns is how many TCP connections a client multiplexes over.
	DefaultConns = 2
	// defaultDialTimeout bounds connection establishment + handshake.
	defaultDialTimeout = 3 * time.Second
	// connBufSize sizes each connection's buffered reader/writer.
	connBufSize = 64 << 10
)

// Client is the wire transport's scoring client: persistent TCP
// connections to a pelican-serve wire listener's live slot, pipelined
// requests correlated by id, out-of-order responses, and retries and
// reconnects with jittered exponential backoff through internal/resilience.
// Safe for concurrent use; calls from many goroutines multiplex over the
// connection pool.
type Client struct {
	// Addr is the wire listener's host:port.
	Addr string
	// Conns is the connection pool size. 0 means DefaultConns.
	Conns int
	// Timeout bounds each attempt and is the deadline hint sent in every
	// request frame. 0 means DefaultTimeout.
	Timeout time.Duration
	// MaxAttempts caps tries per call (first + retries). 0 means 3.
	MaxAttempts int
	// RetryBase seeds the retry/reconnect backoff. 0 means 50ms.
	RetryBase time.Duration

	mu     sync.Mutex // guards conns slice + rr; never held across I/O
	conns  []*wireConn
	rr     int
	nextID atomic.Uint64
	// dialing serializes reconnects without holding a lock across the
	// dial; nextDial (unix nanos) is the backoff gate, dialFails the
	// consecutive-failure count behind it.
	dialing   atomic.Bool
	nextDial  atomic.Int64
	dialFails atomic.Int64

	draining  atomic.Bool // a GoAway has been seen
	errs      atomic.Int64
	framesOut atomic.Int64
	framesIn  atomic.Int64
	bytesOut  atomic.Int64
	bytesIn   atomic.Int64

	version atomic.Value // string: last model version seen (handshake or answer)
}

// NewClient builds a wire client for the listener at addr. Request ids
// start at a random point so traces from concurrent clients don't collide.
func NewClient(addr string) *Client {
	c := &Client{Addr: addr}
	c.nextID.Store(rand.Uint64() << 16)
	return c
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c *Client) poolSize() int {
	if c.Conns > 0 {
		return c.Conns
	}
	return DefaultConns
}

// Draining reports whether any connection has received a GoAway — the
// server is shutting down and new requests should be treated as shed,
// not as failures.
func (c *Client) Draining() bool { return c.draining.Load() }

// Errors returns how many scoring calls have failed (after retries).
func (c *Client) Errors() int64 { return c.errs.Load() }

// Stats returns cumulative frame/byte counters (out = client→server).
func (c *Client) Stats() (framesOut, framesIn, bytesOut, bytesIn int64) {
	return c.framesOut.Load(), c.framesIn.Load(), c.bytesOut.Load(), c.bytesIn.Load()
}

// ModelVersion returns the model version this client saw last: the one
// the server named in the handshake of each connection it dials, or the
// one that answered a successful call, whichever came later ("" before
// the first connection).
func (c *Client) ModelVersion() string {
	v, _ := c.version.Load().(string)
	return v
}

// Connect pre-establishes the full connection pool (loadgen warms the
// pool before the measurement window so dial cost stays out of the
// latencies). Returns the first dial error, with however many
// connections did establish left usable.
func (c *Client) Connect() error {
	for {
		c.mu.Lock()
		healthy := 0
		for _, cn := range c.conns {
			if cn != nil && cn.usable() {
				healthy++
			}
		}
		c.mu.Unlock()
		if healthy >= c.poolSize() {
			return nil
		}
		if _, err := c.addConn(); err != nil {
			return err
		}
	}
}

// Close tears down every connection. In-flight calls fail with ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	conns := make([]*wireConn, len(c.conns))
	copy(conns, c.conns)
	c.conns = nil
	c.mu.Unlock()
	for _, cn := range conns {
		if cn != nil {
			cn.teardown(ErrClosed)
		}
	}
}

// getConn returns a usable connection, dialing one if the pool is empty.
func (c *Client) getConn() (*wireConn, error) {
	c.mu.Lock()
	n := len(c.conns)
	for i := 0; i < n; i++ {
		cn := c.conns[(c.rr+i)%n]
		if cn != nil && cn.usable() {
			c.rr = (c.rr + i + 1) % n
			c.mu.Unlock()
			return cn, nil
		}
	}
	c.mu.Unlock()
	return c.addConn()
}

// addConn dials one new connection, respecting the backoff gate and
// letting only one dial run at a time. The dial happens with no lock
// held.
func (c *Client) addConn() (*wireConn, error) {
	if time.Now().UnixNano() < c.nextDial.Load() {
		return nil, ErrUnavailable
	}
	if !c.dialing.CompareAndSwap(false, true) {
		return nil, ErrUnavailable
	}
	cn, err := c.dial()
	if err != nil {
		fails := c.dialFails.Add(1)
		c.nextDial.Store(time.Now().Add(resilience.Backoff(c.RetryBase, int(fails), nil)).UnixNano())
		c.dialing.Store(false)
		return nil, err
	}
	c.dialFails.Store(0)
	c.nextDial.Store(0)
	c.mu.Lock()
	if len(c.conns) < c.poolSize() {
		c.conns = append(c.conns, cn)
	} else {
		placed := false
		for i, old := range c.conns {
			if old == nil || !old.usable() {
				c.conns[i] = cn
				placed = true
				break
			}
		}
		if !placed {
			// The pool filled up while we dialed; keep the youngest.
			c.conns[c.rr%len(c.conns)] = cn
		}
	}
	c.mu.Unlock()
	c.dialing.Store(false)
	return cn, nil
}

// dial establishes one connection and runs the Hello/Schema handshake.
func (c *Client) dial() (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", c.Addr, defaultDialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	bw := bufio.NewWriterSize(nc, connBufSize)
	fr := NewFrameReader(bufio.NewReaderSize(nc, connBufSize))
	fw := NewFrameWriter(bw)
	nc.SetDeadline(time.Now().Add(defaultDialTimeout))
	if err := fw.Write(FrameHello, nil); err != nil {
		nc.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	ft, p, err := fr.Read()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if ft == FrameError {
		we, perr := ParseError(p)
		nc.Close()
		if perr != nil {
			return nil, perr
		}
		return nil, &we
	}
	if ft != FrameSchema {
		nc.Close()
		return nil, ErrBadPayload
	}
	info, err := DecodeSchemaInfo(p)
	if err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	cn := &wireConn{
		client:  c,
		c:       nc,
		bw:      bw,
		fr:      fr,
		fw:      fw,
		enc:     NewRecordEncoder(info.Schema),
		lastVer: info.ModelVersion,
		writeq:  make(chan []byte, 64),
		closed:  make(chan struct{}),
		pending: make(map[uint64]*wireCall),
	}
	if cn.enc.Fingerprint() != info.Fingerprint {
		// Client and server hash the same schema differently — a version
		// skew bug, not a transient; surface it loudly.
		nc.Close()
		return nil, ErrBadPayload
	}
	c.version.Store(info.ModelVersion)
	go cn.readLoop()
	go cn.writeLoop()
	return cn, nil
}

// wireCall is one in-flight request: the reader decodes verdicts straight
// into dst, then signals done (buffered, never blocks).
type wireCall struct {
	dst  []nids.Verdict
	done chan callResult
}

type callResult struct {
	version string
	err     error
}

// wireConn is one multiplexed connection: a writer goroutine serializes
// pipelined request frames, a reader goroutine dispatches out-of-order
// responses to pending calls by id.
type wireConn struct {
	client *Client
	c      net.Conn
	bw     *bufio.Writer
	fr     *FrameReader
	fw     *FrameWriter
	enc    *RecordEncoder

	writeq chan []byte
	closed chan struct{}
	once   sync.Once

	draining atomic.Bool

	mu      sync.Mutex // guards pending + dead; never held across I/O
	dead    bool
	pending map[uint64]*wireCall

	lastVer string // reader-goroutine-owned version intern cache
}

func (cn *wireConn) usable() bool {
	cn.mu.Lock()
	ok := !cn.dead
	cn.mu.Unlock()
	return ok && !cn.draining.Load()
}

// register parks a call awaiting response id. Fails if the conn died.
func (cn *wireConn) register(id uint64, ca *wireCall) bool {
	cn.mu.Lock()
	if cn.dead {
		cn.mu.Unlock()
		return false
	}
	cn.pending[id] = ca
	cn.mu.Unlock()
	return true
}

// take removes and returns the call waiting on id, if still pending.
func (cn *wireConn) take(id uint64) (*wireCall, bool) {
	cn.mu.Lock()
	ca, ok := cn.pending[id]
	if ok {
		delete(cn.pending, id)
	}
	cn.mu.Unlock()
	return ca, ok
}

// drainCloseIfIdle closes a draining connection once nothing is pending
// on it: the server's graceful drain waits for the client to collect its
// last in-flight response and hang up, so no frame is ever cut off
// mid-stream. A call that races the close and registers anyway is failed
// with ErrClosed and retried (or shed) by its caller.
func (cn *wireConn) drainCloseIfIdle() {
	if !cn.draining.Load() {
		return
	}
	cn.mu.Lock()
	idle := len(cn.pending) == 0 && !cn.dead
	cn.mu.Unlock()
	if idle {
		cn.teardown(ErrClosed)
	}
}

// teardown kills the connection once: marks it dead, closes the socket
// (unblocking both loops), and fails every pending call with err.
func (cn *wireConn) teardown(err error) {
	cn.once.Do(func() {
		cn.mu.Lock()
		cn.dead = true
		calls := make([]*wireCall, 0, len(cn.pending))
		for id := range cn.pending {
			calls = append(calls, cn.pending[id])
			delete(cn.pending, id)
		}
		cn.mu.Unlock()
		close(cn.closed)
		cn.c.Close()
		for _, ca := range calls {
			ca.done <- callResult{err: err}
		}
	})
}

// writeLoop is the connection's single writer: it frames queued request
// payloads and flushes. Payload buffers return to the pool after the
// write.
func (cn *wireConn) writeLoop() {
	for {
		select {
		case p := <-cn.writeq:
			err := cn.fw.Write(FrameScore, p)
			if err == nil {
				// Flush immediately: pipelining comes from many goroutines
				// queueing, not from batching writes at the cost of latency.
				err = cn.bw.Flush()
			}
			cn.client.framesOut.Add(1)
			cn.client.bytesOut.Add(int64(HeaderSize + len(p)))
			putBuf(p)
			if err != nil {
				cn.teardown(ErrClosed)
				return
			}
		case <-cn.closed:
			return
		}
	}
}

// readLoop is the connection's single reader: it dispatches Result and
// Error frames to pending calls, and handles GoAway (drain notice).
func (cn *wireConn) readLoop() {
	for {
		ft, p, err := cn.fr.Read()
		if err != nil {
			cn.teardown(ErrClosed)
			return
		}
		cn.client.framesIn.Add(1)
		cn.client.bytesIn.Add(int64(HeaderSize + len(p)))
		switch ft {
		case FrameResult:
			resp, perr := ParseScoreResponse(p)
			if perr != nil {
				cn.teardown(perr)
				return
			}
			ca, ok := cn.take(resp.ID)
			if !ok {
				continue // caller gave up (timed out) before the answer came
			}
			if resp.Count != len(ca.dst) {
				ca.done <- callResult{err: errVerdictCount}
				continue
			}
			if err := resp.DecodeVerdicts(ca.dst); err != nil {
				ca.done <- callResult{err: err}
				continue
			}
			if string(resp.Version) != cn.lastVer {
				cn.lastVer = string(resp.Version)
			}
			ca.done <- callResult{version: cn.lastVer}
			cn.drainCloseIfIdle()
		case FrameError:
			we, perr := ParseError(p)
			if perr != nil {
				cn.teardown(perr)
				return
			}
			if we.ID == 0 {
				// Connection-level fault: the server is closing on us.
				cn.teardown(&we)
				return
			}
			if we.Status == http.StatusConflict {
				// Schema fingerprint mismatch: this connection's encoder is
				// stale. Retire it like a drained one — no new requests, closed
				// once idle — so the caller's retry re-handshakes on a new one.
				cn.draining.Store(true)
			}
			if ca, ok := cn.take(we.ID); ok {
				ca.done <- callResult{err: &we}
			}
			cn.drainCloseIfIdle()
		case FrameGoAway:
			cn.draining.Store(true)
			cn.client.draining.Store(true)
			// The server holds a draining connection open until we, having
			// collected every outstanding response, close our end.
			cn.drainCloseIfIdle()
		default:
			// A server must only send Result/Error/GoAway after the
			// handshake; anything else is a protocol violation.
			cn.teardown(ErrBadPayload)
			return
		}
	}
}

// bufPool recycles request payload buffers across calls and connections.
var bufPool = sync.Pool{New: func() any { return []byte(nil) }}

func getBuf() []byte  { return bufPool.Get().([]byte)[:0] }
func putBuf(p []byte) { bufPool.Put(p) } //nolint:staticcheck // slice header boxing is fine here

// Score scores recs against the server's live slot and returns verdicts
// plus the answering model version. Transport failures, retryable
// statuses and a stale schema (409) are retried with jittered
// exponential backoff; a batch this client cannot encode fails at once.
func (c *Client) Score(recs []*data.Record) ([]nids.Verdict, string, error) {
	out := make([]nids.Verdict, len(recs))
	if len(recs) == 0 {
		return out, "", nil
	}
	var version string
	err := resilience.Retry(c.MaxAttempts, c.RetryBase, retryable, func() (err error) {
		version, err = c.scoreConn(recs, out)
		return err
	})
	if err != nil {
		c.errs.Add(1)
		return nil, "", err
	}
	c.version.Store(version)
	return out, version, nil
}

// retryable is the wire's retry predicate: the shared policy plus one
// answer of its own, 409 — the slot's schema changed under this
// connection (a promote). The reader has already retired that connection,
// so the next attempt dials afresh and re-handshakes. A batch that cannot
// be encoded is a caller error, never retried.
func retryable(err error) bool {
	return err != errUnencodable && (resilience.Retryable(err) || staleSchema(err))
}

// errUnencodable is a batch this client cannot encode against the
// handshake schema: the caller error the HTTP plane answers 400.
var errUnencodable = fmt.Errorf("%w: batch does not match the handshake schema", ErrBadPayload)

// scoreConn is one attempt: one request over one pooled connection.
func (c *Client) scoreConn(recs []*data.Record, out []nids.Verdict) (string, error) {
	cn, err := c.getConn()
	if err != nil {
		return "", err
	}
	timeout := c.timeout()
	deadlineMS := uint32(timeout / time.Millisecond)
	id := c.nextID.Add(1)
	if id == 0 {
		id = c.nextID.Add(1)
	}
	buf := getBuf()
	buf, err = cn.enc.AppendScoreRequest(buf, id, deadlineMS, "", recs)
	if err != nil {
		putBuf(buf)
		return "", errUnencodable
	}
	ca := &wireCall{dst: out, done: make(chan callResult, 1)}
	if !cn.register(id, ca) {
		putBuf(buf)
		return "", ErrClosed
	}
	select {
	case cn.writeq <- buf:
	case <-cn.closed:
		putBuf(buf)
		if _, ok := cn.take(id); ok {
			return "", ErrClosed
		}
		r := <-ca.done // teardown already owned the call; take its verdict
		return r.version, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ca.done:
		return r.version, r.err
	case <-timer.C:
		if _, ok := cn.take(id); ok {
			return "", ErrTimeout
		}
		// The reader claimed the call before we could withdraw it: the
		// answer is a channel send away — take it instead of racing it.
		r := <-ca.done
		return r.version, r.err
	}
}

// staleSchema reports whether err is the server's 409: the request was
// encoded against a schema the slot no longer serves.
func staleSchema(err error) bool {
	var we *WireError
	return errors.As(err, &we) && we.Status == http.StatusConflict
}

// ShedStatus reports whether err is the server deliberately shedding load
// (admission control 429, deadline/drain 503) and with which status, on
// either plane: a wire Error frame or an HTTP answer carry the same
// numbering (resilience.StatusError). Load generators use it to separate
// shed from failure.
func ShedStatus(err error) (int, bool) {
	var se resilience.StatusError
	if errors.As(err, &se) {
		if st := se.StatusCode(); st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
			return st, true
		}
	}
	return 0, false
}
