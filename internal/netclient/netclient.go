// Package netclient is the client for the eLSM binary network protocol
// (internal/netproto): a pipelined, concurrency-safe connection to an
// elsm-server front end.
//
// Quickstart:
//
//	c, err := netclient.Dial("127.0.0.1:7878")
//	if err != nil { ... }
//	defer c.Close()
//
//	ts, err := c.Put([]byte("alpha"), []byte("one")) // durable when it returns
//	res, err := c.Get([]byte("alpha"))               // res.Found, res.Value, res.Ts
//
//	// Pipelining: issue writes without waiting, settle them together.
//	futs := make([]*netclient.Future, 0, 128)
//	for i := 0; i < 128; i++ {
//		fut, err := c.PutAsync(key(i), val(i))
//		if err != nil { ... }
//		futs = append(futs, fut)
//	}
//	for _, fut := range futs {
//		if _, err := fut.Wait(); err != nil { ... } // durability surfaces here
//	}
//
//	// Verified range scan, streamed in chunks.
//	sc, err := c.Scan([]byte("a"), []byte("z"))
//	for sc.Next() { use(sc.Key(), sc.Value()) }
//	if err := sc.Close(); err != nil { ... } // ErrAuth here on tampering
//
// A Client is safe for concurrent use: any number of goroutines may issue
// requests on one connection and responses demultiplex by request id. When
// the server sheds load (admission control), requests fail with ErrBusy —
// the caller backs off and retries; the connection itself stays usable.
// Transport-level failures poison the client: every pending and future
// request fails with the same error, and the caller reconnects.
package netclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"elsm/internal/netproto"
)

// ErrBusy reports an admission-control load shed: the server refused the
// request (or the whole connection) instead of queueing it. The request did
// NOT execute. Back off and retry.
var ErrBusy = errors.New("netclient: server busy")

// ErrClosed reports a request issued against a closed client.
var ErrClosed = errors.New("netclient: client closed")

// ServerError is a typed failure the server reported for one request. The
// connection remains usable.
type ServerError struct {
	Errno netproto.Errno
	Msg   string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("netclient: server error (errno %d): %s", e.Errno, e.Msg)
}

// IsAuthFailure reports whether err is the server-side verification
// fail-stop (forged, stale, incomplete or rolled-back data detected).
func IsAuthFailure(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Errno == netproto.ErrnoAuth
}

// Result is one read result.
type Result struct {
	Value []byte
	Ts    uint64
	Found bool
}

// Client is one pipelined protocol connection.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer
	buf []byte // encode scratch, under wmu

	mu      sync.Mutex // guards pending, nextID, err, closed
	pending map[uint64]chan *netproto.Response
	nextID  uint64
	err     error // first transport error; poisons the client
	closed  bool

	readerDone chan struct{}
}

// Dial connects to an elsm-server binary front end.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return New(conn), nil
}

// New wraps an established connection (the peer must speak the binary
// protocol). The client owns conn and closes it on Close or failure.
func New(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriterSize(conn, 8<<10),
		pending:    make(map[uint64]chan *netproto.Response),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down. Pending requests fail with ErrClosed.
// Close open Scanners first: an abandoned, undrained scan can wedge the
// demultiplexer mid-stream.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	<-c.readerDone
	return nil
}

// fail poisons the client — every future request fails with err, first
// failure wins — and closes the transport, which unblocks the reader. Only
// the reader closes pending channels (it is the sender), so pending
// requests observe the failure when it exits.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		c.closed = true
	}
	c.mu.Unlock()
	c.conn.Close()
}

// readLoop demultiplexes response frames to their waiting requests. On
// exit it fails whatever is still pending.
func (c *Client) readLoop() {
	defer func() {
		c.mu.Lock()
		if c.err == nil {
			c.err = ErrClosed
			c.closed = true
		}
		pend := c.pending
		c.pending = make(map[uint64]chan *netproto.Response)
		c.mu.Unlock()
		for _, ch := range pend {
			close(ch) // receivers read c.err after a closed channel
		}
		close(c.readerDone)
	}()
	br := bufio.NewReaderSize(c.conn, 8<<10)
	for {
		typ, id, body, err := c.readFrame(br)
		if err != nil {
			var fe *netproto.FrameError
			if errors.As(err, &fe) {
				continue // defensive; servers do not send oversized frames
			}
			c.fail(fmt.Errorf("netclient: connection lost: %w", err))
			return
		}
		resp, err := netproto.DecodeResponse(typ, id, body)
		if err != nil {
			c.fail(fmt.Errorf("netclient: protocol error: %w", err))
			return
		}
		if resp.ID == 0 && resp.Code == netproto.CodeBusy {
			// Connection-level shed: the server refused the whole
			// connection at its cap. Nothing on it will execute.
			c.fail(ErrBusy)
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		if ch != nil && resp.Code != netproto.CodeRows {
			delete(c.pending, resp.ID) // terminal frame for this id
		}
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *Client) readFrame(br *bufio.Reader) (uint8, uint64, []byte, error) {
	return netproto.ReadFrame(br, 0)
}

// chPool recycles single-response channels across requests: a pipelined
// workload otherwise allocates one channel per operation. A channel is
// pooled only after its terminal response was received (so it is empty and
// unregistered); channels closed by a dying readLoop never re-enter the
// pool.
var chPool = sync.Pool{
	New: func() any { return make(chan *netproto.Response, 1) },
}

// register allocates an id and its response channel. chunked requests
// (SCAN) get a buffered channel so the reader can run ahead of the
// consumer by a few chunks.
func (c *Client) register(buffer int) (uint64, chan *netproto.Response, error) {
	var ch chan *netproto.Response
	if buffer == 1 {
		ch = chPool.Get().(chan *netproto.Response)
	} else {
		ch = make(chan *netproto.Response, buffer)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		if cap(ch) == 1 {
			chPool.Put(ch)
		}
		return 0, nil, c.err
	}
	c.nextID++ // ids start at 1; 0 is the connection-level id
	id := c.nextID
	c.pending[id] = ch
	return id, ch, nil
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// send encodes and buffers one request frame WITHOUT flushing: pipelined
// senders batch a whole window of requests into one write syscall. The
// flush happens in recv — every caller flushes before blocking on a
// response, so a request is always on the wire before anyone waits for
// its answer.
func (c *Client) send(req *netproto.Request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.buf = netproto.AppendRequest(c.buf[:0], req)
	_, err := c.bw.Write(c.buf)
	return err
}

// flushPending pushes buffered request frames to the wire.
func (c *Client) flushPending() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// recv awaits the terminal response for one request, flushing buffered
// requests first (see send).
func (c *Client) recv(id uint64, ch chan *netproto.Response) (*netproto.Response, error) {
	if err := c.flushPending(); err != nil {
		c.fail(fmt.Errorf("netclient: write failed: %w", err))
	}
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	// The terminal response arrived: the readLoop already unregistered the
	// id, so the (empty) channel can serve the next request.
	if cap(ch) == 1 {
		chPool.Put(ch)
	}
	return c.check(resp)
}

// check converts error-class responses into Go errors.
func (c *Client) check(resp *netproto.Response) (*netproto.Response, error) {
	switch resp.Code {
	case netproto.CodeBusy:
		return nil, ErrBusy
	case netproto.CodeErr:
		return nil, &ServerError{Errno: resp.Errno, Msg: resp.Msg}
	}
	return resp, nil
}

// call runs one request to its single terminal response.
func (c *Client) call(req *netproto.Request) (*netproto.Response, error) {
	id, ch, err := c.register(1)
	if err != nil {
		return nil, err
	}
	req.ID = id
	if err := c.send(req); err != nil {
		c.unregister(id)
		c.fail(fmt.Errorf("netclient: write failed: %w", err))
		return nil, err
	}
	return c.recv(id, ch)
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.call(&netproto.Request{Op: netproto.OpPing})
	return err
}

// Put writes one key durably, returning its trusted timestamp.
func (c *Client) Put(key, value []byte) (uint64, error) {
	resp, err := c.call(&netproto.Request{Op: netproto.OpPut, Key: key, Value: value})
	if err != nil {
		return 0, err
	}
	return resp.Ts, nil
}

// Delete writes a tombstone durably.
func (c *Client) Delete(key []byte) (uint64, error) {
	resp, err := c.call(&netproto.Request{Op: netproto.OpDel, Key: key})
	if err != nil {
		return 0, err
	}
	return resp.Ts, nil
}

// Batch applies ops as one atomic durable commit.
func (c *Client) Batch(ops []netproto.BatchOp) (uint64, error) {
	resp, err := c.call(&netproto.Request{Op: netproto.OpBatch, Ops: ops})
	if err != nil {
		return 0, err
	}
	return resp.Ts, nil
}

// Get reads the latest verified value for key.
func (c *Client) Get(key []byte) (Result, error) {
	resp, err := c.call(&netproto.Request{Op: netproto.OpGet, Key: key})
	if err != nil {
		return Result{}, err
	}
	if resp.Code == netproto.CodeNotFound {
		return Result{}, nil
	}
	return Result{Value: resp.Value, Ts: resp.Ts, Found: true}, nil
}

// Sync is a durability barrier against the server's store.
func (c *Client) Sync() error {
	_, err := c.call(&netproto.Request{Op: netproto.OpSync})
	return err
}

// Stats dumps the server's counters, network front-end gauges included.
func (c *Client) Stats() (map[string]uint64, error) {
	resp, err := c.call(&netproto.Request{Op: netproto.OpStats})
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, len(resp.Stats))
	for _, st := range resp.Stats {
		m[st.Name] = st.Value
	}
	return m, nil
}

// Promote turns the server's follower store into a writable leader — the
// failover step — and returns the new replication epoch. From then on
// followers of the promoted store reject frames from the deposed leader.
func (c *Client) Promote() (uint64, error) {
	resp, err := c.call(&netproto.Request{Op: netproto.OpPromote})
	if err != nil {
		return 0, err
	}
	return resp.Ts, nil
}

// Future is an in-flight pipelined request. See PutAsync.
type Future struct {
	c  *Client
	id uint64
	ch chan *netproto.Response
}

// Wait blocks until the request's response arrives and returns its
// timestamp. For writes, durability has been established when Wait
// returns nil.
func (f *Future) Wait() (uint64, error) {
	resp, err := f.c.recv(f.id, f.ch)
	if err != nil {
		return 0, err
	}
	return resp.Ts, nil
}

// PutAsync issues a durable write without waiting for its response: the
// request enters the connection's pipeline and the server's group-commit
// batching, and the caller settles it later via Wait. Issuing a window of
// PutAsyncs before waiting is how one connection keeps many commits in
// flight (and how independent writes coalesce into shared fsyncs). The
// frame may sit in the client's write buffer until the next Wait (or any
// other response wait) flushes it — a whole window rides one syscall.
func (c *Client) PutAsync(key, value []byte) (*Future, error) {
	id, ch, err := c.register(1)
	if err != nil {
		return nil, err
	}
	if err := c.send(&netproto.Request{Op: netproto.OpPut, ID: id, Key: key, Value: value}); err != nil {
		c.unregister(id)
		c.fail(fmt.Errorf("netclient: write failed: %w", err))
		return nil, err
	}
	return &Future{c: c, id: id, ch: ch}, nil
}

// BatchAsync is PutAsync for an atomic multi-op commit.
func (c *Client) BatchAsync(ops []netproto.BatchOp) (*Future, error) {
	id, ch, err := c.register(1)
	if err != nil {
		return nil, err
	}
	if err := c.send(&netproto.Request{Op: netproto.OpBatch, ID: id, Ops: ops}); err != nil {
		c.unregister(id)
		c.fail(fmt.Errorf("netclient: write failed: %w", err))
		return nil, err
	}
	return &Future{c: c, id: id, ch: ch}, nil
}

// GetAsync issues a verified read without waiting. Wait's timestamp is the
// record's write timestamp; a missing key reports ts 0. Use Get when the
// value bytes are needed.
func (c *Client) GetAsync(key []byte) (*Future, error) {
	id, ch, err := c.register(1)
	if err != nil {
		return nil, err
	}
	if err := c.send(&netproto.Request{Op: netproto.OpGet, ID: id, Key: key}); err != nil {
		c.unregister(id)
		c.fail(fmt.Errorf("netclient: write failed: %w", err))
		return nil, err
	}
	return &Future{c: c, id: id, ch: ch}, nil
}

// Scanner iterates one verified range scan, streamed from the server in
// chunks. Close reports any stream-terminating error — including the
// authenticated store's fail-stop on tampering — so callers must check it
// before trusting the rows.
type Scanner struct {
	c    *Client
	id   uint64
	ch   chan *netproto.Response
	rows []netproto.Row
	i    int
	err  error
	done bool
}

// Scan streams the verified range [start, end] at the latest timestamp.
func (c *Client) Scan(start, end []byte) (*Scanner, error) {
	return c.ScanAt(start, end, 0)
}

// ScanAt streams the verified range [start, end] at timestamp tsq
// (0 = latest).
func (c *Client) ScanAt(start, end []byte, tsq uint64) (*Scanner, error) {
	// Chunk buffer of 8: the reader goroutine stays a few chunks ahead of
	// the consumer without buffering an unbounded range.
	id, ch, err := c.register(8)
	if err != nil {
		return nil, err
	}
	if err := c.send(&netproto.Request{Op: netproto.OpScan, ID: id, Start: start, End: end, Tsq: tsq}); err != nil {
		c.unregister(id)
		c.fail(fmt.Errorf("netclient: write failed: %w", err))
		return nil, err
	}
	// Scanner.Next consumes its channel directly (not via recv), so the
	// request must reach the wire here.
	if err := c.flushPending(); err != nil {
		c.fail(fmt.Errorf("netclient: write failed: %w", err))
		return nil, err
	}
	return &Scanner{c: c, id: id, ch: ch}, nil
}

// Next advances to the next row.
func (s *Scanner) Next() bool {
	if s.err != nil || s.done {
		return false
	}
	s.i++
	if s.i < len(s.rows) {
		return true
	}
	for {
		resp, ok := <-s.ch
		if !ok {
			s.c.mu.Lock()
			s.err = s.c.err
			s.c.mu.Unlock()
			return false
		}
		switch resp.Code {
		case netproto.CodeRows:
			if len(resp.Rows) == 0 {
				continue
			}
			s.rows, s.i = resp.Rows, 0
			return true
		case netproto.CodeScanEnd:
			s.done = true
			return false
		default:
			_, err := s.c.check(resp)
			if err == nil {
				err = fmt.Errorf("netclient: unexpected scan frame code %d", resp.Code)
			}
			s.err = err
			s.done = true
			return false
		}
	}
}

// Key returns the current row's key (valid until the next Next).
func (s *Scanner) Key() []byte { return s.rows[s.i].Key }

// Value returns the current row's value (valid until the next Next).
func (s *Scanner) Value() []byte { return s.rows[s.i].Value }

// Ts returns the current row's trusted write timestamp.
func (s *Scanner) Ts() uint64 { return s.rows[s.i].Ts }

// Err returns the stream's terminating error, if any.
func (s *Scanner) Err() error { return s.err }

// Close releases the scan. It drains any frames still in flight (so an
// abandoned scan does not wedge the connection's demultiplexer) and
// returns the stream's error.
func (s *Scanner) Close() error {
	for !s.done && s.err == nil {
		resp, ok := <-s.ch
		if !ok {
			s.c.mu.Lock()
			s.err = s.c.err
			s.c.mu.Unlock()
			break
		}
		if resp.Code == netproto.CodeRows {
			continue
		}
		if resp.Code != netproto.CodeScanEnd {
			if _, err := s.c.check(resp); err != nil {
				s.err = err
			}
		}
		s.done = true
	}
	s.rows, s.i = nil, 0
	return s.err
}
