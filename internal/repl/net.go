package repl

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"elsm/internal/netclient"
	"elsm/internal/netproto"
)

// netDialTimeout bounds one replication connection attempt.
const netDialTimeout = 5 * time.Second

// netStatusTimeout bounds the wait for a stream's first response frame.
// The server answers a tail with an empty chunk before blocking at the
// stream head, so a healthy leader responds well within this; the deadline
// keeps a follower's Close from hanging on a connection that never
// answered.
const netStatusTimeout = 10 * time.Second

// netWriteTimeout bounds the request write: a peer that stopped draining
// its socket cannot wedge the caller.
const netWriteTimeout = 10 * time.Second

// netIdleTimeout is the per-read deadline on established streams. The
// leader heartbeats idle tail streams every HeartbeatInterval, so a
// healthy connection never comes near it; crossing it means the leader (or
// the network) hung mid-stream, and the read fails so the tailer can
// reconnect instead of wedging forever.
const netIdleTimeout = 30 * time.Second

// NetSource streams from an elsm-server leader over the binary protocol
// (internal/netproto): one TCP connection per stream, opened with one
// OpReplCheckpoint or OpReplTail request and answered with CodeChunk
// frames carrying the raw stream (checkpoint bytes or group frames), or
// with CodeErr — ErrnoBehind, surfaced as ErrBehind, when the tail cursor
// has left the leader's retained ring.
type NetSource struct {
	addr string
}

// NewNetSource creates a source dialing addr for every stream.
func NewNetSource(addr string) *NetSource { return &NetSource{addr: addr} }

// Checkpoint requests shard's checkpoint stream.
func (ns *NetSource) Checkpoint(shard int) (io.ReadCloser, error) {
	return ns.open(&netproto.Request{Op: netproto.OpReplCheckpoint, Shard: uint64(shard)})
}

// Tail requests shard's group frames from fromTs.
func (ns *NetSource) Tail(shard int, fromTs uint64) (io.ReadCloser, error) {
	return ns.open(&netproto.Request{Op: netproto.OpReplTail, Shard: uint64(shard), FromTs: fromTs})
}

// open sends one stream request and reads its first frame, which settles
// it: a chunk starts the stream, an error refuses it.
func (ns *NetSource) open(req *netproto.Request) (io.ReadCloser, error) {
	conn, err := net.DialTimeout("tcp", ns.addr, netDialTimeout)
	if err != nil {
		return nil, err
	}
	req.ID = 1
	conn.SetWriteDeadline(time.Now().Add(netWriteTimeout))
	if _, err := conn.Write(netproto.AppendRequest(nil, req)); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	// The first read is deadline-bounded so it can never wedge a caller
	// (Tailer.Close during this window has no stream to close yet).
	cs := &connStream{br: bufio.NewReader(conn), conn: conn, op: req.Op}
	if cs.err = cs.next(netStatusTimeout); cs.err != nil && cs.err != io.EOF {
		conn.Close()
		return nil, cs.err
	}
	return cs, nil
}

// connStream reassembles a stream's CodeChunk frames into bytes and arms
// an idle deadline before every frame read: the leader's heartbeats keep a
// healthy stream far inside it, so a read that trips the deadline means a
// hung peer, and the stream fails instead of wedging its tailer.
type connStream struct {
	br   *bufio.Reader
	conn net.Conn
	op   netproto.Op
	buf  []byte // unread bytes of the current chunk
	err  error  // sticky end of stream
}

// next reads the stream's next frame within timeout: nil for a chunk,
// io.EOF for the terminator, an error otherwise.
func (cs *connStream) next(timeout time.Duration) error {
	cs.conn.SetReadDeadline(time.Now().Add(timeout))
	typ, id, body, err := netproto.ReadFrame(cs.br, netproto.MaxFrame)
	if err != nil {
		return err
	}
	resp, err := netproto.DecodeResponse(typ, id, body)
	if err != nil {
		return err
	}
	switch resp.Code {
	case netproto.CodeChunk:
		cs.buf = resp.Value
		return nil
	case netproto.CodeScanEnd:
		return io.EOF
	case netproto.CodeErr:
		if resp.Errno == netproto.ErrnoBehind {
			return ErrBehind
		}
		return fmt.Errorf("repl: %v: %w", cs.op, &netclient.ServerError{Errno: resp.Errno, Msg: resp.Msg})
	default:
		return fmt.Errorf("repl: %v: unexpected response code %#x", cs.op, resp.Code)
	}
}

func (cs *connStream) Read(p []byte) (int, error) {
	for len(cs.buf) == 0 {
		if cs.err != nil {
			return 0, cs.err
		}
		cs.err = cs.next(netIdleTimeout)
	}
	n := copy(p, cs.buf)
	cs.buf = cs.buf[n:]
	return n, nil
}

func (cs *connStream) Close() error { return cs.conn.Close() }
