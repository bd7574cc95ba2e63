// Package mux multiplexes independent byte streams over a single
// connection, the substrate under every tunnel in this repository:
// PPTP/L2TP "calls", OpenVPN's routed flows, and Tor's circuit streams are
// all mux sessions over their respective carriers.
//
// Wire format (all integers big-endian):
//
//	frame  := type(1) stream(4) length(4) payload(length)
//	type   := OPEN | OPENOK | OPENFAIL | DATA | CLOSE
//
// OPEN carries opaque metadata (typically "host:port"); the acceptor
// decides whether to grant the stream. Streams implement net.Conn.
//
// All blocking uses netx primitives, so sessions run unchanged over the
// real network and the virtual-time simulator.
package mux

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scholarcloud/internal/metrics"
	"scholarcloud/internal/netx"
)

// Frame types.
const (
	frameOpen byte = iota + 1
	frameOpenOK
	frameOpenFail
	frameData
	frameClose
	framePing
	framePong
)

// maxFramePayload bounds one frame.
const maxFramePayload = 32 * 1024

// maxStreamBuffer bounds undelivered per-stream data before the session
// fails (no flow control; tunnels at this scale never approach it).
const maxStreamBuffer = 4 << 20

// Errors.
var (
	ErrSessionClosed = errors.New("mux: session closed")
	ErrStreamClosed  = errors.New("mux: stream closed")
	ErrOpenRejected  = errors.New("mux: open rejected by peer")
)

// Acceptor is called for each inbound OPEN on its own goroutine. It
// returns the upstream connection the new stream should be relayed to
// (typically by dialing the "host:port" in meta); returning an error
// rejects the stream. The session grants the stream only after the
// acceptor succeeds, so the opener's round trip includes the upstream
// dial — exactly like a CONNECT proxy.
type Acceptor func(meta []byte) (net.Conn, error)

// managedWriteConn marks carrier connections whose Write blocks on
// managed (virtual-clock) operations — the DNS-tunnel carrier runs whole
// query round trips inside Write. Serializing writes onto such a carrier
// with a bare OS mutex would freeze the virtual clock for every
// goroutine contending it, so the session serializes them with a managed
// write token instead.
type managedWriteConn interface{ WriteBlocksManaged() bool }

// Session multiplexes streams over conn.
type Session struct {
	conn net.Conn
	env  netx.Env

	wmu sync.Mutex // serializes frames onto the carrier

	// managedWrites switches frame serialization from wmu to a managed
	// write token (writing + cond). Set for carriers whose Write blocks
	// on managed operations — see managedWriteConn.
	managedWrites bool

	mu       sync.Mutex
	cond     netx.Cond
	streams  map[uint32]*Stream
	nextID   uint32
	err      error
	accept   Acceptor
	pings    map[uint32]*pingWait
	nextPing uint32
	writing  bool // the managed write token, used when managedWrites

	counters atomic.Pointer[Counters]
}

// Counters are shared frame-level counters a session reports into. The
// same Counters value is typically installed on every session of one
// tunnel endpoint, so the totals aggregate across carriers.
type Counters struct {
	FramesIn   *metrics.Counter
	FramesOut  *metrics.Counter
	Keepalives *metrics.Counter // ping+pong frames sent
}

// SetCounters installs (or, with nil, removes) frame counters. Safe to
// call at any time, including while the read loop is running.
func (s *Session) SetCounters(c *Counters) { s.counters.Store(c) }

// pingWait tracks one outstanding measured ping.
type pingWait struct {
	done bool
	at   time.Time
}

// NewSession wraps conn. If accept is non-nil the session also accepts
// inbound streams. The session's read loop runs on env.Spawn.
func NewSession(conn net.Conn, env netx.Env, accept Acceptor) *Session {
	s := &Session{
		conn:    conn,
		env:     env,
		streams: make(map[uint32]*Stream),
		accept:  accept,
		pings:   make(map[uint32]*pingWait),
	}
	if mc, ok := conn.(managedWriteConn); ok && mc.WriteBlocksManaged() {
		s.managedWrites = true
	}
	s.cond = env.Sync.NewCond(&s.mu)
	env.Spawn.Go(s.readLoop)
	return s
}

// Open establishes a new stream with the given metadata, blocking until
// the peer grants or rejects it.
func (s *Session) Open(meta []byte) (*Stream, error) {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	s.nextID++
	id := s.nextID
	st := s.newStreamLocked(id)
	st.opening = true
	s.mu.Unlock()

	if err := s.writeFrame(frameOpen, id, meta); err != nil {
		s.fail(err)
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for st.opening && s.err == nil && st.err == nil {
		s.cond.Wait()
	}
	if s.err != nil {
		return nil, s.err
	}
	if st.err != nil {
		return nil, st.err
	}
	return st, nil
}

func (s *Session) newStreamLocked(id uint32) *Stream {
	st := &Stream{sess: s, id: id}
	st.cond = s.env.Sync.NewCond(&s.mu)
	s.streams[id] = st
	return st
}

// Close tears down the session and every stream.
func (s *Session) Close() error {
	s.fail(ErrSessionClosed)
	return nil
}

// Err returns the session's terminal error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	// Fail streams in ID order: map iteration order would randomize the
	// wake order of their readers and, in the simulator, every packet the
	// woken goroutines subsequently send.
	ids := make([]uint32, 0, len(s.streams))
	for id := range s.streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st := s.streams[id]
		if st.err == nil {
			st.err = err
		}
		st.cond.Broadcast()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
}

func (s *Session) writeFrame(typ byte, id uint32, payload []byte) error {
	if c := s.counters.Load(); c != nil {
		c.FramesOut.Inc()
		if typ == framePing || typ == framePong {
			c.Keepalives.Inc()
		}
	}
	if s.managedWrites {
		if err := s.acquireWriteToken(); err != nil {
			return err
		}
		defer s.releaseWriteToken()
	} else {
		s.wmu.Lock()
		defer s.wmu.Unlock()
	}
	hdr := make([]byte, 9, 9+len(payload))
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], id)
	binary.BigEndian.PutUint32(hdr[5:], uint32(len(payload)))
	_, err := s.conn.Write(append(hdr, payload...))
	return err
}

// acquireWriteToken serializes managed-carrier writes on the session
// cond, so a writer parked behind a slow carrier Write (a DNS-tunnel
// round trip) waits under the virtual clock instead of on an OS mutex.
func (s *Session) acquireWriteToken() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.writing && s.err == nil {
		s.cond.Wait()
	}
	if s.err != nil {
		return s.err
	}
	s.writing = true
	return nil
}

func (s *Session) releaseWriteToken() {
	s.mu.Lock()
	s.writing = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Session) readLoop() {
	defer s.fail(ErrSessionClosed)
	hdr := make([]byte, 9)
	for {
		if _, err := io.ReadFull(s.conn, hdr); err != nil {
			s.fail(fmt.Errorf("mux: carrier read: %w", err))
			return
		}
		typ := hdr[0]
		id := binary.BigEndian.Uint32(hdr[1:])
		n := binary.BigEndian.Uint32(hdr[5:])
		if typ < frameOpen || typ > framePong {
			// Not our protocol (e.g. a censor's probe): drop the carrier
			// immediately without answering.
			s.fail(fmt.Errorf("mux: unknown frame type %#x", typ))
			return
		}
		if n > maxFramePayload {
			s.fail(fmt.Errorf("mux: oversized frame (%d bytes)", n))
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(s.conn, payload); err != nil {
			s.fail(fmt.Errorf("mux: carrier read: %w", err))
			return
		}
		if c := s.counters.Load(); c != nil {
			c.FramesIn.Inc()
		}
		s.dispatch(typ, id, payload)
	}
}

func (s *Session) dispatch(typ byte, id uint32, payload []byte) {
	switch typ {
	case frameOpen:
		if s.accept == nil {
			s.writeFrame(frameOpenFail, id, []byte("no acceptor"))
			return
		}
		s.mu.Lock()
		st := s.newStreamLocked(id)
		s.mu.Unlock()
		meta := payload
		s.env.Spawn.Go(func() {
			upstream, err := s.accept(meta)
			if err != nil {
				s.writeFrame(frameOpenFail, id, []byte(err.Error()))
				s.mu.Lock()
				st.err = ErrStreamClosed
				delete(s.streams, id)
				st.cond.Broadcast()
				s.mu.Unlock()
				return
			}
			if err := s.writeFrame(frameOpenOK, id, nil); err != nil {
				upstream.Close()
				return
			}
			s.relay(st, upstream)
		})
	case frameOpenOK:
		s.mu.Lock()
		if st := s.streams[id]; st != nil && st.opening {
			st.opening = false
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	case frameOpenFail:
		s.mu.Lock()
		if st := s.streams[id]; st != nil {
			st.err = fmt.Errorf("%w: %s", ErrOpenRejected, payload)
			st.opening = false
			delete(s.streams, id)
			s.cond.Broadcast()
			st.cond.Broadcast()
		}
		s.mu.Unlock()
	case frameData:
		s.mu.Lock()
		if st := s.streams[id]; st != nil {
			if len(st.buf)+len(payload) > maxStreamBuffer {
				s.mu.Unlock()
				s.fail(fmt.Errorf("mux: stream %d buffer overflow", id))
				return
			}
			st.buf = append(st.buf, payload...)
			st.cond.Broadcast()
		}
		s.mu.Unlock()
	case frameClose:
		s.mu.Lock()
		if st := s.streams[id]; st != nil {
			st.remoteClosed = true
			st.cond.Broadcast()
			if st.localClosed {
				delete(s.streams, id)
			}
		}
		s.mu.Unlock()
	case framePing:
		s.writeFrame(framePong, id, payload)
	case framePong:
		// Keepalive answer. Measured pings (RTT) wait on their id;
		// plain Ping echoes carry id 0 and need no delivery.
		s.mu.Lock()
		if pw := s.pings[id]; pw != nil {
			pw.done = true
			pw.at = s.env.Clock.Now()
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// Ping sends a keepalive frame of n padding bytes; the peer echoes it.
// Tunnels use it to model their link-maintenance traffic (PPTP echoes,
// OpenVPN pings).
func (s *Session) Ping(n int) error {
	if n > maxFramePayload {
		n = maxFramePayload
	}
	return s.writeFrame(framePing, 0, make([]byte, n))
}

// RTT sends a measured ping and blocks until the peer's pong returns,
// reporting the carrier round-trip time. A non-positive timeout waits
// indefinitely. Health probers use it as the echo/latency check: unlike
// Ping, the reply is awaited, so a stalled or dead carrier surfaces as a
// timeout rather than silence.
func (s *Session) RTT(timeout time.Duration) (time.Duration, error) {
	return s.rttEcho(timeout, nil)
}

// RTTPadded is RTT with pad bytes of ping payload, echoed back by the
// peer. Recovery probes use it so a probe's first flight carries about
// as much data as real carrier traffic — a bare 9-byte ping is too
// small for an on-path classifier to fingerprint, which would make a
// blocked transport look healthy.
func (s *Session) RTTPadded(timeout time.Duration, pad []byte) (time.Duration, error) {
	if len(pad) > maxFramePayload {
		pad = pad[:maxFramePayload]
	}
	return s.rttEcho(timeout, pad)
}

func (s *Session) rttEcho(timeout time.Duration, pad []byte) (time.Duration, error) {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, err
	}
	s.nextPing++
	id := s.nextPing
	pw := &pingWait{}
	s.pings[id] = pw
	s.mu.Unlock()

	start := s.env.Clock.Now()
	if err := s.writeFrame(framePing, id, pad); err != nil {
		s.fail(err)
		s.mu.Lock()
		delete(s.pings, id)
		s.mu.Unlock()
		return 0, err
	}
	var deadline time.Time
	var timer netx.Timer
	if timeout > 0 {
		deadline = start.Add(timeout)
		timer = s.env.Clock.AfterFunc(timeout, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer timer.Stop()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for !pw.done && s.err == nil {
		if timeout > 0 && !s.env.Clock.Now().Before(deadline) {
			break
		}
		s.cond.Wait()
	}
	delete(s.pings, id)
	if pw.done {
		return pw.at.Sub(start), nil
	}
	if s.err != nil {
		return 0, s.err
	}
	return 0, timeoutError{}
}

// Streams reports how many streams are currently registered on the
// session — the in-flight load signal pick policies balance on.
func (s *Session) Streams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// relay copies between a granted stream and its upstream until either
// side finishes.
func (s *Session) relay(st *Stream, upstream net.Conn) {
	s.env.Spawn.Go(func() {
		io.Copy(st, upstream)
		st.Close()
		upstream.Close()
	})
	io.Copy(upstream, st)
	upstream.Close()
	st.Close()
}

// Stream is one multiplexed byte stream. It implements net.Conn.
type Stream struct {
	sess *Session
	id   uint32
	cond netx.Cond // bound to sess.mu

	opening      bool
	buf          []byte
	err          error
	localClosed  bool
	remoteClosed bool
	deadline     time.Time
	ddTimer      netx.Timer
}

// Session returns the carrier session the stream rides.
func (st *Stream) Session() *Session { return st.sess }

// Read implements net.Conn.
func (st *Stream) Read(b []byte) (int, error) {
	s := st.sess
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(st.buf) > 0 {
			n := copy(b, st.buf)
			st.buf = st.buf[n:]
			if len(st.buf) == 0 {
				st.buf = nil
			}
			return n, nil
		}
		if st.err != nil {
			return 0, st.err
		}
		if st.localClosed {
			return 0, ErrStreamClosed
		}
		if st.remoteClosed {
			return 0, io.EOF
		}
		if !st.deadline.IsZero() && !s.env.Clock.Now().Before(st.deadline) {
			return 0, timeoutError{}
		}
		st.cond.Wait()
	}
}

// Write implements net.Conn.
func (st *Stream) Write(b []byte) (int, error) {
	s := st.sess
	s.mu.Lock()
	if st.err != nil {
		err := st.err
		s.mu.Unlock()
		return 0, err
	}
	if st.localClosed {
		s.mu.Unlock()
		return 0, ErrStreamClosed
	}
	s.mu.Unlock()

	total := 0
	for len(b) > 0 {
		n := len(b)
		if n > maxFramePayload {
			n = maxFramePayload
		}
		if err := s.writeFrame(frameData, st.id, b[:n]); err != nil {
			s.fail(err)
			return total, err
		}
		b = b[n:]
		total += n
	}
	return total, nil
}

// Close implements net.Conn. It half-closes the local side; the peer
// observes EOF after draining.
func (st *Stream) Close() error {
	s := st.sess
	s.mu.Lock()
	if st.localClosed {
		s.mu.Unlock()
		return nil
	}
	st.localClosed = true
	if st.remoteClosed {
		delete(s.streams, st.id)
	}
	st.cond.Broadcast()
	s.mu.Unlock()
	return s.writeFrame(frameClose, st.id, nil)
}

// LocalAddr implements net.Conn.
func (st *Stream) LocalAddr() net.Addr { return muxAddr{st.id} }

// RemoteAddr implements net.Conn.
func (st *Stream) RemoteAddr() net.Addr { return muxAddr{st.id} }

// SetDeadline implements net.Conn (read side only; writes never block).
func (st *Stream) SetDeadline(t time.Time) error { return st.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (st *Stream) SetReadDeadline(t time.Time) error {
	s := st.sess
	s.mu.Lock()
	defer s.mu.Unlock()
	st.deadline = t
	if st.ddTimer != nil {
		st.ddTimer.Stop()
		st.ddTimer = nil
	}
	if !t.IsZero() {
		d := t.Sub(s.env.Clock.Now())
		st.ddTimer = s.env.Clock.AfterFunc(d, func() {
			s.mu.Lock()
			st.cond.Broadcast()
			s.mu.Unlock()
		})
	}
	return nil
}

// SetWriteDeadline implements net.Conn; writes do not block on the peer.
func (st *Stream) SetWriteDeadline(time.Time) error { return nil }

type muxAddr struct{ id uint32 }

func (a muxAddr) Network() string { return "mux" }
func (a muxAddr) String() string  { return fmt.Sprintf("stream-%d", a.id) }

type timeoutError struct{}

func (timeoutError) Error() string   { return "mux: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
