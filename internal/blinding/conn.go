package blinding

import "net"

// Conn applies a blinding scheme to a connection: writes are encoded,
// reads are decoded. Both ScholarCloud proxies wrap their inter-proxy
// connections with it.
//
// Write expects one writer at a time: it encodes into a scratch buffer
// the connection owns, and the encoder's stream position is per
// connection anyway. The mux session over it serializes its frames.
type Conn struct {
	net.Conn
	enc  Transform
	dec  Transform
	wbuf []byte // Write's encoding scratch
}

// WrapConn blinds conn with scheme. The returned connection is used in
// place of the original.
func WrapConn(conn net.Conn, scheme Scheme) *Conn {
	return &Conn{Conn: conn, enc: scheme.NewEncoder(), dec: scheme.NewDecoder()}
}

// Read implements net.Conn, decoding received bytes.
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.dec.Apply(b[:n], b[:n])
	}
	return n, err
}

// Write implements net.Conn, encoding sent bytes.
func (c *Conn) Write(b []byte) (int, error) {
	// Encode into the scratch buffer so the caller's slice is untouched.
	// The wrapped connection must not retain it past Write.
	if cap(c.wbuf) < len(b) {
		c.wbuf = make([]byte, len(b))
	}
	out := c.wbuf[:len(b)]
	c.enc.Apply(out, b)
	return c.Conn.Write(out)
}

// WriteBlocksManaged forwards the managed-write marker of the wrapped
// connection (see mux.managedWriteConn): blinding adds pure CPU work, so
// the write's blocking character is whatever the carrier's is.
func (c *Conn) WriteBlocksManaged() bool {
	mc, ok := c.Conn.(interface{ WriteBlocksManaged() bool })
	return ok && mc.WriteBlocksManaged()
}
