package tlssim

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"time"
)

const macSize = 16

// Errors returned by the handshake and record processing.
var (
	ErrBadMAC    = errors.New("tlssim: record authentication failed")
	ErrHandshake = errors.New("tlssim: handshake failed")
	// ErrResumption marks a failed abbreviated handshake; it is always
	// wrapped in ErrHandshake. A client drops the session it offered, so
	// a retry on a fresh connection runs a full handshake.
	ErrResumption = errors.New("tlssim: session resumption failed")
)

// Config configures a client or server connection.
type Config struct {
	// ServerName is sent in the clear in the ClientHello (client side).
	ServerName string
	// Certificate is the server's identity blob, delivered during the
	// handshake (server side). The simulator treats it as opaque; pair it
	// with VerifyPeer for authentication.
	Certificate []byte
	// VerifyPeer, if set on a client, is called with the server's
	// certificate and the configured ServerName; returning an error
	// aborts the handshake.
	VerifyPeer func(cert []byte, serverName string) error
	// Rand supplies handshake randomness (hello randoms, ECDH keys). Nil
	// uses crypto/rand; the simulator injects its seeded source so wire
	// bytes are a deterministic function of the world's seed.
	Rand io.Reader
	// Sessions, if set, enables the abbreviated handshake (see
	// SessionCache). A client offers the session cached for its
	// ServerName, or asks for one; a server resumes the sessions it
	// issued and issues one after each full handshake it was asked for.
	// Nil keeps the full handshake and its exact wire bytes.
	Sessions *SessionCache
}

func (cfg *Config) rand() io.Reader {
	if cfg.Rand != nil {
		return cfg.Rand
	}
	return rand.Reader
}

// Conn is an encrypted connection over an underlying net.Conn.
// Writes are safe for concurrent use (the record layer serializes them);
// reads must come from a single goroutine.
type Conn struct {
	raw      net.Conn
	cfg      Config
	isClient bool
	wmu      sync.Mutex

	handshook bool
	resumed   bool
	peerCert  []byte

	w, r         direction
	readBuf      []byte
	handshakeErr error
}

// direction is one direction's record protection, built once per
// handshake so that sealing or opening a record allocates only the
// record itself.
type direction struct {
	block cipher.Block // AES-256
	mac   hash.Hash    // HMAC-SHA256, Reset per record
	iv    [16]byte
	seq   uint64

	ctr [16]byte // per-record IV
	num [8]byte  // sequence number as MACed
	sum [sha256.Size]byte
}

func newDirection(key, macKey, iv []byte) direction {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // key is always 32 bytes
	}
	d := direction{block: block, mac: hmac.New(sha256.New, macKey)}
	copy(d.iv[:], iv)
	return d
}

// stream returns the CTR keystream of the current record: the IV with
// the sequence number XORed into its low half.
func (d *direction) stream() cipher.Stream {
	d.ctr = d.iv
	binary.BigEndian.PutUint64(d.ctr[8:], binary.BigEndian.Uint64(d.ctr[8:])^d.seq)
	return cipher.NewCTR(d.block, d.ctr[:])
}

// tag returns the current record's MAC over its sequence number and
// ciphertext. The result aliases d.sum, valid until the next call.
func (d *direction) tag(ct []byte) []byte {
	d.mac.Reset()
	binary.BigEndian.PutUint64(d.num[:], d.seq)
	d.mac.Write(d.num[:])
	d.mac.Write(ct)
	return d.mac.Sum(d.sum[:0])[:macSize]
}

// Client wraps conn as the initiating side.
func Client(conn net.Conn, cfg Config) *Conn {
	return &Conn{raw: conn, cfg: cfg, isClient: true}
}

// Server wraps conn as the accepting side.
func Server(conn net.Conn, cfg Config) *Conn {
	return &Conn{raw: conn, cfg: cfg}
}

// Handshake performs the key exchange. It is called implicitly by the
// first Read or Write.
func (c *Conn) Handshake() error {
	if c.handshook || c.handshakeErr != nil {
		return c.handshakeErr
	}
	var err error
	if c.isClient {
		err = c.clientHandshake()
	} else {
		err = c.serverHandshake()
	}
	if err != nil {
		c.handshakeErr = fmt.Errorf("%w: %w", ErrHandshake, err)
		return c.handshakeErr
	}
	c.handshook = true
	return nil
}

func randBytes(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (c *Conn) clientHandshake() error {
	clientRandom, err := randBytes(c.cfg.rand(), 32)
	if err != nil {
		return err
	}
	// ClientHello: [0x01][random 32][sniLen u16][sni], then, with
	// Sessions set, [idLen u8][id]: the session offered for resumption,
	// or an empty ID asking the server to issue one.
	hello := make([]byte, 0, 36+len(c.cfg.ServerName)+sessionIDLen)
	hello = append(hello, msgClientHello)
	hello = append(hello, clientRandom...)
	hello = binary.BigEndian.AppendUint16(hello, uint16(len(c.cfg.ServerName)))
	hello = append(hello, c.cfg.ServerName...)
	var offer *session
	if c.cfg.Sessions != nil {
		offer = c.cfg.Sessions.get(c.cfg.ServerName)
		var id []byte
		if offer != nil {
			id = offer.id
		}
		hello = append(hello, byte(len(id)))
		hello = append(hello, id...)
	}
	if err := writeRecord(c.raw, RecordHandshake, hello); err != nil {
		return err
	}

	// ServerHello: [0x02][random 32][pub 32][certLen u16][cert], or just
	// [0x02][random 32] when the server resumes the offered session.
	typ, body, err := readRecord(c.raw)
	if err != nil {
		return err
	}
	if offer != nil && typ == RecordHandshake && len(body) == 33 && body[0] == msgServerHello {
		if err := c.clientResume(offer, clientRandom, body[1:]); err != nil {
			c.cfg.Sessions.drop(c.cfg.ServerName, offer)
			return fmt.Errorf("%w: %v", ErrResumption, err)
		}
		return nil
	}
	if typ != RecordHandshake || len(body) < 1+32+32+2 || body[0] != msgServerHello {
		return errors.New("expected ServerHello")
	}
	serverRandom := body[1:33]
	serverPub := body[33:65]
	certLen := int(binary.BigEndian.Uint16(body[65:]))
	if len(body) < 67+certLen {
		return errors.New("truncated certificate")
	}
	c.peerCert = append([]byte(nil), body[67:67+certLen]...)
	if c.cfg.VerifyPeer != nil {
		if err := c.cfg.VerifyPeer(c.peerCert, c.cfg.ServerName); err != nil {
			return fmt.Errorf("certificate rejected: %w", err)
		}
	}

	priv, err := ecdh.X25519().GenerateKey(c.cfg.rand())
	if err != nil {
		return err
	}
	peer, err := ecdh.X25519().NewPublicKey(serverPub)
	if err != nil {
		return err
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return err
	}

	// ClientKeyShare: [0x03][pub 32]
	share := append([]byte{msgClientKeyShare}, priv.PublicKey().Bytes()...)
	if err := writeRecord(c.raw, RecordHandshake, share); err != nil {
		return err
	}

	// Finished exchange under the new keys proves both sides derived the
	// same secret. A server asked for a session appends its ID to its
	// Finished, where only the key holder can read it.
	master := masterSecret(secret, clientRandom, serverRandom)
	c.deriveKeys(master)
	if err := c.writeEncryptedHandshake(finishedPayload(master, "client")); err != nil {
		return err
	}
	fin, err := c.readEncryptedHandshake()
	if err != nil {
		return err
	}
	want := finishedPayload(master, "server")
	if len(fin) < len(want) || !hmac.Equal(fin[:len(want)], want) {
		return errors.New("bad server Finished")
	}
	switch id := fin[len(want):]; {
	case len(id) == 0:
	case c.cfg.Sessions != nil && len(id) == sessionIDLen:
		c.cfg.Sessions.put(c.cfg.ServerName, &session{id: id, master: master, name: c.cfg.ServerName, cert: c.peerCert})
	default:
		return errors.New("bad server Finished")
	}
	return nil
}

// clientResume completes an abbreviated handshake after a short
// ServerHello: keys come from the offered session's secret and both
// fresh randoms, and the server's Finished is checked before the
// client's is sent.
func (c *Conn) clientResume(s *session, clientRandom, serverRandom []byte) error {
	master := masterSecret(s.master, clientRandom, serverRandom)
	c.deriveKeys(master)
	fin, err := c.readEncryptedHandshake()
	if err != nil {
		return err
	}
	if !hmac.Equal(fin, finishedPayload(master, "server")) {
		return errors.New("bad server Finished")
	}
	if err := c.writeEncryptedHandshake(finishedPayload(master, "client")); err != nil {
		return err
	}
	c.peerCert = s.cert
	c.resumed = true
	return nil
}

func (c *Conn) serverHandshake() error {
	typ, body, err := readRecord(c.raw)
	if err != nil {
		return err
	}
	if typ != RecordHandshake || len(body) < 35 || body[0] != msgClientHello {
		return errors.New("expected ClientHello")
	}
	clientRandom := body[1:33]
	sniLen := int(binary.BigEndian.Uint16(body[33:]))
	if len(body) < 35+sniLen {
		return errors.New("truncated SNI")
	}
	c.cfg.ServerName = string(body[35 : 35+sniLen])
	offered, id, err := parseSessionID(body[35+sniLen:])
	if err != nil {
		return err
	}
	if len(id) > 0 && c.cfg.Sessions != nil {
		// An unknown or expired ID, or one issued under another server
		// name, falls through to the full handshake.
		if s := c.cfg.Sessions.get(string(id)); s != nil && s.name == c.cfg.ServerName {
			return c.serverResume(s, clientRandom)
		}
	}

	serverRandom, err := randBytes(c.cfg.rand(), 32)
	if err != nil {
		return err
	}
	priv, err := ecdh.X25519().GenerateKey(c.cfg.rand())
	if err != nil {
		return err
	}

	hello := make([]byte, 0, 67+len(c.cfg.Certificate))
	hello = append(hello, msgServerHello)
	hello = append(hello, serverRandom...)
	hello = append(hello, priv.PublicKey().Bytes()...)
	hello = binary.BigEndian.AppendUint16(hello, uint16(len(c.cfg.Certificate)))
	hello = append(hello, c.cfg.Certificate...)
	if err := writeRecord(c.raw, RecordHandshake, hello); err != nil {
		return err
	}

	typ, body, err = readRecord(c.raw)
	if err != nil {
		return err
	}
	if typ != RecordHandshake || len(body) != 33 || body[0] != msgClientKeyShare {
		return errors.New("expected ClientKeyShare")
	}
	peer, err := ecdh.X25519().NewPublicKey(body[1:33])
	if err != nil {
		return err
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return err
	}
	master := masterSecret(secret, clientRandom, serverRandom)
	c.deriveKeys(master)

	fin, err := c.readEncryptedHandshake()
	if err != nil {
		return err
	}
	if !hmac.Equal(fin, finishedPayload(master, "client")) {
		return errors.New("bad client Finished")
	}
	fin = finishedPayload(master, "server")
	if offered && c.cfg.Sessions != nil {
		newID, err := randBytes(c.cfg.rand(), sessionIDLen)
		if err != nil {
			return err
		}
		c.cfg.Sessions.put(string(newID), &session{id: newID, master: master, name: c.cfg.ServerName})
		fin = append(fin, newID...)
	}
	return c.writeEncryptedHandshake(fin)
}

// parseSessionID reads the optional session-ID field that follows the
// SNI in a ClientHello: absent (an older client), or [idLen u8][id]
// filling the rest of the message exactly.
func parseSessionID(rest []byte) (offered bool, id []byte, err error) {
	if len(rest) == 0 {
		return false, nil, nil
	}
	if n := int(rest[0]); n > sessionIDLen || len(rest) != 1+n {
		return false, nil, errors.New("malformed session ID")
	}
	return true, rest[1:], nil
}

// serverResume runs the server half of an abbreviated handshake: a
// short ServerHello, then the server's Finished, then a check of the
// client's.
func (c *Conn) serverResume(s *session, clientRandom []byte) error {
	serverRandom, err := randBytes(c.cfg.rand(), 32)
	if err != nil {
		return err
	}
	if err := writeRecord(c.raw, RecordHandshake, append([]byte{msgServerHello}, serverRandom...)); err != nil {
		return err
	}
	master := masterSecret(s.master, clientRandom, serverRandom)
	c.deriveKeys(master)
	if err := c.writeEncryptedHandshake(finishedPayload(master, "server")); err != nil {
		return err
	}
	fin, err := c.readEncryptedHandshake()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrResumption, err)
	}
	if !hmac.Equal(fin, finishedPayload(master, "client")) {
		return fmt.Errorf("%w: bad client Finished", ErrResumption)
	}
	c.resumed = true
	return nil
}

func masterSecret(secret, clientRandom, serverRandom []byte) []byte {
	h := sha256.New()
	h.Write(secret)
	h.Write(clientRandom)
	h.Write(serverRandom)
	return h.Sum(nil)
}

func finishedPayload(master []byte, side string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(side + " finished"))
	return append([]byte{msgFinished}, mac.Sum(nil)[:12]...)
}

func expand(master []byte, label string, n int) []byte {
	out := make([]byte, 0, n)
	counter := byte(0)
	for len(out) < n {
		h := sha256.New()
		h.Write(master)
		h.Write([]byte(label))
		h.Write([]byte{counter})
		out = append(out, h.Sum(nil)...)
		counter++
	}
	return out[:n]
}

func (c *Conn) deriveKeys(master []byte) {
	client := newDirection(expand(master, "client key", 32), expand(master, "client mac", 32), expand(master, "client iv", 16))
	server := newDirection(expand(master, "server key", 32), expand(master, "server mac", 32), expand(master, "server iv", 16))
	if c.isClient {
		c.w, c.r = client, server
	} else {
		c.w, c.r = server, client
	}
}

// sealRecord encrypts and authenticates plaintext as one complete
// record of type typ, header included, in a single allocation.
func (c *Conn) sealRecord(typ byte, plaintext []byte) []byte {
	d := &c.w
	rec := make([]byte, 5+len(plaintext), 5+len(plaintext)+macSize)
	rec[0] = typ
	binary.BigEndian.PutUint16(rec[1:], Version)
	binary.BigEndian.PutUint16(rec[3:], uint16(len(plaintext)+macSize))
	d.stream().XORKeyStream(rec[5:], plaintext)
	rec = append(rec, d.tag(rec[5:])...)
	d.seq++
	return rec
}

// open verifies and decrypts one record body in place.
func (c *Conn) open(body []byte) ([]byte, error) {
	if len(body) < macSize {
		return nil, ErrBadMAC
	}
	d := &c.r
	ct, tag := body[:len(body)-macSize], body[len(body)-macSize:]
	if !hmac.Equal(tag, d.tag(ct)) {
		return nil, ErrBadMAC
	}
	d.stream().XORKeyStream(ct, ct)
	d.seq++
	return ct, nil
}

func (c *Conn) writeEncryptedHandshake(payload []byte) error {
	_, err := c.raw.Write(c.sealRecord(RecordHandshake, payload))
	return err
}

func (c *Conn) readEncryptedHandshake() ([]byte, error) {
	typ, body, err := readRecord(c.raw)
	if err != nil {
		return nil, err
	}
	if typ != RecordHandshake {
		return nil, errors.New("tlssim: expected handshake record")
	}
	return c.open(body)
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	for len(c.readBuf) == 0 {
		typ, body, err := readRecord(c.raw)
		if err != nil {
			return 0, err
		}
		switch typ {
		case RecordApplication:
			pt, err := c.open(body)
			if err != nil {
				return 0, err
			}
			c.readBuf = pt
		case RecordAlert:
			return 0, net.ErrClosed
		default:
			return 0, fmt.Errorf("tlssim: unexpected record type %#x", typ)
		}
	}
	n := copy(b, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// Write implements net.Conn.
func (c *Conn) Write(b []byte) (int, error) {
	if err := c.Handshake(); err != nil {
		return 0, err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	total := 0
	for len(b) > 0 {
		n := len(b)
		if n > MaxRecordPayload {
			n = MaxRecordPayload
		}
		if _, err := c.raw.Write(c.sealRecord(RecordApplication, b[:n])); err != nil {
			return total, err
		}
		b = b[n:]
		total += n
	}
	return total, nil
}

// PeerCertificate returns the certificate blob the server presented
// (client side, after the handshake). A resumed session restores the
// certificate of the full handshake that created it.
func (c *Conn) PeerCertificate() []byte { return c.peerCert }

// Resumed reports whether the handshake was abbreviated: it resumed a
// cached session instead of running a key exchange.
func (c *Conn) Resumed() bool { return c.resumed }

// ServerName returns the SNI: as configured on clients, as received on
// servers (after the handshake).
func (c *Conn) ServerName() string { return c.cfg.ServerName }

// Close implements net.Conn.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }
