package tlssim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// seededRand is a deterministic entropy stream for transcript tests: a
// splitmix64 counter. Single-byte reads are served without advancing
// the stream, because the stdlib's ecdh key generation consumes one byte
// on a runtime-random half of its calls (randutil.MaybeReadByte).
type seededRand struct {
	mu  sync.Mutex
	ctr uint64
	key uint64
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *seededRand) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(p) == 1 {
		p[0] = byte(splitmix(r.key ^ 0xB17E))
		return 1, nil
	}
	for i := 0; i < len(p); i += 8 {
		r.ctr++
		v := splitmix(r.key ^ r.ctr)
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return len(p), nil
}

// recordingConn hashes every byte written through it.
type recordingConn struct {
	net.Conn
	mu sync.Mutex
	h  [32]byte
	w  []byte
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.w = append(c.w, b...)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *recordingConn) digest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := sha256.Sum256(c.w)
	return hex.EncodeToString(sum[:])
}

// transcript runs a handshake plus one request and one response under
// seeded randomness and returns the SHA-256 of each direction's bytes.
func transcript(t *testing.T, clientCfg, serverCfg Config) (clientOut, serverOut string) {
	t.Helper()
	a, b := net.Pipe()
	rc, rs := &recordingConn{Conn: a}, &recordingConn{Conn: b}
	client, server := Client(rc, clientCfg), Server(rs, serverCfg)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		n, err := io.ReadFull(server, buf[:18])
		if err == nil {
			_, err = server.Write(append([]byte("echo: "), buf[:n]...))
		}
		done <- err
	}()
	if _, err := client.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 24)
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	client.Close()
	server.Close()
	return rc.digest(), rs.digest()
}

// TestZeroConfigGoldenTranscript pins the wire bytes of a handshake and
// two application records under seeded randomness: a Config without
// Sessions must keep emitting exactly these bytes, which is what keeps
// the simulator's figures byte-identical.
func TestZeroConfigGoldenTranscript(t *testing.T) {
	c, s := transcript(t,
		Config{ServerName: "remote.scholarcloud.example", Rand: &seededRand{key: 1}},
		Config{Certificate: []byte("cert-blob"), Rand: &seededRand{key: 2}},
	)
	const (
		wantClient = "0c376f0042f858ab7850b2449697b757334ef4064d453ac3ab7ecbe8e4780ba5"
		wantServer = "771e1f45883a8a4e454612da34febd5796a335bafe8ee76c40b438dbe69ba8a2"
	)
	if c != wantClient || s != wantServer {
		t.Errorf("transcript digests = %s / %s, want %s / %s", c, s, wantClient, wantServer)
	}
}

// fakeClock is an injectable clock for session expiry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_500_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// resumingPair returns client and server configs sharing no state but
// each holding its own session cache on its own clock.
func resumingPair(name string) (clientCfg, serverCfg Config, clientClock, serverClock *fakeClock) {
	clientClock, serverClock = newFakeClock(), newFakeClock()
	clientCfg = Config{ServerName: name, Sessions: NewSessionCache(clientClock.now)}
	serverCfg = Config{Certificate: []byte("identity"), Sessions: NewSessionCache(serverClock.now)}
	return
}

// echoOnce proves both ends derived the same keys.
func echoOnce(t *testing.T, client, server *Conn) {
	t.Helper()
	go func() {
		buf := make([]byte, 64)
		n, _ := server.Read(buf)
		server.Write(buf[:n])
	}()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(client, got); err != nil || string(got) != "ping" {
		t.Fatalf("echo = %q, %v", got, err)
	}
}

func wantResumed(t *testing.T, client, server *Conn, want bool) {
	t.Helper()
	if client.Resumed() != want || server.Resumed() != want {
		t.Fatalf("Resumed() = client %v, server %v; want %v", client.Resumed(), server.Resumed(), want)
	}
}

func TestResumeRestoresPeerCertificate(t *testing.T) {
	ccfg, scfg, _, _ := resumingPair("remote.example")
	verified := 0
	ccfg.VerifyPeer = func([]byte, string) error { verified++; return nil }
	c1, s1 := handshakePair(t, ccfg, scfg)
	wantResumed(t, c1, s1, false)
	echoOnce(t, c1, s1)

	c2, s2 := handshakePair(t, ccfg, scfg)
	wantResumed(t, c2, s2, true)
	if got := string(c2.PeerCertificate()); got != "identity" {
		t.Errorf("resumed PeerCertificate = %q, want %q", got, "identity")
	}
	if got := s2.ServerName(); got != "remote.example" {
		t.Errorf("resumed server SNI = %q", got)
	}
	if verified != 1 {
		t.Errorf("VerifyPeer ran %d times, want once (the full handshake)", verified)
	}
	echoOnce(t, c2, s2)
}

func TestUnknownSessionFallsBackToFullHandshake(t *testing.T) {
	ccfg, scfg, _, _ := resumingPair("remote.example")
	handshakePair(t, ccfg, scfg)
	// A server that never issued the offered ID (a fresh cache) runs the
	// full handshake in the same exchange and issues a new session.
	scfg.Sessions = NewSessionCache(newFakeClock().now)
	c, s := handshakePair(t, ccfg, scfg)
	wantResumed(t, c, s, false)
	echoOnce(t, c, s)
	c, s = handshakePair(t, ccfg, scfg)
	wantResumed(t, c, s, true)
}

func TestExpiredSessionFallsBackToFullHandshake(t *testing.T) {
	ccfg, scfg, _, serverClock := resumingPair("remote.example")
	handshakePair(t, ccfg, scfg)
	serverClock.advance(SessionLifetime - time.Second)
	c, s := handshakePair(t, ccfg, scfg)
	wantResumed(t, c, s, true)

	// The lifetime counts from the full handshake, not the last resume.
	// The client's clock stands still, so it still offers the ID.
	serverClock.advance(time.Second)
	c, s = handshakePair(t, ccfg, scfg)
	wantResumed(t, c, s, false)
	echoOnce(t, c, s)
	if n := len(scfg.Sessions.entries); n != 1 {
		t.Errorf("server cache holds %d sessions, want only the new one", n)
	}
}

func TestSessionRefusedForAnotherServerName(t *testing.T) {
	ccfg, scfg, _, _ := resumingPair("a.example")
	handshakePair(t, ccfg, scfg)
	// Offer a.example's session while naming b.example.
	ccfg.Sessions.entries["b.example"] = ccfg.Sessions.entries["a.example"]
	ccfg.ServerName = "b.example"
	c, s := handshakePair(t, ccfg, scfg)
	wantResumed(t, c, s, false)
	if got := s.ServerName(); got != "b.example" {
		t.Errorf("server SNI = %q", got)
	}
	echoOnce(t, c, s)
}

// helloRecord builds a ClientHello record with an explicit session-ID
// field (idField nil omits it, as an older client does).
func helloRecord(name string, idField []byte) []byte {
	body := append([]byte{msgClientHello}, bytes.Repeat([]byte{7}, 32)...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(name)))
	body = append(body, name...)
	body = append(body, idField...)
	rec := []byte{RecordHandshake, Version >> 8, Version & 0xff, 0, 0}
	binary.BigEndian.PutUint16(rec[3:], uint16(len(body)))
	return append(rec, body...)
}

func TestMismatchedSessionSecretFailsFinishedBothSides(t *testing.T) {
	ccfg, scfg, _, _ := resumingPair("remote.example")
	handshakePair(t, ccfg, scfg)
	offered := ccfg.Sessions.get("remote.example")
	stored := scfg.Sessions.get(string(offered.id))
	stored.master = bytes.Repeat([]byte{0xEE}, len(stored.master))

	// Client side: the server's Finished does not verify. The client
	// drops the session, so its next handshake is a full one.
	rawC, rawS := pipePair()
	server := Server(rawS, scfg)
	go func() { server.Handshake(); rawS.Close() }()
	err := Client(rawC, ccfg).Handshake()
	if !errors.Is(err, ErrHandshake) || !errors.Is(err, ErrResumption) {
		t.Fatalf("client err = %v, want ErrHandshake and ErrResumption", err)
	}
	rawC.Close()
	if ccfg.Sessions.get("remote.example") != nil {
		t.Error("client kept the session that failed to resume")
	}

	// Server side: a client holding the other secret sends a Finished
	// the server cannot verify.
	scriptC, scriptS := pipePair()
	defer scriptC.Close()
	errs := make(chan error, 1)
	go func() { errs <- Server(scriptS, scfg).Handshake() }()
	scriptC.Write(helloRecord("remote.example", append([]byte{sessionIDLen}, offered.id...)))
	_, sh, err := readRecord(scriptC)
	if err != nil || len(sh) != 33 {
		t.Fatalf("short ServerHello = %x, %v", sh, err)
	}
	client := Client(scriptC, Config{})
	master := masterSecret(offered.master, bytes.Repeat([]byte{7}, 32), sh[1:])
	client.deriveKeys(master)
	if _, err := client.readEncryptedHandshake(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("server Finished under the client's secret: %v, want ErrBadMAC", err)
	}
	if err := client.writeEncryptedHandshake(finishedPayload(master, "client")); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; !errors.Is(err, ErrResumption) || !errors.Is(err, ErrBadMAC) {
		t.Fatalf("server err = %v, want ErrResumption from a bad Finished record", err)
	}
}

func TestMalformedSessionIDRejected(t *testing.T) {
	cases := map[string][]byte{
		"oversized":     append([]byte{sessionIDLen + 1}, bytes.Repeat([]byte{1}, sessionIDLen+1)...),
		"truncated":     {5, 1, 2, 3},
		"trailing":      {2, 1, 2, 3, 4},
		"length only":   {1},
		"maximum field": {255},
	}
	for name, field := range cases {
		t.Run(name, func(t *testing.T) {
			_, scfg, _, _ := resumingPair("")
			rawC, rawS := pipePair()
			defer rawC.Close()
			errs := make(chan error, 1)
			go func() { errs <- Server(rawS, scfg).Handshake() }()
			rawC.Write(helloRecord("remote.example", field))
			if err := <-errs; !errors.Is(err, ErrHandshake) {
				t.Fatalf("handshake err = %v, want ErrHandshake", err)
			}
			if n := len(scfg.Sessions.entries); n != 0 {
				t.Errorf("server cached %d sessions from a malformed hello", n)
			}
		})
	}
}

// TestResumptionNeedsBothSides: either side without Sessions keeps the
// full handshake, and neither side errors.
func TestResumptionNeedsBothSides(t *testing.T) {
	ccfg, scfg, _, _ := resumingPair("remote.example")
	for _, pair := range []struct{ c, s Config }{
		{ccfg, Config{Certificate: []byte("identity")}},
		{Config{ServerName: "remote.example"}, scfg},
	} {
		for i := 0; i < 2; i++ {
			c, s := handshakePair(t, pair.c, pair.s)
			wantResumed(t, c, s, false)
			echoOnce(t, c, s)
		}
	}
	if len(ccfg.Sessions.entries) != 0 || len(scfg.Sessions.entries) != 0 {
		t.Error("a session was issued although one side had resumption off")
	}
}

func TestSessionCacheBounded(t *testing.T) {
	clk := newFakeClock()
	sc := NewSessionCache(clk.now)
	for i := 0; i < 3*maxSessions; i++ {
		sc.put(string(rune(i)), &session{})
		clk.advance(time.Millisecond)
	}
	if n := len(sc.entries); n != maxSessions {
		t.Fatalf("cache holds %d sessions, want %d", n, maxSessions)
	}
	if sc.get(string(rune(0))) != nil || sc.get(string(rune(3*maxSessions-1))) == nil {
		t.Error("a full cache must drop its oldest session first")
	}
}

// TestConcurrentResumption resumes one session from many connections at
// once, as the streams of one carrier do.
func TestConcurrentResumption(t *testing.T) {
	ccfg, scfg, _, _ := resumingPair("remote.example")
	handshakePair(t, ccfg, scfg)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rawC, rawS := pipePair()
			defer rawC.Close()
			defer rawS.Close()
			client, server := Client(rawC, ccfg), Server(rawS, scfg)
			errs := make(chan error, 1)
			go func() { errs <- server.Handshake() }()
			if err := client.Handshake(); err != nil {
				t.Errorf("client: %v", err)
				return
			}
			if err := <-errs; err != nil {
				t.Errorf("server: %v", err)
				return
			}
			if !client.Resumed() || !server.Resumed() {
				t.Errorf("Resumed() = client %v, server %v", client.Resumed(), server.Resumed())
			}
		}()
	}
	wg.Wait()
}
