package tlssim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
)

// pipePair returns two ends of an in-memory connection.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

func handshakePair(t *testing.T, clientCfg, serverCfg Config) (*Conn, *Conn) {
	t.Helper()
	rawC, rawS := pipePair()
	client := Client(rawC, clientCfg)
	server := Server(rawS, serverCfg)
	errs := make(chan error, 1)
	go func() { errs <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	return client, server
}

func TestHandshakeAndEcho(t *testing.T) {
	client, server := handshakePair(t,
		Config{ServerName: "scholar.google.com"},
		Config{Certificate: []byte("cert-blob")},
	)
	go func() {
		buf := make([]byte, 1024)
		n, _ := server.Read(buf)
		server.Write(buf[:n])
	}()
	msg := []byte("confidential query")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestServerSeesSNI(t *testing.T) {
	_, server := handshakePair(t,
		Config{ServerName: "scholar.google.com"},
		Config{},
	)
	if got := server.ServerName(); got != "scholar.google.com" {
		t.Errorf("server SNI = %q", got)
	}
}

func TestClientSeesCertificate(t *testing.T) {
	client, _ := handshakePair(t,
		Config{ServerName: "x"},
		Config{Certificate: []byte("identity")},
	)
	if got := client.PeerCertificate(); string(got) != "identity" {
		t.Errorf("peer cert = %q", got)
	}
}

func TestVerifyPeerRejectionAborts(t *testing.T) {
	rawC, rawS := pipePair()
	client := Client(rawC, Config{
		ServerName: "x",
		VerifyPeer: func(cert []byte, name string) error {
			return errors.New("untrusted")
		},
	})
	server := Server(rawS, Config{Certificate: []byte("evil")})
	go server.Handshake()
	err := client.Handshake()
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("handshake err = %v, want ErrHandshake", err)
	}
}

func TestLargeTransfer(t *testing.T) {
	client, server := handshakePair(t, Config{ServerName: "x"}, Config{})
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		io.Copy(io.Discard, server)
	}()
	done := make(chan error, 1)
	go func() {
		_, err := client.Write(payload)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	client, server := handshakePair(t, Config{ServerName: "x"}, Config{})
	payload := make([]byte, 100*1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	got := make([]byte, len(payload))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(server, got)
		done <- err
	}()
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted")
	}
}

// tamperConn flips a bit in the nth record's ciphertext.
func TestTamperedRecordRejected(t *testing.T) {
	rawC, rawS := pipePair()
	client := Client(rawC, Config{ServerName: "x"})
	server := Server(rawS, Config{})
	go server.Handshake()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}

	// Intercept one application record and corrupt it.
	go func() {
		client.Write([]byte("attack at dawn"))
	}()
	typ, body, err := readRecord(rawS)
	_ = typ
	if err != nil {
		t.Fatal(err)
	}
	body[0] ^= 0x80
	if _, err := server.open(body); !errors.Is(err, ErrBadMAC) {
		t.Errorf("open(tampered) err = %v, want ErrBadMAC", err)
	}
}

func TestParseClientHelloSNI(t *testing.T) {
	rawC, rawS := pipePair()
	client := Client(rawC, Config{ServerName: "scholar.google.com"})
	go client.Handshake() // will block mid-handshake; we only need flight 1

	buf := make([]byte, 4096)
	n, err := rawS.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	sni, ok := ParseClientHelloSNI(buf[:n])
	if !ok || sni != "scholar.google.com" {
		t.Errorf("ParseClientHelloSNI = (%q, %v)", sni, ok)
	}
	rawS.Close()
	rawC.Close()
}

func TestParseClientHelloSNIRejectsNonTLS(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("GET / HTTP/1.1\r\n"),
		{0x16, 0x03, 0x01, 0x00, 0x05}, // wrong version
		bytes.Repeat([]byte{0xAA}, 64), // random high bytes
	}
	for _, c := range cases {
		if _, ok := ParseClientHelloSNI(c); ok {
			t.Errorf("ParseClientHelloSNI(%v) = ok", c[:min(8, len(c))])
		}
	}
}

func TestLooksLikeRecordHeader(t *testing.T) {
	if !LooksLikeRecordHeader([]byte{0x16, 0x03, 0x03, 0x00, 0x10}) {
		t.Error("valid handshake header not recognized")
	}
	if !LooksLikeRecordHeader([]byte{0x17, 0x03, 0x03, 0xFF, 0x00}) {
		t.Error("valid appdata header not recognized")
	}
	if LooksLikeRecordHeader([]byte{0x99, 0x03, 0x03, 0x00, 0x10}) {
		t.Error("bad type accepted")
	}
	if LooksLikeRecordHeader([]byte{0x16, 0x02, 0x03, 0x00, 0x10}) {
		t.Error("bad version accepted")
	}
}

func TestSNIParserNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = ParseClientHelloSNI(b)
		_ = LooksLikeRecordHeader(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSealOpenRoundTripProperty(t *testing.T) {
	client, server := handshakePair(t, Config{ServerName: "x"}, Config{})
	f := func(data []byte) bool {
		if len(data) == 0 || len(data) > MaxRecordPayload {
			return true
		}
		opened, err := server.open(client.sealRecord(RecordApplication, data)[5:])
		return err == nil && bytes.Equal(opened, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
