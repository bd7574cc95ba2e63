package tlssim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// The seed corpora live in testdata/fuzz/<target>. Run a target with
//
//	go test ./internal/tlssim -run '^$' -fuzz '^FuzzServerHandshake$' -fuzztime 30s
//
// (`make fuzz-smoke` runs every target briefly).

// fuzzName is the server name of the session every fuzzed server holds.
const fuzzName = "remote.scholarcloud.example"

// fuzzSessionID and fuzzMaster are the session every fuzzed server holds,
// so the corpus can reach the abbreviated handshake.
var (
	fuzzSessionID = bytes.Repeat([]byte{0x5A}, sessionIDLen)
	fuzzMaster    = bytes.Repeat([]byte{0xA5}, 32)
)

// fuzzServerConfig returns a server config with seeded randomness and a
// cache holding the fuzz session, so a recorded client flight replays.
func fuzzServerConfig() Config {
	clk := newFakeClock()
	sc := NewSessionCache(clk.now)
	sc.put(string(fuzzSessionID), &session{id: fuzzSessionID, master: fuzzMaster, name: fuzzName})
	return Config{Certificate: []byte("identity"), Rand: &seededRand{key: 3}, Sessions: sc}
}

// FuzzParseClientHelloSNI feeds hostile bytes to the parse the GFW runs
// on the first bytes of every client-to-server stream.
func FuzzParseClientHelloSNI(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		sni, ok := ParseClientHelloSNI(b)
		if !ok {
			if sni != "" {
				t.Fatalf("rejected hello yielded SNI %q", sni)
			}
			return
		}
		// [record header 5][type 1][random 32][sniLen 2][sni]
		if b[0] != RecordHandshake || len(b) < 40+len(sni) || string(b[40:40+len(sni)]) != sni {
			t.Fatalf("SNI %q does not come from the hello's SNI field", sni)
		}
	})
}

// FuzzServerHandshake plays hostile client bytes at a server that holds
// a resumable session: ClientHellos with and without the session-ID
// field, key shares and Finished records. The handshake must end once
// the input does, and the server must read the same SNI the GFW does.
func FuzzServerHandshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		client, raw := net.Pipe()
		defer raw.Close()
		raw.SetDeadline(time.Now().Add(2 * time.Second))
		go io.Copy(io.Discard, client)
		go func() {
			client.Write(in)
			client.Close()
		}()
		server := Server(raw, fuzzServerConfig())
		err := server.Handshake()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("handshake outlived its input: %v", err)
		}
		if sni, ok := ParseClientHelloSNI(in); ok && int(in[3])<<8|int(in[4]) <= MaxRecordPayload+64 {
			if got := server.ServerName(); got != sni {
				t.Fatalf("server read SNI %q, the GFW's parse %q", got, sni)
			}
		}
		if err == nil && server.Resumed() && server.ServerName() != fuzzName {
			t.Fatalf("resumed the %q session under SNI %q", fuzzName, server.ServerName())
		}
	})
}
