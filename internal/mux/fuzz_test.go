package mux

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"

	"scholarcloud/internal/netx"
)

// The seed corpus lives in testdata/fuzz/FuzzSessionFrames. Run with
//
//	go test ./internal/mux -run '^$' -fuzz '^FuzzSessionFrames$' -fuzztime 30s
//
// (`make fuzz-smoke` runs every target briefly).

// waitSpawner runs goroutines that a WaitGroup can join.
type waitSpawner struct{ wg *sync.WaitGroup }

func (s waitSpawner) Go(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// openMetas returns the payloads of the OPEN frames in the longest
// prefix of in that a session reads before failing.
func openMetas(in []byte) [][]byte {
	var metas [][]byte
	for len(in) >= 9 {
		typ, n := in[0], binary.BigEndian.Uint32(in[5:9])
		if typ < frameOpen || typ > framePong || n > maxFramePayload || uint64(len(in)-9) < uint64(n) {
			break
		}
		if typ == frameOpen {
			metas = append(metas, in[9:9+n])
		}
		in = in[9+n:]
	}
	return metas
}

// FuzzSessionFrames feeds hostile bytes to a session's frame reader, as a
// remote proxy reads whatever connects to it. The carrier ending must end
// the session, never panic it, and every OPEN's metadata must reach the
// acceptor intact even though later frames reuse the read buffer.
func FuzzSessionFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		peer, carrier := net.Pipe()
		var wg sync.WaitGroup
		env := netx.RealEnv()
		env.Spawn = waitSpawner{&wg}
		var mu sync.Mutex
		var seen [][]byte
		sess := NewSession(carrier, env, func(meta []byte) (net.Conn, error) {
			mu.Lock()
			seen = append(seen, meta) // as given: it must not alias the read buffer
			mu.Unlock()
			return nil, errors.New("fuzz: rejected")
		})
		go io.Copy(io.Discard, peer)
		peer.Write(in)
		peer.Close()
		wg.Wait() // the read loop and every acceptor have returned

		if sess.Err() == nil {
			t.Fatal("session outlived its carrier")
		}
		want := openMetas(in)
		slices.SortFunc(seen, bytes.Compare)
		slices.SortFunc(want, bytes.Compare)
		if !slices.EqualFunc(seen, want, bytes.Equal) {
			t.Fatalf("acceptor saw OPEN metadata %q, want %q", seen, want)
		}
	})
}
