package mux

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"scholarcloud/internal/netx"
)

// detachedStream returns stream 1 of a session whose carrier never
// delivers a frame, so a test can dispatch frames to the stream directly
// and read them back without racing the read loop.
func detachedStream(t *testing.T) (*Session, *Stream) {
	a, b := net.Pipe()
	s := NewSession(a, netx.RealEnv(), nil)
	t.Cleanup(func() { s.Close(); b.Close() })
	s.mu.Lock()
	st := s.newStreamLocked(1)
	s.mu.Unlock()
	return s, st
}

func TestReceiveBufferMatchesContiguousBuffer(t *testing.T) {
	// Random DATA frames and Read sizes: every Read must return the same
	// n and bytes as a read from one contiguous buffer (bytes.Buffer),
	// whatever the chunk boundaries. Each frame arrives in the same
	// payload slice, scribbled over after dispatch, as the read loop
	// reuses its buffer.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, st := detachedStream(t)
		var ref bytes.Buffer
		frame := make([]byte, maxFramePayload)
		next := byte(0)
		for op := 0; op < 400; op++ {
			if ref.Len() == 0 || (rng.Intn(2) == 0 && ref.Len() < 1<<20) {
				n := rng.Intn(maxFramePayload + 1)
				if rng.Intn(3) == 0 {
					n = rng.Intn(64)
				}
				p := frame[:n]
				for i := range p {
					p[i] = next
					next++
				}
				s.dispatch(frameData, 1, p)
				ref.Write(p)
				for i := range p {
					p[i] = 0xEE
				}
				continue
			}
			b := make([]byte, rng.Intn(3*maxFramePayload))
			want := make([]byte, len(b))
			wn, _ := ref.Read(want)
			n, err := st.Read(b)
			if err != nil || n != wn || !bytes.Equal(b[:n], want[:wn]) {
				t.Fatalf("seed %d op %d: Read(%d) = %d, %v; want %d bytes matching the reference",
					seed, op, len(b), n, err, wn)
			}
		}
		if s.Err() != nil {
			t.Fatalf("seed %d: session failed: %v", seed, s.Err())
		}
	}
}

func TestDrainedStreamReleasesChunks(t *testing.T) {
	// A stream filled to maxStreamBuffer and read dry holds no data
	// chunk afterwards: every chunk went back to the pool, and only the
	// chunk index (a slice header per 32 KiB buffered at the peak, about
	// 4 KiB at the bound) is retained.
	s, st := detachedStream(t)
	frame := bytes.Repeat([]byte{0x5A}, maxFramePayload)
	for range maxStreamBuffer / maxFramePayload {
		s.dispatch(frameData, 1, frame)
	}
	if s.Err() != nil || st.rxLen != maxStreamBuffer {
		t.Fatalf("buffered %d bytes, err %v; want %d, nil", st.rxLen, s.Err(), maxStreamBuffer)
	}
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, 100<<10)
	total := 0
	for total < maxStreamBuffer {
		n, err := st.Read(b[:1+rng.Intn(len(b))])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if st.rxLen != 0 || len(st.rx) != 0 {
		t.Fatalf("drained stream reports %d bytes in %d chunks", st.rxLen, len(st.rx))
	}
	for i, c := range st.rx[:cap(st.rx)] {
		if c != nil {
			t.Fatalf("chunk index slot %d still pins a %d-byte chunk", i, cap(c))
		}
	}
	if idx := cap(st.rx); idx > 2*maxStreamBuffer/maxFramePayload {
		t.Fatalf("chunk index holds %d slots", idx)
	}
}

func TestStreamBufferOverflowFailsSession(t *testing.T) {
	// Exactly maxStreamBuffer undelivered bytes are accepted; one more
	// byte fails the session.
	s, _ := detachedStream(t)
	frame := make([]byte, maxFramePayload)
	for range maxStreamBuffer / maxFramePayload {
		s.dispatch(frameData, 1, frame)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("session failed at the bound: %v", err)
	}
	s.dispatch(frameData, 1, frame[:1])
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "buffer overflow") {
		t.Fatalf("err = %v, want a buffer overflow", err)
	}
}

func TestStreamRoundTripDoesNotAllocate(t *testing.T) {
	// A warmed stream over net.Pipe: writing a 32 KiB frame through the
	// echo peer and reading it back allocates nothing — frames are built
	// in the session's scratch buffer, read into its reused read buffer,
	// queued in pooled chunks and relayed through pooled copy buffers.
	client, server := realPair(echoAcceptor)
	defer client.Close()
	defer server.Close()
	st, err := client.Open([]byte("echo.example:7"))
	if err != nil {
		t.Fatal(err)
	}
	out := bytes.Repeat([]byte{0xA7}, maxFramePayload)
	in := make([]byte, maxFramePayload)
	roundTrip := func() {
		if _, err := st.Write(out); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(st, in); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("%.1f allocations per 32 KiB round trip, want 0", allocs)
	}
	if !bytes.Equal(in, out) {
		t.Error("echoed frame differs from the one sent")
	}
}
