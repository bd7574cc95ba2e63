package netx

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
)

// chunkReader returns its data in reads of varying, seeded sizes.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
}

func (r *chunkReader) Read(b []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(b), len(r.data), 1+r.rng.Intn(50000))
	copy(b, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// recordingWriter keeps what it is given and the size of each write.
type recordingWriter struct {
	bytes.Buffer
	largest int
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	w.largest = max(w.largest, len(b))
	return w.Buffer.Write(b)
}

func TestCopyDeliversEverything(t *testing.T) {
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(1)).Read(data)
	var w recordingWriter
	n, err := Copy(&w, &chunkReader{data: data, rng: rand.New(rand.NewSource(2))})
	if err != nil || n != int64(len(data)) {
		t.Fatalf("Copy = %d, %v; want %d, nil", n, err, len(data))
	}
	if !bytes.Equal(w.Bytes(), data) {
		t.Fatal("copied bytes differ from the source")
	}
	if w.largest > copyBufferSize {
		t.Fatalf("largest write %d bytes, want at most %d", w.largest, copyBufferSize)
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(b []byte) (int, error) {
	if len(b) > w.after {
		return w.after, errors.New("disk full")
	}
	w.after -= len(b)
	return len(b), nil
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("reset") }

func TestCopyReportsErrors(t *testing.T) {
	src := bytes.NewReader(make([]byte, 100<<10))
	if n, err := Copy(&failingWriter{after: 40 << 10}, src); err == nil || n != 40<<10 {
		t.Errorf("write failure: Copy = %d, %v; want %d and the error", n, err, 40<<10)
	}
	if n, err := Copy(io.Discard, failingReader{}); err == nil || n != 0 {
		t.Errorf("read failure: Copy = %d, %v; want 0 and the error", n, err)
	}
}

// readFromTrap fails the test if a copy is handed to its ReadFrom.
type readFromTrap struct {
	io.Writer
	t *testing.T
}

func (w readFromTrap) ReadFrom(io.Reader) (int64, error) {
	w.t.Fatal("Copy delegated to io.ReaderFrom")
	return 0, nil
}

// writeToTrap fails the test if a copy is handed to its WriteTo.
type writeToTrap struct {
	io.Reader
	t *testing.T
}

func (r writeToTrap) WriteTo(io.Writer) (int64, error) {
	r.t.Fatal("Copy delegated to io.WriterTo")
	return 0, nil
}

func TestCopyIgnoresReaderFromAndWriterTo(t *testing.T) {
	data := bytes.Repeat([]byte("scholar"), 10000)
	var buf bytes.Buffer
	if n, err := Copy(readFromTrap{&buf, t}, &chunkReader{data: data, rng: rand.New(rand.NewSource(3))}); err != nil || n != int64(len(data)) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if n, err := Copy(&buf, writeToTrap{bytes.NewReader(data), t}); err != nil || n != int64(len(data)) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), append(data, data...)) {
		t.Fatal("copied bytes differ from the source")
	}
}

// sink discards writes and, unlike io.Discard, has no ReadFrom.
type sink struct{}

func (sink) Write(b []byte) (int, error) { return len(b), nil }

func TestCopyDoesNotAllocate(t *testing.T) {
	// A relay copy from a socket to a stream: *net.TCPConn implements
	// io.WriterTo, whose generic fallback allocates a 32 KiB buffer on
	// every io.Copy to a writer that is not itself a socket. After
	// warm-up Copy must take its buffer from the pool instead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()
	// Connect and accept everything up front, so only the copies and the
	// peer's writes run while allocations are counted.
	// One warm-up copy, then AllocsPerRun's own warm-up and its 100 runs.
	const runs = 100
	var clients, servers [runs + 2]net.Conn
	for i := range clients {
		if clients[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		if servers[i], err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
		defer servers[i].Close()
	}
	body := make([]byte, 256<<10)
	go func() {
		for _, c := range servers {
			c.Write(body)
			c.(*net.TCPConn).CloseWrite()
		}
	}()
	next := 0
	copyOne := func() {
		if n, err := Copy(sink{}, clients[next]); n != int64(len(body)) || err != nil {
			t.Fatalf("Copy = %d, %v", n, err)
		}
		next++
	}
	copyOne()
	if allocs := testing.AllocsPerRun(runs, copyOne); allocs != 0 {
		t.Errorf("%.1f allocations per relay copy, want 0", allocs)
	}
}
