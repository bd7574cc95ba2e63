package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark speaks HTTP/1.1 with its own few lines of client and
// origin code rather than the program's httpsim package, so a change to
// httpsim moves only the proxies' share of the measurement.

// requestTimeout bounds every request: a response not complete by then
// counts as a read timeout.
const requestTimeout = 5 * time.Second

// objects is the origin's content: object k's body is drawn from a PRNG
// seeded with (seed, k), so a body's checksum follows from its path and
// the benchmark seed alone.
type objects struct {
	bodies [][]byte
	crcs   []uint32
}

func makeObjects(seed uint64, n, size int) *objects {
	o := &objects{bodies: make([][]byte, n), crcs: make([]uint32, n)}
	for k := range o.bodies {
		rng := rand.New(rand.NewPCG(seed, uint64(k)))
		b := make([]byte, size)
		for i := 0; i+8 <= size; i += 8 {
			v := rng.Uint64()
			for j := 0; j < 8; j++ {
				b[i+j] = byte(v >> (8 * j))
			}
		}
		o.bodies[k], o.crcs[k] = b, crc32.ChecksumIEEE(b)
	}
	return o
}

// origin is the benchmark-owned web server behind the proxies. It answers
// GET /o/<key>[/<id>] with object key, taking the request ID from the path
// or, when the path has none, from the X-Bench-Id header.
type origin struct {
	ln   net.Listener
	objs *objects
	// trace, when set, receives the origin's receipt and write instants
	// for the request IDs that index its spans, relative to its t0.
	trace atomic.Pointer[originTrace]

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

type originTrace struct {
	spans []span
	t0    time.Time
}

func startOrigin(objs *objects) (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin listen: %w", err)
	}
	o := &origin{ln: ln, objs: objs, conns: map[net.Conn]struct{}{}}
	o.wg.Add(1)
	go o.serve()
	return o, nil
}

func (o *origin) addr() string { return o.ln.Addr().String() }

func (o *origin) serve() {
	defer o.wg.Done()
	for {
		c, err := o.ln.Accept()
		if err != nil {
			return
		}
		o.mu.Lock()
		if o.conns == nil {
			o.mu.Unlock()
			c.Close()
			return
		}
		o.conns[c] = struct{}{}
		o.wg.Add(1)
		o.mu.Unlock()
		go o.serveConn(c)
	}
}

// close stops the origin and waits for its connections to end.
func (o *origin) close() {
	o.ln.Close()
	o.mu.Lock()
	for c := range o.conns {
		c.Close()
	}
	o.conns = nil
	o.mu.Unlock()
	o.wg.Wait()
}

func (o *origin) serveConn(c net.Conn) {
	defer o.wg.Done()
	defer func() {
		o.mu.Lock()
		if o.conns != nil {
			delete(o.conns, c)
		}
		o.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReader(c)
	bw := bufio.NewWriterSize(c, 4096)
	for {
		path, id, err := readRequestHead(br)
		if err != nil {
			return
		}
		tr := o.trace.Load()
		var sp *span
		if tr != nil && id >= 0 && id < len(tr.spans) {
			sp = &tr.spans[id]
			sp.originRecv.Store(int64(time.Since(tr.t0)))
		}
		key, ok := objectKey(path, len(o.objs.bodies))
		if !ok {
			fmt.Fprintf(bw, "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
			if bw.Flush() != nil {
				return
			}
			continue
		}
		body := o.objs.bodies[key]
		if sp != nil {
			sp.originWrite.Store(int64(time.Since(tr.t0)))
		}
		fmt.Fprintf(bw, "HTTP/1.1 200 OK\r\nCache-Control: max-age=3600\r\nContent-Length: %d\r\n\r\n", len(body))
		bw.Write(body)
		if bw.Flush() != nil {
			return
		}
	}
}

// readRequestHead reads one request head and returns its path and the
// request ID it carries (-1 when it carries none).
func readRequestHead(br *bufio.Reader) (path string, id int, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return "", -1, err
	}
	f := strings.Fields(string(line))
	if len(f) != 3 {
		return "", -1, fmt.Errorf("bad request line %q", line)
	}
	path, id = f[1], pathID(f[1])
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return "", -1, err
		}
		if len(h) <= 2 {
			return path, id, nil
		}
		if v, ok := strings.CutPrefix(string(h), "X-Bench-Id: "); ok && id < 0 {
			if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
				id = n
			}
		}
	}
}

// objectKey parses /o/<key>[/<id>] (or an absolute URI ending in it).
func objectKey(path string, n int) (int, bool) {
	i := strings.Index(path, "/o/")
	if i < 0 {
		return 0, false
	}
	rest := path[i+3:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	k, err := strconv.Atoi(rest)
	return k, err == nil && k >= 0 && k < n
}

// pathID parses the request ID of /o/<key>/<id>, or -1.
func pathID(path string) int {
	i := strings.Index(path, "/o/")
	if i < 0 {
		return -1
	}
	_, idStr, ok := strings.Cut(path[i+3:], "/")
	if !ok {
		return -1
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return -1
	}
	return id
}

// client is one client connection of the load generator.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dialClient(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	return &client{conn: c, br: bufio.NewReaderSize(c, 32<<10)}, nil
}

func (c *client) close() {
	if c != nil && c.conn != nil {
		c.conn.Close()
	}
}

// errStatus reports a non-200 response.
type errStatus int

func (e errStatus) Error() string { return "status " + strconv.Itoa(int(e)) }

var errWrongBody = errors.New("wrong body")

// get sends one GET with the given request target and Host, reads the
// response, and checks it is a 200 whose body is exactly want. The client
// fields of sp are filled in relative to t0.
func (c *client) get(target, host, extra string, want []byte, wantCRC uint32, sp *span, t0 time.Time) error {
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	sp.send = int64(time.Since(t0))
	if _, err := fmt.Fprintf(c.conn, "GET %s HTTP/1.1\r\nHost: %s\r\n%s\r\n", target, host, extra); err != nil {
		return err
	}
	if _, err := c.br.Peek(1); err != nil {
		return err
	}
	sp.first = int64(time.Since(t0))
	status, n, err := readResponseHead(c.br)
	if err != nil {
		return err
	}
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	body := c.body[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return err
	}
	sp.last = int64(time.Since(t0))
	if status != 200 {
		return errStatus(status)
	}
	if n != len(want) || crc32.ChecksumIEEE(body) != wantCRC {
		return errWrongBody
	}
	return nil
}

// connect opens a CONNECT tunnel to target through the proxy.
func (c *client) connect(target string) error {
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := fmt.Fprintf(c.conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n\r\n", target, target); err != nil {
		return err
	}
	status, n, err := readResponseHead(c.br)
	if err != nil {
		return err
	}
	if _, err := c.br.Discard(n); err != nil {
		return err
	}
	if status != 200 {
		return errStatus(status)
	}
	return nil
}

// readResponseHead reads a status line and headers, returning the status
// and Content-Length.
func readResponseHead(br *bufio.Reader) (status, length int, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	f := strings.Fields(string(line))
	if len(f) < 2 {
		return 0, 0, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(f[1]); err != nil {
		return 0, 0, fmt.Errorf("bad status line %q", line)
	}
	length = -1
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		if len(h) <= 2 {
			break
		}
		if v, ok := strings.CutPrefix(string(h), "Content-Length: "); ok {
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return 0, 0, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, 0, errors.New("response without Content-Length")
	}
	return status, length, nil
}

// classify maps a request error to its error_rate category.
func classify(err error) failKind {
	var st errStatus
	var ne net.Error
	switch {
	case err == nil:
		return failNone
	case errors.Is(err, errWrongBody):
		return failWrongBody
	case errors.As(err, &st):
		return failStatus
	case errors.As(err, &ne) && ne.Timeout():
		return failTimeout
	default: // EOF or a reset before the whole response arrived
		return failShort
	}
}

// httpGet fetches path from a plain HTTP server (the admin listeners).
func httpGet(addr, path string) ([]byte, error) {
	c, err := dialClient(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := fmt.Fprintf(c.conn, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, addr); err != nil {
		return nil, err
	}
	status, n, err := readResponseHead(c.br)
	if err != nil {
		return nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, errStatus(status)
	}
	return body, nil
}
