package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"time"

	"scholarcloud/internal/blinding"
	"scholarcloud/internal/cache"
	"scholarcloud/internal/fleet"
	"scholarcloud/internal/gfw"
	"scholarcloud/internal/httpsim"
	"scholarcloud/internal/metrics"
	"scholarcloud/internal/mux"
	"scholarcloud/internal/netsim"
	"scholarcloud/internal/netx"
	"scholarcloud/internal/pki"
	"scholarcloud/internal/tlssim"
	"scholarcloud/internal/vclock"
)

// The layer microbenchmarks call each layer's public functions at the sizes the
// workloads use — 2 KiB (http-fresh), 32 KiB (cache-zipf), 256 KiB
// (connect-bulk) — and report time, bytes allocated and allocations per
// operation. They run in every traced run, after the workload.
var microMetrics = []metricDef{
	{"tlssim.handshake_us", "us"},
	{"tlssim.handshake_bytes", "B"},
	{"tlssim.handshake_allocs", "count"},
	{"tlssim.record_ns_per_kb", "ns/KiB"},
	{"tlssim.record_bytes", "B"},
	{"tlssim.record_allocs", "count"},
	{"mux.open_us", "us"},
	{"mux.open_bytes", "B"},
	{"mux.open_allocs", "count"},
	{"mux.stream_mbps", "MB/s"},
	{"mux.stream_bytes", "B"},
	{"mux.allocs_per_frame", "count"},
	{"blinding.apply_ns_per_kb", "ns/KiB"},
	{"blinding.apply_bytes", "B"},
	{"blinding.apply_allocs", "count"},
	{"httpsim.read_request_ns", "ns"},
	{"httpsim.read_request_bytes", "B"},
	{"httpsim.read_request_allocs", "count"},
	{"httpsim.encode_ns_per_kb", "ns/KiB"},
	{"httpsim.encode_bytes", "B"},
	{"httpsim.encode_allocs", "count"},
	{"httpsim.relay_ns_per_kb", "ns/KiB"},
	{"httpsim.relay_bytes_alloc_per_mb", "B"},
	{"httpsim.relay_allocs", "count"},
	{"cache.hit_ns", "ns"},
	{"cache.hit_bytes", "B"},
	{"cache.hit_allocs", "count"},
	{"cache.insert_ns", "ns"},
	{"cache.insert_bytes", "B"},
	{"cache.insert_allocs", "count"},
	{"fleet.open_us", "us"},
	{"fleet.open_bytes", "B"},
	{"fleet.open_allocs", "count"},
	{"vclock.event_ns", "ns"},
	{"vclock.event_bytes", "B"},
	{"vclock.event_allocs", "count"},
	{"netsim.transfer_ns_per_kb", "ns/KiB"},
	{"netsim.transfer_bytes", "B"},
	{"netsim.transfer_allocs", "count"},
	{"gfw.inspect_ns", "ns"},
	{"gfw.inspect_bytes", "B"},
	{"gfw.inspect_allocs", "count"},
	{"gfw.inspect_data_ns", "ns"},
	{"gfw.inspect_data_bytes", "B"},
	{"gfw.inspect_data_allocs", "count"},
}

// opCost is what one operation of a layer microbenchmark cost.
type opCost struct {
	ns     float64 // median over batches
	bytes  float64 // heap bytes allocated, mean over all operations
	allocs float64 // heap allocations, mean over all operations
}

// timeOp runs op batches × iters times. Allocation counts cover every
// goroutine, so a microbenchmark's background goroutines count toward
// its layer.
func timeOp(batches, iters int, op func()) opCost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per := make([]float64, batches)
	for b := range per {
		t := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		per[b] = float64(time.Since(t).Nanoseconds()) / float64(iters)
	}
	runtime.ReadMemStats(&m1)
	n := float64(batches * iters)
	return opCost{
		ns:     median(per),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
	}
}

// microbench is one layer's measurement.
type microbench struct {
	name string
	run  func(rep *report) error
}

var microbenches = []microbench{
	{"tlssim", benchTLS},
	{"mux", benchMux},
	{"blinding", benchBlinding},
	{"httpsim", benchHTTP},
	{"cache", benchCache},
	{"fleet", benchFleet},
	{"vclock", benchVclock},
	{"netsim", benchNetsim},
	{"gfw", benchGFW},
}

func runMicrobenches(rep *report) error {
	for _, d := range microbenches {
		if err := d.run(rep); err != nil {
			return fmt.Errorf("%s microbenchmark: %w", d.name, err)
		}
	}
	return nil
}

// setCost reports c under prefix: its time as prefix+timeName in units
// of unitNs nanoseconds (1 for ns, 1e3 for µs, 32 for ns per KiB of a
// 32 KiB operation), its bytes and allocations per operation.
func setCost(rep *report, prefix, timeName string, c opCost, unitNs float64) {
	rep.set(prefix+timeName, c.ns/unitNs)
	rep.set(prefix+"_bytes", c.bytes)
	rep.set(prefix+"_allocs", c.allocs)
}

// firstErr keeps the first error a microbenchmark's operations hit.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if f.err == nil && err != nil {
		f.err = err
	}
}

func payload(n int) []byte {
	return makeObjects(7, 1, n).bodies[0]
}

const remoteName = "remote.scholarcloud.example"

func benchTLS(rep *report) error {
	ca, err := pki.NewCA("perfbench CA", nil, nil)
	if err != nil {
		return err
	}
	id, err := ca.Issue(remoteName, true)
	if err != nil {
		return err
	}
	var fe firstErr
	hs := timeOp(5, 40, func() {
		a, b := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- tlssim.Server(b, tlssim.Config{Certificate: id.DER}).Handshake() }()
		if err := tlssim.Client(a, tlssim.Config{ServerName: remoteName}).Handshake(); err != nil {
			fe.keep(err)
			a.Close() // unblocks the server half
		}
		fe.keep(<-done)
		a.Close()
		b.Close()
	})
	rep.set("tlssim.handshake_us", hs.ns/1e3)
	rep.set("tlssim.handshake_bytes", hs.bytes)
	rep.set("tlssim.handshake_allocs", hs.allocs)

	// Records: one 32 KiB write read back in full by the peer.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cli, srv := tlssim.Client(a, tlssim.Config{ServerName: remoteName}), tlssim.Server(b, tlssim.Config{Certificate: id.DER})
	done := make(chan error, 1)
	go func() { done <- srv.Handshake() }()
	if err := cli.Handshake(); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	msg := payload(32 << 10)
	got := make(chan struct{})
	go func() {
		// Ends when the deferred Close of the pipe fails the read.
		buf := make([]byte, len(msg))
		for {
			if _, err := io.ReadFull(srv, buf); err != nil {
				return
			}
			got <- struct{}{}
		}
	}()
	rec := timeOp(5, 40, func() {
		_, err := cli.Write(msg)
		fe.keep(err)
		if err == nil {
			<-got
		}
	})
	setCost(rep, "tlssim.record", "_ns_per_kb", rec, 32)
	return fe.err
}

// muxPair is a client and server mux session over a loopback TCP
// connection. The server's acceptor answers meta "bulk" with a stream
// that delivers 256 KiB and closes; any other meta with a stream that
// closes at once.
type muxPair struct {
	cli, srv *mux.Session
	frames   metrics.Counter
}

func newMuxPair(bulk []byte) (*muxPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	sc, ok := <-accepted
	if !ok {
		cc.Close()
		return nil, errors.New("accept failed")
	}
	env := netx.RealEnv()
	p := &muxPair{}
	p.srv = mux.NewSession(sc, env, muxAcceptor(bulk))
	p.cli = mux.NewSession(cc, env, nil)
	p.cli.SetCounters(&mux.Counters{FramesIn: &p.frames, FramesOut: &p.frames, Keepalives: new(metrics.Counter)})
	return p, nil
}

func muxAcceptor(bulk []byte) mux.Acceptor {
	return func(meta []byte) (net.Conn, error) {
		up, down := net.Pipe()
		go func() {
			if string(meta) == "bulk" {
				down.Write(bulk)
			}
			down.Close()
		}()
		return up, nil
	}
}

func (p *muxPair) close() {
	p.cli.Close()
	p.srv.Close()
}

// fetchBulk opens a "bulk" stream on open and reads it to its end.
func fetchBulk(open func([]byte) (net.Conn, error), want int) error {
	st, err := open([]byte("bulk"))
	if err != nil {
		return err
	}
	defer st.Close()
	n, err := io.Copy(io.Discard, st)
	if err != nil {
		return err
	}
	if int(n) != want {
		return fmt.Errorf("stream delivered %d bytes, want %d", n, want)
	}
	return nil
}

func benchMux(rep *report) error {
	bulk := payload(256 << 10)
	p, err := newMuxPair(bulk)
	if err != nil {
		return err
	}
	defer p.close()
	var fe firstErr
	open := timeOp(5, 100, func() {
		st, err := p.cli.Open([]byte("open"))
		fe.keep(err)
		if err == nil {
			st.Close()
		}
	})
	rep.set("mux.open_us", open.ns/1e3)
	rep.set("mux.open_bytes", open.bytes)
	rep.set("mux.open_allocs", open.allocs)

	openStream := func(meta []byte) (net.Conn, error) { return p.cli.Open(meta) }
	const batches, iters = 5, 10
	f0 := p.frames.Value()
	st := timeOp(batches, iters, func() { fe.keep(fetchBulk(openStream, len(bulk))) })
	frames := float64(p.frames.Value()-f0) / (batches * iters)
	rep.set("mux.stream_mbps", float64(len(bulk))/st.ns*1e3)
	rep.set("mux.stream_bytes", st.bytes)
	rep.set("mux.allocs_per_frame", st.allocs/frames)
	rep.notef("mux 256 KiB stream: %.1f client-side frames per stream", frames)
	return fe.err
}

func benchBlinding(rep *report) error {
	src := payload(32 << 10)
	dst := make([]byte, len(src))
	enc := blinding.SchemeForEpoch(secret, 0).NewEncoder()
	c := timeOp(5, 200, func() { enc.Apply(dst, src) })
	setCost(rep, "blinding.apply", "_ns_per_kb", c, 32)
	return nil
}

func benchHTTP(rep *report) error {
	var fe firstErr
	head := []byte("GET http://127.0.0.1:8080/o/17 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nX-Bench-Id: 12345\r\n\r\n")
	rd := bytes.NewReader(head)
	br := bufio.NewReader(rd)
	rr := timeOp(5, 2000, func() {
		rd.Reset(head)
		br.Reset(rd)
		_, err := httpsim.ReadRequest(br)
		fe.keep(err)
	})
	setCost(rep, "httpsim.read_request", "_ns", rr, 1)

	resp := httpsim.NewResponse(200, payload(32<<10))
	resp.Header["Cache-Control"] = "max-age=3600"
	enc := timeOp(5, 200, func() { fe.keep(resp.Encode(io.Discard)) })
	setCost(rep, "httpsim.encode", "_ns_per_kb", enc, 32)

	// Relay: 256 KiB from one pipe to another, as a CONNECT tunnel moves
	// a bulk response.
	bulk := payload(256 << 10)
	relay := timeOp(5, 10, func() {
		c1, a := net.Pipe()
		b, c2 := net.Pipe()
		go func() {
			c1.Write(bulk)
			c1.Close()
		}()
		got := make(chan int64, 1)
		go func() {
			n, _ := io.Copy(io.Discard, c2)
			got <- n
		}()
		httpsim.Relay(netx.GoSpawner{}, a, b)
		if n := <-got; n != int64(len(bulk)) {
			fe.keep(fmt.Errorf("relay delivered %d bytes, want %d", n, len(bulk)))
		}
	})
	rep.set("httpsim.relay_ns_per_kb", relay.ns/256)
	rep.set("httpsim.relay_bytes_alloc_per_mb", relay.bytes*4)
	rep.set("httpsim.relay_allocs", relay.allocs)
	return fe.err
}

func benchCache(rep *report) error {
	c, err := cache.New(netx.RealEnv(), cache.Options{Capacity: 4 << 20})
	if err != nil {
		return err
	}
	resp := httpsim.NewResponse(200, payload(32<<10))
	resp.Header["Cache-Control"] = "max-age=3600"
	fetch := func(map[string]string) (*httpsim.Response, error) { return resp, nil }
	var fe firstErr
	if _, _, err := c.Fetch("http://127.0.0.1:8080/o/0", fetch); err != nil {
		return err
	}
	hit := timeOp(5, 2000, func() {
		_, out, err := c.Fetch("http://127.0.0.1:8080/o/0", fetch)
		fe.keep(err)
		if out != cache.Hit {
			fe.keep(fmt.Errorf("resident key answered %s, want hit", out))
		}
	})
	setCost(rep, "cache.hit", "_ns", hit, 1)

	const batches, iters = 5, 400
	keys := make([]string, batches*iters)
	for i := range keys {
		keys[i] = "http://127.0.0.1:8080/o/" + strconv.Itoa(i+1)
	}
	next := 0
	ins := timeOp(batches, iters, func() {
		_, out, err := c.Fetch(keys[next], fetch)
		next++
		fe.keep(err)
		if out != cache.Miss {
			fe.keep(fmt.Errorf("new key answered %s, want miss", out))
		}
	})
	setCost(rep, "cache.insert", "_ns", ins, 1)
	return fe.err
}

func benchFleet(rep *report) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	env := netx.RealEnv()
	go func() {
		// Each remote session ends when the pool closes its carrier.
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mux.NewSession(c, env, muxAcceptor(nil))
		}
	}()
	addr := ln.Addr().String()
	pool, err := fleet.New(fleet.Config{
		Env:        env,
		NewSession: func(raw net.Conn) *mux.Session { return mux.NewSession(raw, env, nil) },
	}, []fleet.Endpoint{{Name: addr, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }}})
	if err != nil {
		return err
	}
	defer pool.Close()
	var fe firstErr
	open := func() {
		st, err := pool.Open([]byte("open"))
		fe.keep(err)
		if err == nil {
			st.Close()
		}
	}
	open() // dials the pool's carriers
	c := timeOp(5, 100, open)
	setCost(rep, "fleet.open", "_us", c, 1e3)
	return fe.err
}

func benchVclock(rep *report) error {
	const events = 1000
	s := vclock.New()
	defer s.Stop()
	fn := func() {}
	c := timeOp(5, 20, func() {
		for i := 0; i < events; i++ {
			s.Event(time.Duration(i)*time.Microsecond, fn)
		}
		s.Wait()
	})
	rep.set("vclock.event_ns", c.ns/events)
	rep.set("vclock.event_bytes", c.bytes/events)
	rep.set("vclock.event_allocs", c.allocs/events)
	return nil
}

// benchNetsim moves 1 MiB writes through a simulated lossy border link
// (the shape of the paper's China–US path) and reports the wall time the
// simulator spends per KiB.
func benchNetsim(rep *report) error {
	n := netsim.New(1)
	defer n.Stop()
	cn, us := n.AddZone("cn"), n.AddZone("us")
	n.Connect(cn, us, netsim.LinkConfig{Delay: 73 * time.Millisecond, Bandwidth: 125e6, BaseLoss: 0.002})
	client := n.AddHost("client", "10.0.0.2", cn, netsim.LinkConfig{Delay: 2 * time.Millisecond, Bandwidth: 12.5e6})
	server := n.AddHost("server", "8.8.4.4", us, netsim.LinkConfig{Delay: 2 * time.Millisecond, Bandwidth: 12.5e6})
	ln, err := server.Listen("tcp", ":80")
	if err != nil {
		return err
	}
	sched := n.Scheduler()
	sched.Go(func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sched.Go(func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			})
		}
	})
	chunk := payload(1 << 20)
	done := make(chan error, 1)
	var c opCost
	sched.Go(func() {
		conn, err := client.DialTCP("8.8.4.4:80")
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		var fe firstErr
		c = timeOp(5, 2, func() {
			_, err := conn.Write(chunk)
			fe.keep(err)
		})
		done <- fe.err
	})
	if err := <-done; err != nil {
		return err
	}
	setCost(rep, "netsim.transfer", "_ns_per_kb", c, 1024)
	return nil
}

func benchGFW(rep *report) error {
	hello, err := clientHello()
	if err != nil {
		return err
	}
	g := gfw.New(gfw.Config{Seed: 1})
	const batches, iters = 5, 4000
	port := 1024
	pkt := netsim.Packet{Proto: netsim.ProtoTCP, Dst: netsim.AddrPort{IP: "203.0.113.5", Port: 443}, ACK: true}
	ch := timeOp(batches, iters, func() {
		p := pkt
		p.Src = netsim.AddrPort{IP: "10.0.0.2", Port: port}
		p.Payload, p.Wire = hello, len(hello)+40
		port++
		g.Inspect(&p)
	})
	setCost(rep, "gfw.inspect", "_ns", ch, 1)

	data := payload(1400)
	p := pkt
	p.Src = netsim.AddrPort{IP: "10.0.0.3", Port: 40000}
	p.Payload, p.Wire = hello, len(hello)+40
	g.Inspect(&p)
	p.Payload, p.Wire = data, len(data)+40
	dc := timeOp(batches, iters, func() { g.Inspect(&p) })
	setCost(rep, "gfw.inspect_data", "_ns", dc, 1)
	return nil
}

// clientHello captures the first record tlssim's client handshake sends.
func clientHello() ([]byte, error) {
	a, b := net.Pipe()
	defer a.Close()
	go tlssim.Client(a, tlssim.Config{ServerName: "scholar.google.com"}).Handshake()
	buf := make([]byte, 4096)
	b.SetReadDeadline(time.Now().Add(requestTimeout))
	n, err := b.Read(buf)
	b.Close()
	if err != nil {
		return nil, err
	}
	if _, ok := tlssim.ParseClientHelloSNI(buf[:n]); !ok {
		return nil, errors.New("captured bytes are not a ClientHello")
	}
	return buf[:n], nil
}
