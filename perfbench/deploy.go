package main

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scholarcloud"
)

// mode is how a deployment workload's clients talk to the proxy.
type mode int

const (
	// fresh: an absolute-URI GET on a new client connection per request.
	fresh mode = iota
	// tunnel: a CONNECT tunnel per client connection, carrying
	// origin-form GETs one after another.
	tunnel
	// keepAlive: absolute-URI GETs one after another on a persistent
	// client connection.
	keepAlive
)

// deployWorkload is one traffic mix against the real-socket deployment.
type deployWorkload struct {
	rate    float64 // offered load, requests per second
	mode    mode
	objects int // distinct objects at the origin
	size    int // body bytes per object
	zipf    bool
	cacheMB int
}

// connsInFlight caps the generator at two client connections, one per
// CPU of the two-core machine the ledger was set up on: the proxies, not
// the generator, should own the cores.
const connsInFlight = 2

// setupReps is how many times a run stands the system up to time it, and
// setupSpread the time those set-ups are spaced over. Interference on a
// shared host comes and goes within seconds; set-ups spaced out sample it
// evenly instead of all landing in one burst or one lull.
const (
	setupReps   = 161
	setupSpread = 4 * time.Second
)

// warmup runs the workload untimed before each measured phase, so client
// tunnels, the fleet's carrier pool, the cache and the Go heap reach a
// steady state; cache-zipf's latency still falls for about 2 s after the
// cache has filled.
const warmup = 3 * time.Second

var secret = []byte("perfbench-shared-secret")

// deployment is one origin + remote + domestic proxy on loopback.
type deployment struct {
	wl       deployWorkload
	objs     *objects
	origin   *origin
	remote   *scholarcloud.RemoteProxy
	domestic *scholarcloud.DomesticProxy
	// relay sits between domestic and remote in traced runs only.
	relay *countingRelay
	// clients holds each worker's persistent connection.
	clients [connsInFlight]*client
}

func startDeployment(wl deployWorkload, objs *objects, traced bool) (*deployment, error) {
	d := &deployment{wl: wl, objs: objs}
	var err error
	if d.origin, err = startOrigin(objs); err != nil {
		return nil, err
	}
	d.remote, err = scholarcloud.StartRemote(scholarcloud.RemoteConfig{
		Listen:      "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		Secret:      secret,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("start remote: %w", err)
	}
	remoteAddr := d.remote.Addr().String()
	if traced {
		if d.relay, err = startRelay(remoteAddr); err != nil {
			d.close()
			return nil, err
		}
		remoteAddr = d.relay.addr()
	}
	d.domestic, err = scholarcloud.StartDomestic(scholarcloud.DomesticConfig{
		ProxyListen: "127.0.0.1:0",
		WebListen:   "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		RemoteAddr:  remoteAddr,
		Secret:      secret,
		Whitelist:   []string{"127.0.0.1"},
		CacheMB:     wl.cacheMB,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("start domestic: %w", err)
	}
	return d, nil
}

func (d *deployment) close() {
	for i, c := range d.clients {
		c.close()
		d.clients[i] = nil
	}
	if d.domestic != nil {
		d.domestic.Close()
	}
	if d.relay != nil {
		d.relay.close()
	}
	if d.remote != nil {
		d.remote.Close()
	}
	if d.origin != nil {
		d.origin.close()
	}
}

// do runs one request on worker w.
func (d *deployment) do(w int, r request, sp *span, t0 time.Time) {
	proxy := d.domestic.ProxyAddr().String()
	host := d.origin.addr()
	want, crc := d.objs.bodies[r.key], d.objs.crcs[r.key]
	c := d.clients[w]
	if c == nil {
		var err error
		if c, err = dialClient(proxy); err != nil {
			sp.failure = failDial
			return
		}
		if d.wl.mode == tunnel {
			if err := c.connect(host); err != nil {
				c.close()
				sp.failure = classify(err)
				return
			}
		}
	}
	var err error
	switch d.wl.mode {
	case fresh:
		err = c.get("http://"+host+"/o/"+strconv.Itoa(r.key)+"/"+strconv.Itoa(r.id), host, "", want, crc, sp, t0)
		c.close()
		c = nil
	case tunnel:
		err = c.get("/o/"+strconv.Itoa(r.key)+"/"+strconv.Itoa(r.id), host, "", want, crc, sp, t0)
	case keepAlive:
		// The ID travels in a header: in the path it would make every
		// URL, and so every cache key, distinct.
		err = c.get("http://"+host+"/o/"+strconv.Itoa(r.key), host, "X-Bench-Id: "+strconv.Itoa(r.id)+"\r\n", want, crc, sp, t0)
	}
	if err != nil {
		sp.failure = classify(err)
		c.close()
		c = nil
	}
	d.clients[w] = c
}

// run drives reqs through the deployment open loop. With traceSpans set
// the origin records its receipt and write instants into the phase's
// spans.
func (d *deployment) run(reqs []request, traceSpans bool) (*phase, error) {
	if !traceSpans {
		return openLoop(reqs, connsInFlight, d.do, nil)
	}
	defer d.origin.trace.Store(nil)
	return openLoop(reqs, connsInFlight, d.do, func(spans []span, t0 time.Time) {
		d.origin.trace.Store(&originTrace{spans: spans, t0: t0})
	})
}

// verify sends one request and reports whether it came back a verified
// 200.
func (d *deployment) verify() error {
	var sp span
	d.do(0, request{id: -1, key: 0}, &sp, time.Now())
	if f := sp.failure; f != failNone {
		return fmt.Errorf("first request through the deployment failed: %s", failNames[f])
	}
	return nil
}

// scrapeAll reads both admin endpoints.
func (d *deployment) scrapeAll() (dom, rem map[string]float64, err error) {
	if dom, err = scrape(d.domestic.AdminAddr().String()); err != nil {
		return nil, nil, err
	}
	if rem, err = scrape(d.remote.AdminAddr().String()); err != nil {
		return nil, nil, err
	}
	return dom, rem, nil
}

// countingRelay is a zero-delay TCP relay between the domestic and remote
// proxies that counts the carrier's wire bytes in each direction.
type countingRelay struct {
	ln       net.Listener
	target   string
	up, down atomic.Int64
	mu       sync.Mutex
	conns    []net.Conn
	wg       sync.WaitGroup
}

func startRelay(target string) (*countingRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &countingRelay{ln: ln, target: target}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *countingRelay) addr() string { return r.ln.Addr().String() }

func (r *countingRelay) serve() {
	defer r.wg.Done()
	for {
		a, err := r.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", r.target)
		if err != nil {
			a.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, a, b)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(b, a, &r.up)
		go r.pipe(a, b, &r.down)
	}
}

func (r *countingRelay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	io.Copy(countingWriter{dst, n}, src)
	dst.Close()
	src.Close()
}

func (r *countingRelay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}
