package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scholarcloud/internal/obs"
)

// stallServer answers each one-byte request with one byte. The first
// request that arrives after stallAfter freezes the whole server for
// stallFor: every response, on every connection, waits until the stall
// ends.
type stallServer struct {
	ln                   net.Listener
	start                time.Time
	stallAfter, stallFor time.Duration

	mu       sync.Mutex
	stallEnd time.Time
}

func startStallServer(t *testing.T, after, stall time.Duration) *stallServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stallServer{ln: ln, start: time.Now(), stallAfter: after, stallFor: stall}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(c)
		}
	}()
	return s
}

func (s *stallServer) serve(c net.Conn) {
	defer c.Close()
	b := make([]byte, 1)
	for {
		if _, err := io.ReadFull(c, b); err != nil {
			return
		}
		s.mu.Lock()
		if s.stallEnd.IsZero() && time.Since(s.start) >= s.stallAfter {
			s.stallEnd = time.Now().Add(s.stallFor)
		}
		end := s.stallEnd
		s.mu.Unlock()
		time.Sleep(time.Until(end))
		if _, err := c.Write(b); err != nil {
			return
		}
	}
}

// TestOpenLoopChargesStallToEveryRequestDueDuringIt guards against
// coordinated omission: when the server stalls for 200 ms, every request
// that fell due during the stall must be charged the time it waited, not
// just the time from when a worker finally sent it.
func TestOpenLoopChargesStallToEveryRequestDueDuringIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := startStallServer(t, 300*time.Millisecond, stall)
	conns := make([]net.Conn, connsInFlight)
	for i := range conns {
		c, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	reqs := schedule(1, streamMeasured, 200, time.Second, uniformKeys(1))
	var t0 time.Time
	p, err := openLoop(reqs, connsInFlight, func(w int, r request, sp *span, start time.Time) {
		b := []byte{1}
		sp.send = int64(time.Since(start))
		if _, err := conns[w].Write(b); err != nil {
			sp.failure = failShort
			return
		}
		if _, err := io.ReadFull(conns[w], b); err != nil {
			sp.failure = failShort
		}
	}, func(_ []span, start time.Time) { t0 = start })
	if err != nil {
		t.Fatal(err)
	}
	lat, failed := p.latencies()
	if len(lat) != len(reqs) {
		t.Fatalf("%d latencies for %d requests (failures %v): requests were omitted", len(lat), len(reqs), failed)
	}
	srv.mu.Lock()
	stallStart, stallEnd := srv.stallEnd.Add(-stall).Sub(t0), srv.stallEnd.Sub(t0)
	srv.mu.Unlock()
	during, sentLate := 0, 0
	for i, r := range reqs {
		if r.due < stallStart || r.due >= stallEnd {
			continue
		}
		during++
		want := float64(stallEnd-r.due) / 1e6
		if lat[i] < want-0.5 {
			t.Errorf("request due %v into the stall: latency %.2f ms, want at least %.2f ms", r.due-stallStart, lat[i], want)
		}
		// Timed from the send instead, this request would look fast.
		if sent := time.Duration(p.spans[i].send); sent > r.due+10*time.Millisecond {
			sentLate++
		}
	}
	if during < 10 {
		t.Fatalf("only %d requests fell due during the stall", during)
	}
	if sentLate < during/2 {
		t.Errorf("only %d of %d requests due in the stall were sent late; the stall did not queue them", sentLate, during)
	}
	if p.backlogMax() < during/2 {
		t.Errorf("backlog_max = %d, want at least %d while %d requests queued behind the stall", p.backlogMax(), during/2, during)
	}
}

// TestPercentileCarriesItsSampleCount checks that a percentile comes with
// the count behind it and is refused when fewer than ten samples lie
// beyond it.
func TestPercentileCarriesItsSampleCount(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if q, ok := percentile(samples, 0.99); ok {
		t.Errorf("p99 of 999 samples reported as %v; only 9.99 samples lie beyond it", q)
	}
	samples = append(samples, 1000)
	q, ok := percentile(samples, 0.99)
	if !ok || q.N != 1000 || q.Value != 990 {
		t.Errorf("p99 of 1..1000 = %+v ok=%v, want {Value:990 N:1000}", q, ok)
	}
	q, ok = percentile(samples, 0.5)
	if !ok || q.N != 1000 || q.Value != 500 {
		t.Errorf("p50 of 1..1000 = %+v ok=%v, want {Value:500 N:1000}", q, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("p50 of no samples reported")
	}
}

// TestQuietP50IgnoresDisturbedSeconds checks that p50_ms is the lower
// quartile of the per-second medians, that a second with too few
// successful requests does not count, and that failures are left out.
func TestQuietP50IgnoresDisturbedSeconds(t *testing.T) {
	var p phase
	second := func(s, n int, f failKind, latMs func(i int) float64) {
		for i := 0; i < n; i++ {
			due := time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond
			p.reqs = append(p.reqs, request{id: len(p.reqs), due: due})
			p.spans = append(p.spans, span{last: int64(due) + int64(latMs(i)*1e6), failure: f})
		}
	}
	second(0, 30, failNone, func(int) float64 { return 2 })
	second(1, 30, failNone, func(int) float64 { return 40 }) // the machine stalled
	second(2, 30, failTimeout, func(int) float64 { return 1 })
	second(3, 30, failNone, func(int) float64 { return 3 })
	second(4, minPerSecond-1, failNone, func(int) float64 { return 0.5 })
	second(5, 30, failNone, func(int) float64 { return 2.5 })
	second(6, 30, failNone, func(i int) float64 { return float64(i) }) // median 14.5
	// Qualifying medians 2, 2.5, 3, 14.5, 40: the lower quartile is 2.5.
	got, secs := p.quietP50()
	if got != 2.5 || secs != 5 {
		t.Errorf("quietP50 = %v over %d seconds, want 2.5 over 5", got, secs)
	}
}

func TestOrderStatInterpolates(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2, 5}, 0.25, 2},
		{[]float64{1, 2}, 0.25, 1.25},
		{[]float64{7}, 0.25, 7},
		{nil, 0.5, 0},
	} {
		if got := orderStat(c.in, c.q); got != c.want {
			t.Errorf("orderStat(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(42, streamMeasured, 1500, 2*time.Second, zipfKeys(512, 1.1))
	b := schedule(42, streamMeasured, 1500, 2*time.Second, zipfKeys(512, 1.1))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different arrivals or keys")
	}
	c := schedule(43, streamMeasured, 1500, 2*time.Second, zipfKeys(512, 1.1))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	w := schedule(42, streamWarmup, 1500, 2*time.Second, zipfKeys(512, 1.1))
	if reflect.DeepEqual(a, w) {
		t.Fatal("the warm-up stream repeats the measured one")
	}
	if n := len(a); n < 2800 || n > 3200 {
		t.Errorf("%d arrivals in 2 s at 1500/s", n)
	}
	hot := 0
	for i, r := range a {
		if r.id != i || r.key < 0 || r.key >= 512 || (i > 0 && r.due < a[i-1].due) {
			t.Fatalf("bad request %d: %+v", i, r)
		}
		if r.key == 0 {
			hot++
		}
	}
	if hot < len(a)/10 {
		t.Errorf("Zipf's most popular key drawn %d times of %d", hot, len(a))
	}
}

// TestParseMetricsReadsAdminFormat parses what the admin /metrics
// endpoint renders: an obs registry snapshot with counters, gauges and a
// histogram.
func TestParseMetricsReadsAdminFormat(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("core.domestic.streams").Add(7)
	reg.RegisterFunc("cache.entries", func() int64 { return 3 })
	h := reg.Histogram("cache.hit_seconds")
	h.ObserveDuration(3 * time.Millisecond)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := parseMetrics(buf.Bytes())
	if err != nil {
		t.Fatalf("parse %q: %v", buf.String(), err)
	}
	for name, want := range map[string]float64{
		"core.domestic.streams":          7,
		"cache.entries":                  3,
		"cache.hit_seconds_count":        1,
		"cache.hit_seconds_sum_seconds":  0.003,
		"cache.hit_seconds_le_0.004":     1,
		"cache.hit_seconds_le_0.002":     0,
		"cache.hit_seconds_le_inf":       0,
		"core.domestic.never_registered": 0,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, err := parseMetrics([]byte("fleet.picks=1\nno equals sign\n")); err == nil {
		t.Error("a line without name=value parsed")
	}
	if _, err := parseMetrics([]byte("fleet.picks=many\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

// TestWrongBodyCountsAsError serves one object with a corrupted body and
// checks that the request is counted in error_rate and marks the run
// incorrect.
func TestWrongBodyCountsAsError(t *testing.T) {
	objs := makeObjects(5, 4, 2<<10)
	served := makeObjects(5, 4, 2<<10)
	served.bodies[2] = append([]byte(nil), served.bodies[2]...)
	served.bodies[2][100] ^= 0xff
	o, err := startOrigin(served)
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	var clients [connsInFlight]*client
	reqs := make([]request, 8)
	for i := range reqs {
		reqs[i] = request{id: i, due: time.Duration(i) * time.Millisecond, key: i % 4}
	}
	p, err := openLoop(reqs, connsInFlight, func(w int, r request, sp *span, t0 time.Time) {
		if clients[w] == nil {
			c, err := dialClient(o.addr())
			if err != nil {
				sp.failure = failDial
				return
			}
			clients[w] = c
		}
		path := "/o/" + strconv.Itoa(r.key)
		if err := clients[w].get(path, o.addr(), "", objs.bodies[r.key], objs.crcs[r.key], sp, t0); err != nil {
			sp.failure = classify(err)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		c.close()
	}
	m := &measurement{p: p}
	m.lat, m.failed = p.latencies()
	m.ok = len(m.lat)
	rep := newReport()
	m.fill(rep, deployWorkload{rate: 1}, "")
	if m.failed[failWrongBody] != 2 || rep.failed != 2 || rep.attempted != 8 || rep.correct {
		t.Errorf("wrong_body=%d failed=%d attempted=%d correct=%v, want 2, 2, 8, false",
			m.failed[failWrongBody], rep.failed, rep.attempted, rep.correct)
	}
	if !strings.Contains(strings.Join(rep.notes, "\n"), "error_rate = 0.250000") {
		t.Errorf("notes lack error_rate 0.25:\n%s", strings.Join(rep.notes, "\n"))
	}
}

// TestDeploymentServesEveryMode runs a few verified requests of each
// deployment workload's mode through a real loopback deployment.
func TestDeploymentServesEveryMode(t *testing.T) {
	for name, wl := range map[string]deployWorkload{
		"fresh":     {rate: 200, mode: fresh, objects: 4, size: 2 << 10},
		"tunnel":    {rate: 100, mode: tunnel, objects: 2, size: 256 << 10},
		"keepalive": {rate: 200, mode: keepAlive, objects: 8, size: 32 << 10, zipf: true, cacheMB: 4},
	} {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				d, err := startDeployment(wl, makeObjects(1, wl.objects, wl.size), traced)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.verify(); err != nil {
					d.close()
					t.Fatal(err)
				}
				p, err := d.run(schedule(1, streamMeasured, wl.rate, 200*time.Millisecond, wl.keys()), traced)
				d.close()
				if err != nil {
					t.Fatal(err)
				}
				lat, failed := p.latencies()
				if len(lat) != len(p.reqs) || len(lat) == 0 {
					t.Fatalf("traced=%v: %d of %d requests succeeded (failures %v)", traced, len(lat), len(p.reqs), failed)
				}
				if traced && wl.mode != keepAlive && p.spans[0].originRecv.Load() == 0 {
					t.Errorf("traced run recorded no origin receipt for request 0")
				}
			}
		})
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	toDefs := func(ms []metric) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := toDefs(bench.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, benchmark prints %v", got, endToEnd)
	}
	if got := toDefs(bench.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, benchmark prints %v", got, perLayer)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, benchmark runs %v", names, want)
	}
}
