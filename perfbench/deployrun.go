package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// deployLayerMetrics are the traced run's counters and spans of the
// deployment path, per request where the name says so.
var deployLayerMetrics = []metricDef{
	{"core.fwd_ms", "ms"},
	{"core.ret_ms", "ms"},
	{"core.streams_per_req", "count"},
	{"carrier.overhead_ratio", "ratio"},
	{"mux.frames_per_req", "count"},
	{"fleet.picks_per_req", "count"},
	{"fleet.failovers", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_kreq", "count"},
	{"cache.coalesced_waiters", "count"},
	{"cache.border_fetches_per_req", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.backlog_max", "count"},
}

// runtimeMetrics are read from the Go runtime around the measured work of
// either surface, per request or per simulated world.
var runtimeMetrics = []metricDef{
	{"go.alloc_bytes_per_req", "B"},
	{"go.allocs_per_req", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.sched_wait_p99_us", "us"},
	{"trace.overhead_ms", "ms"},
}

// Schedule streams: the same seed draws independent arrival processes for
// the warm-up and the measured phase.
const (
	streamMeasured = 1
	streamWarmup   = 2
)

func deployRunner(wl deployWorkload) func(runConfig) (*report, error) {
	return func(cfg runConfig) (*report, error) {
		if cfg.traced {
			return tracedDeploy(wl, cfg)
		}
		return untracedDeploy(wl, cfg)
	}
}

func (wl deployWorkload) keys() keys {
	if wl.zipf {
		return zipfKeys(wl.objects, 1.1)
	}
	return uniformKeys(wl.objects)
}

// measurement is one measured phase with the process and proxy counters
// read around it.
type measurement struct {
	p        *phase
	lat      []float64
	failed   [len(failNames)]int
	cpu      time.Duration
	rt       runtimeDelta
	dom, rem [2]map[string]float64
	relay    [2]int64 // carrier bytes, both directions, before and after
	bodies   int64    // body bytes delivered to clients
	ok       int      // requests that succeeded
	rssMB    float64  // peak resident set during the phase
}

// measure warms the deployment up, then runs the measured schedule open
// loop, reading counters before and after.
func (d *deployment) measure(cfg runConfig, dur time.Duration, traceSpans bool) (*measurement, error) {
	if _, err := d.run(schedule(cfg.seed, streamWarmup, d.wl.rate, warmup, d.wl.keys()), false); err != nil {
		return nil, err
	}
	reqs := schedule(cfg.seed, streamMeasured, d.wl.rate, dur, d.wl.keys())
	m := &measurement{}
	var err error
	if m.dom[0], m.rem[0], err = d.scrapeAll(); err != nil {
		return nil, err
	}
	if d.relay != nil {
		m.relay[0] = d.relay.up.Load() + d.relay.down.Load()
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rt0, cpu0 := readRuntime(), cpuTime()
	if m.p, err = d.run(reqs, traceSpans); err != nil {
		return nil, err
	}
	m.cpu = cpuTime() - cpu0
	m.rt = rt0.to(readRuntime())
	if m.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if d.relay != nil {
		m.relay[1] = d.relay.up.Load() + d.relay.down.Load()
	}
	if m.dom[1], m.rem[1], err = d.scrapeAll(); err != nil {
		return nil, err
	}
	m.lat, m.failed = m.p.latencies()
	m.ok = len(m.lat)
	m.bodies = int64(m.ok) * int64(d.wl.size)
	return m, nil
}

func (m *measurement) attempted() int64 { return int64(len(m.p.reqs)) }

func (m *measurement) failedTotal() int64 { return m.attempted() - int64(m.ok) }

// fill records the request accounting and correctness of m in rep,
// labelling its notes with phase.
func (m *measurement) fill(rep *report, wl deployWorkload, phase string) {
	rep.attempted += m.attempted()
	rep.failed += m.failedTotal()
	if m.failed[failWrongBody] > 0 {
		rep.correct = false
	}
	var parts []string
	for k := failDial; k < failKind(len(failNames)); k++ {
		parts = append(parts, fmt.Sprintf("%s=%d", failNames[k], m.failed[k]))
	}
	if phase != "" {
		phase += ": "
	}
	rep.notef("%serror_rate = %.6f (%d failed of %d attempted: %s)", phase,
		float64(m.failedTotal())/float64(m.attempted()), m.failedTotal(), m.attempted(), strings.Join(parts, " "))
	rep.notef("%soffered %.0f req/s open loop (Poisson), %d client connections; achieved %.1f req/s over %.3f s", phase,
		wl.rate, connsInFlight, float64(m.ok)/m.p.wall.Seconds(), m.p.wall.Seconds())
}

func untracedDeploy(wl deployWorkload, cfg runConfig) (*report, error) {
	objs := makeObjects(cfg.seed, wl.objects, wl.size)
	var dep *deployment
	setups, stop, err := timeSetups(func() (func(), error) {
		d, err := startDeployment(wl, objs, false)
		if err != nil {
			return nil, err
		}
		if err := d.verify(); err != nil {
			d.close()
			return nil, err
		}
		dep = d
		return d.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	m, err := dep.measure(cfg, time.Duration(cfg.seconds*float64(time.Second)), false)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	m.fill(rep, wl, "")
	setSetup(rep, setups, "set-ups (origin + remote + domestic until the first verified 200)")
	p50, secs := m.p.quietP50()
	if secs == 0 {
		return nil, fmt.Errorf("no second of the run had %d successful requests", minPerSecond)
	}
	meds := m.p.secondMedians()
	rep.notef("p50_ms = %.4f ms: the lower quartile of %d per-second medians (n=%d requests, timed from each request's due instant to its last byte); lowest %.4f ms, median %.4f ms",
		p50, secs, len(m.lat), slices.Min(meds), median(meds))
	notePercentile(rep, "pooled p50_ms", m.lat, 0.50)
	notePercentile(rep, "pooled p99_ms", m.lat, 0.99)
	rep.set("cpu_ms_per_req", float64(m.cpu)/1e6/float64(m.ok))
	rep.set("rss_peak_mb", m.rssMB)
	notePercentile(rep, "gen.lag_p99_ms", m.p.lags(), 0.99)
	rep.notef("gen.backlog_max = %d requests", m.p.backlogMax())
	return rep, nil
}

func tracedDeploy(wl deployWorkload, cfg runConfig) (*report, error) {
	objs := makeObjects(cfg.seed, wl.objects, wl.size)
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)

	// The comparison phase: the same schedule, untraced, for the overhead.
	plain, err := startDeployment(wl, objs, false)
	if err != nil {
		return nil, err
	}
	mu, err := plain.measure(cfg, half, false)
	plain.close()
	if err != nil {
		return nil, err
	}

	dep, err := startDeployment(wl, objs, true)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	m, err := dep.measure(cfg, half, true)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	mu.fill(rep, wl, "untraced phase")
	m.fill(rep, wl, "traced phase")

	p50u, secsU := mu.p.quietP50()
	p50t, secsT := m.p.quietP50()
	if secsU == 0 || secsT == 0 {
		return nil, fmt.Errorf("no second of the untraced (%d) or traced (%d) phase had %d successful requests", secsU, secsT, minPerSecond)
	}
	rep.set("trace.overhead_ms", p50t-p50u)
	rep.notef("trace.overhead_ms: traced p50 %.4f ms (n=%d) - untraced p50 %.4f ms (n=%d), each the lower quartile of the per-second medians", p50t, len(m.lat), p50u, len(mu.lat))

	var fwd, ret []float64
	for i := range m.p.spans {
		sp := &m.p.spans[i]
		if sp.failure != failNone || sp.originRecv.Load() == 0 {
			continue
		}
		fwd = append(fwd, float64(sp.originRecv.Load()-sp.send)/1e6)
		ret = append(ret, float64(sp.last-sp.originWrite.Load())/1e6)
	}
	if len(fwd) == 0 {
		return nil, fmt.Errorf("no successful request of the traced phase reached the origin")
	}
	rep.set("core.fwd_ms", median(fwd))
	rep.set("core.ret_ms", median(ret))
	rep.notef("core.fwd_ms and core.ret_ms: medians over the %d requests that reached the origin", len(fwd))

	n := float64(m.attempted())
	dd := func(name string) float64 { return delta(m.dom[0], m.dom[1], name) }
	rep.set("core.streams_per_req", dd("core.domestic.streams")/n)
	rep.set("carrier.overhead_ratio", float64(m.relay[1]-m.relay[0])/float64(m.bodies))
	rep.set("mux.frames_per_req", (dd("mux.domestic.frames_in")+dd("mux.domestic.frames_out"))/n)
	rep.set("fleet.picks_per_req", dd("fleet.picks")/n)
	rep.set("fleet.failovers", dd("fleet.failovers"))
	lookups := dd("cache.hits") + dd("cache.misses") + dd("cache.revalidated") + dd("cache.coalesced_waiters") + dd("cache.bypass") + dd("cache.uncacheable")
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = dd("cache.hits") / lookups
	}
	rep.set("cache.hit_ratio", hitRatio)
	rep.set("cache.evictions_per_kreq", dd("cache.evictions")/n*1000)
	rep.set("cache.coalesced_waiters", dd("cache.coalesced_waiters"))
	rep.set("cache.border_fetches_per_req", dd("cache.border_fetches")/n)
	noteCounterDeltas(rep, "domestic", m.dom, n)
	noteCounterDeltas(rep, "remote", m.rem, n)

	// The generator runs the same way in both phases, so its lateness is
	// read over both: one phase alone may hold too few requests for a
	// supported 99th percentile.
	lags := append(mu.p.lags(), m.p.lags()...)
	lag, ok := percentile(lags, 0.99)
	if !ok {
		lag.Value = slices.Max(lags)
		rep.notef("gen.lag_p99_ms is the largest lag: %d requests leave fewer than ten beyond the 99th percentile", len(lags))
	}
	rep.set("gen.lag_p99_ms", lag.Value)
	rep.set("gen.backlog_max", float64(m.p.backlogMax()))
	setRuntime(rep, m.rt, float64(m.ok))

	rep.zero(simLayerMetrics)
	if err := runMicrobenches(rep); err != nil {
		return nil, err
	}
	if cfg.records != "" {
		path, err := writeRecords(cfg, m.p)
		if err != nil {
			return nil, err
		}
		rep.notef("raw per-request records: %s", path)
	}
	return rep, nil
}

// timeSetups stands the system up setupReps times, spaced evenly over
// setupSpread, and returns the wall seconds each set-up took. Each starts
// from a collected heap, so a collection left over from earlier work is
// not charged to it. start returns the function that takes down what it
// stood up; timeSetups calls it for every set-up but the last, whose it
// returns.
func timeSetups(start func() (stop func(), err error)) (secs []float64, stop func(), err error) {
	stop = func() {}
	for i := 0; i < setupReps; i++ {
		time.Sleep(setupSpread / setupReps)
		runtime.GC()
		t0 := time.Now()
		next, err := start()
		if err != nil {
			stop()
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		stop()
		stop = next
	}
	return secs, stop, nil
}

// setSetup reports setup_s, the lower quartile of the timed set-ups (s).
func setSetup(rep *report, setups []float64, what string) {
	rep.set("setup_s", orderStat(setups, 0.25))
	rep.notef("setup_s: the lower quartile of %d %s; min %.6f s, median %.6f s, max %.6f s",
		len(setups), what, slices.Min(setups), median(setups), slices.Max(setups))
}

// notePercentile prints the q-quantile of samples (ms) by name when the
// samples support it, always with the count behind it.
func notePercentile(rep *report, name string, samples []float64, q float64) {
	if v, ok := percentile(samples, q); ok {
		rep.notef("%s = %.4f ms (n=%d)", name, v.Value, v.N)
		return
	}
	rep.notef("%s not reported: %d samples leave fewer than ten beyond it", name, len(samples))
}

// setRuntime reports the Go runtime's work per unit (request or world).
func setRuntime(rep *report, rt runtimeDelta, units float64) {
	rep.set("go.alloc_bytes_per_req", rt.allocBytes/units)
	rep.set("go.allocs_per_req", rt.allocObjects/units)
	rep.set("go.gc_cpu_frac", rt.gcFrac)
	rep.set("go.sched_wait_p99_us", rt.schedP99us.Value)
	rep.notef("go.sched_wait_p99_us: n=%d scheduling events", rt.schedP99us.N)
}

// noteCounterDeltas prints every core, mux, fleet and cache counter that
// moved during the measured phase, per request.
func noteCounterDeltas(rep *report, side string, snap [2]map[string]float64, n float64) {
	var names []string
	for name := range snap[1] {
		for _, p := range []string{"core.", "mux.", "fleet.", "cache."} {
			if strings.HasPrefix(name, p) && delta(snap[0], snap[1], name) != 0 {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		rep.notef("%s /metrics %s: %+.0f (%.4f per request)", side, name, delta(snap[0], snap[1], name), delta(snap[0], snap[1], name)/n)
	}
}

// writeRecords writes the traced phase's raw per-request spans as CSV, in
// microseconds since the phase started.
func writeRecords(cfg runConfig, p *phase) (string, error) {
	if err := os.MkdirAll(cfg.records, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.records, fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,key,due_us,start_us,send_us,first_byte_us,last_byte_us,origin_recv_us,origin_write_us,failure")
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i, r := range p.reqs {
		sp := &p.spans[i]
		fmt.Fprintf(w, "%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%s\n", r.id, r.key, us(int64(r.due)),
			us(sp.start), us(sp.send), us(sp.first), us(sp.last), us(sp.originRecv.Load()), us(sp.originWrite.Load()), failNames[sp.failure])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
