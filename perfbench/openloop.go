package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// request is one scheduled unit of load: its identifier (carried in the
// URL path or header so the origin can join its spans), the instant it is
// due relative to the start of the phase, and the object it asks for.
type request struct {
	id  int
	due time.Duration
	key int
}

// keys binds an object-key sampler to a schedule's random stream.
type keys func(*rand.Rand) func() int

// schedule draws an open-loop Poisson arrival process at rate requests
// per second over d, with each request's object drawn by pick. The same
// seed and stream always give the same arrivals and keys.
func schedule(seed, stream uint64, rate float64, d time.Duration, pick keys) []request {
	rng := rand.New(rand.NewPCG(seed, stream))
	key := pick(rng)
	var reqs []request
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return reqs
		}
		reqs = append(reqs, request{id: len(reqs), due: due, key: key()})
	}
}

// uniformKeys picks objects uniformly from n.
func uniformKeys(n int) keys {
	return func(r *rand.Rand) func() int {
		return func() int { return r.IntN(n) }
	}
}

// zipfKeys picks objects from n with a Zipf(s) popularity law, object 0
// the most popular.
func zipfKeys(n int, s float64) keys {
	return func(r *rand.Rand) func() int {
		z := rand.NewZipf(r, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
}

// span is what the benchmark records about one request, in nanoseconds
// since the phase started. The client fields are written by the worker
// that ran the request; the origin fields by the origin connection that
// served it, hence atomics.
type span struct {
	start, send, first, last int64
	originRecv, originWrite  atomic.Int64
	failure                  failKind
}

// failKind classifies a failed request for error_rate.
type failKind uint8

const (
	failNone failKind = iota
	failDial
	failStatus
	failTimeout
	failShort
	failWrongBody
)

var failNames = [...]string{"", "dial", "status", "timeout", "short_body", "wrong_body"}

// phase is the outcome of running one schedule open loop.
type phase struct {
	reqs  []request
	spans []span
	// wall is the time from the phase start until the last request
	// finished.
	wall time.Duration
}

// openLoop runs reqs on a fixed number of workers, starting every request
// at its due time whether or not earlier ones have finished. Workers take
// requests in due order, so a request that finds every worker busy waits
// for the first to free up, and that wait is part of its latency, because
// latency is timed from when the request was due, not from when it was
// sent. do runs one request on worker w (which keeps its own client
// connection) and fills in the client fields of its span. onStart, when
// set, is handed the spans and the phase's start instant before the first
// request is due.
func openLoop(reqs []request, workers int, do func(w int, r request, sp *span, t0 time.Time), onStart func([]span, time.Time)) (*phase, error) {
	p := &phase{reqs: reqs, spans: make([]span, len(reqs))}
	timers := make([]*timer, workers)
	for w := range timers {
		t, err := newTimer()
		if err != nil {
			for _, t := range timers[:w] {
				t.close()
			}
			return nil, err
		}
		timers[w] = t
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)
	if onStart != nil {
		onStart(p.spans, t0)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer timers[w].close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				timers[w].sleepUntil(t0.Add(reqs[i].due))
				sp := &p.spans[i]
				sp.start = int64(time.Since(t0))
				do(w, reqs[i], sp, t0)
				if sp.last == 0 {
					sp.last = int64(time.Since(t0))
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p, nil
}

// timer sleeps until an instant with microsecond precision. The Go
// runtime's own timers wake up to a millisecond late on an idle process,
// which would charge a millisecond of generator lateness to every
// request; a timerfd wakes the sleeping goroutine through the network
// poller as soon as the kernel's high-resolution timer fires.
type timer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newTimer() (*timer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// network poller, so Read parks the goroutine, not the thread.
	return &timer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (t *timer) close() { t.f.Close() }

func (t *timer) sleepUntil(at time.Time) {
	d := time.Until(at)
	if d <= 0 {
		return
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	if _, err := t.f.Read(t.buf[:]); err != nil {
		time.Sleep(time.Until(at))
	}
}

// backlogMax is the largest number of requests that were due but not yet
// started at any instant of the phase.
func (p *phase) backlogMax() int {
	type event struct {
		at    int64
		delta int
	}
	ev := make([]event, 0, 2*len(p.reqs))
	for i, r := range p.reqs {
		ev = append(ev, event{int64(r.due), +1}, event{p.spans[i].start, -1})
	}
	// At equal instants count the start first: a request picked up the
	// moment it fell due never waited.
	sort.Slice(ev, func(a, b int) bool {
		if ev[a].at != ev[b].at {
			return ev[a].at < ev[b].at
		}
		return ev[a].delta < ev[b].delta
	})
	n, most := 0, 0
	for _, e := range ev {
		n += e.delta
		most = max(most, n)
	}
	return most
}

// latencies returns the latency of every successful request in ms, timed
// from its due instant to its last byte, and the failures by kind.
func (p *phase) latencies() (ms []float64, failed [len(failNames)]int) {
	for i := range p.spans {
		sp := &p.spans[i]
		if sp.failure != failNone {
			failed[sp.failure]++
			continue
		}
		ms = append(ms, float64(sp.last-int64(p.reqs[i].due))/1e6)
	}
	return ms, failed
}

// minPerSecond is the fewest successful requests a second needs for its
// median to count in quietP50.
const minPerSecond = 20

// secondMedians groups the successful requests by the second of the
// phase they fell due in and returns the median latency (ms) of every
// second that had at least minPerSecond of them.
func (p *phase) secondMedians() []float64 {
	var meds, cur []float64
	flush := func() {
		if len(cur) >= minPerSecond {
			meds = append(meds, median(cur))
		}
		cur = cur[:0]
	}
	sec := time.Duration(0)
	for i, r := range p.reqs {
		if s := r.due.Truncate(time.Second); s != sec {
			flush()
			sec = s
		}
		if sp := &p.spans[i]; sp.failure == failNone {
			cur = append(cur, float64(sp.last-int64(r.due))/1e6)
		}
	}
	flush()
	return meds
}

// quietP50 is the lower quartile of the per-second median latencies
// (ms), with the number of seconds behind it. The benchmark shares its
// machine: interference from elsewhere only ever adds latency, and it
// comes in bursts, so the quieter seconds are the steadier reading of
// the program's own latency. The lower quartile, not the lowest, keeps a
// slowdown that hits most seconds but spares a few (a periodic stall, an
// eviction burst) in view.
func (p *phase) quietP50() (float64, int) {
	meds := p.secondMedians()
	return orderStat(meds, 0.25), len(meds)
}

// lags returns how late each request started relative to its due time,
// in ms: the generator's own delay plus any queueing for a free worker.
func (p *phase) lags() []float64 {
	out := make([]float64, len(p.spans))
	for i := range p.spans {
		out[i] = float64(p.spans[i].start-int64(p.reqs[i].due)) / 1e6
	}
	return out
}

// quantile is a percentile together with the number of samples behind
// it; a percentile is never reported without its count.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. ok is false when fewer than ten samples lie beyond
// the requested rank, so the tail is not supported by the data.
func percentile(samples []float64, q float64) (quantile, bool) {
	n := len(samples)
	if n == 0 || float64(n)*(1-q) < 10 {
		return quantile{N: n}, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	return quantile{Value: s[rank], N: n}, true
}

// median is the 0.5 quantile without the tail-support rule, for small
// sets of repeated measurements.
func median(samples []float64) float64 { return orderStat(samples, 0.5) }

// orderStat is the q-quantile (0 <= q <= 1) of a small set of repeated
// measurements, interpolated linearly between neighbouring values; 0 for
// no samples.
func orderStat(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
