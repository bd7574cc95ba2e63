package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the heap's free pages to the kernel and resets the
// process's peak resident set (VmHWM) to its current size, so a later
// peakRSSMB reads the peak of what ran in between, not of the set-ups
// before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM line %q: %v", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, idleCPU, totalCPU float64
	schedLat                 *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		idleCPU:      s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
		schedLat:     s[5].Value.Float64Histogram(),
	}
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	allocBytes, allocObjects float64
	// gcFrac is GC CPU as a share of the CPU the process kept busy.
	gcFrac float64
	// schedP99us is the 99th percentile of the time goroutines waited
	// runnable before running, in µs, with the count behind it.
	schedP99us quantile
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		allocObjects: float64(b.allocObjects - a.allocObjects),
	}
	if busy := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU); busy > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / busy
	}
	d.schedP99us = histQuantile(a.schedLat, b.schedLat, 0.99)
	d.schedP99us.Value *= 1e6
	return d
}

// histQuantile is the q-quantile of the observations added between two
// readings of a runtime histogram, taken as the upper edge of the bucket
// holding it.
func histQuantile(a, b *metrics.Float64Histogram, q float64) quantile {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return quantile{}
	}
	rank := uint64(q*float64(total-1)) + 1
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := b.Buckets[i+1]
			if hi > 1e300 { // the last bucket is unbounded
				hi = b.Buckets[i]
			}
			return quantile{Value: hi, N: int(total)}
		}
	}
	return quantile{N: int(total)}
}

// parseMetrics parses an admin /metrics body: one "name=value" pair per
// line, as obs.Snapshot.WriteText renders it.
func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, val, ok := strings.Cut(line, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("metrics line %q: want name=value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// scrape reads and parses one admin /metrics endpoint.
func scrape(addr string) (map[string]float64, error) {
	body, err := httpGet(addr, "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	return parseMetrics(body)
}

// delta is after[name] - before[name], zero for names either lacks.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
