package main

import (
	"crypto/sha256"
	"slices"
	"strings"
	"time"

	"scholarcloud/internal/experiments"
)

// simFigures are the paper's own figures: the PLT comparison (Fig. 4, 5),
// traffic (Fig. 6) and scalability (Fig. 7) sweeps.
var simFigures = []string{"4", "5a", "5b", "5c", "6a", "6bc", "7"}

// simLayerMetrics are the traced sim-paper run's per-figure wall times
// and its per-world simulator counters.
var simLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, f := range simFigures {
		defs = append(defs, metricDef{"sim.fig_" + f + "_s", "s"})
	}
	return append(defs,
		metricDef{"sim.worlds_per_s", "1/s"},
		metricDef{"sim.alloc_mb_per_world", "MiB"},
		metricDef{"netsim.packets_per_world", "count"},
		metricDef{"gfw.verdicts_per_world", "count"},
	)
}()

// sweep is one timed RunSweep.
type sweep struct {
	res *experiments.SweepResult
	// wall, cpu and rt cover the RunSweep call alone.
	wall time.Duration
	cpu  time.Duration
	rt   runtimeDelta
}

func (s sweep) msPerWorld() float64 {
	return float64(s.wall) / 1e6 / float64(s.res.Bench.Worlds)
}

func runSweep(seed uint64) (sweep, error) {
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	res, err := experiments.RunSweep(experiments.SweepOptions{
		Seed:    seed,
		Workers: 1,
		Quality: experiments.Quick(),
		Figures: simFigures,
	})
	if err != nil {
		return sweep{}, err
	}
	return sweep{res: res, wall: time.Since(t0), cpu: cpuTime() - cpu0, rt: rt0.to(readRuntime())}, nil
}

// sweepSeconds is the part of a run budgeted for one sweep, in seconds; a
// sweep takes 9 to 16 s on a 2-vCPU VM.
const sweepSeconds = 10

// runSweeps makes one sweep per sweepSeconds of the run, and at least two
// so every run checks that a repetition's figure text is byte-identical
// to the first's. The count follows from the run's seconds, not from the
// clock, so every run of the same length does the same work however fast
// the host is that minute: a run that fitted in an extra sweep would also
// reach a higher peak of memory.
func runSweeps(cfg runConfig, rep *report) ([]sweep, error) {
	n := max(2, int(cfg.seconds)/sweepSeconds)
	var sweeps []sweep
	for len(sweeps) < n {
		s, err := runSweep(cfg.seed)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, s)
		rep.attempted += int64(s.res.Bench.Worlds)
		if s.res.Output != sweeps[0].res.Output {
			rep.correct = false
			rep.notef("sweep %d's figure text differs from the first sweep's", len(sweeps))
		}
	}
	rep.notef("figure text sha256 %x (%d sweeps of figures %s, %d worlds each)",
		sha256.Sum256([]byte(sweeps[0].res.Output)), len(sweeps), strings.Join(simFigures, ","), sweeps[0].res.Bench.Worlds)
	return sweeps, nil
}

func runSim(cfg runConfig) (*report, error) {
	rep := newReport()
	if cfg.traced {
		return rep, tracedSim(cfg, rep)
	}
	setups, stop, err := timeSetups(func() (func(), error) {
		return experiments.NewWorld(experiments.Config{Seed: cfg.seed}).Close, nil
	})
	if err != nil {
		return nil, err
	}
	stop()
	setSetup(rep, setups, "experiments.NewWorld calls")

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	sweeps, err := runSweeps(cfg, rep)
	if err != nil {
		return nil, err
	}
	var perWorld []float64
	var cpu time.Duration
	worlds := 0
	for _, s := range sweeps {
		perWorld = append(perWorld, s.msPerWorld())
		cpu += s.cpu
		worlds += s.res.Bench.Worlds
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// A world is this workload's unit of work; RunSweep times sweeps, not
	// worlds. As for the deployment workloads, the lower quartile keeps
	// a burst of interference during one sweep out of the reading.
	p50 := orderStat(perWorld, 0.25)
	rep.notef("p50_ms = %.4f ms: wall ms per world, the lower quartile of n=%d sweeps (fastest %.4f ms, median %.4f ms, slowest %.4f ms)",
		p50, len(perWorld), slices.Min(perWorld), median(perWorld), slices.Max(perWorld))
	rep.set("cpu_ms_per_req", float64(cpu)/1e6/float64(worlds))
	rep.set("rss_peak_mb", rss)
	rep.notef("worlds_per_s = %.4f (1000 / p50_ms)", 1000/p50)
	return rep, nil
}

func tracedSim(cfg runConfig, rep *report) error {
	s, err := runSweep(cfg.seed)
	if err != nil {
		return err
	}
	rep.attempted = int64(s.res.Bench.Worlds)
	// The counters are read from the sweep's result after it returns, so
	// the traced sweep runs exactly the untraced code.
	rep.set("trace.overhead_ms", 0)
	rep.notef("trace.overhead_ms is 0 by construction: the per-layer counters come from SweepResult.Obs and SweepResult.Bench")
	worlds := float64(s.res.Bench.Worlds)
	for _, f := range s.res.Bench.Figures {
		rep.set("sim.fig_"+f.Fig+"_s", f.Seconds)
	}
	rep.set("sim.worlds_per_s", worlds/s.wall.Seconds())
	rep.set("sim.alloc_mb_per_world", s.rt.allocBytes/worlds/(1<<20))
	obs := s.res.Obs
	rep.set("netsim.packets_per_world", float64(obs.Counter("netsim.packets"))/worlds)
	verdicts := obs.Counter("gfw.verdicts.pass") + obs.Counter("gfw.verdicts.drop") + obs.Counter("gfw.verdicts.reset")
	rep.set("gfw.verdicts_per_world", float64(verdicts)/worlds)
	rep.notef("figure text sha256 %x (figures %s, %d worlds)", sha256.Sum256([]byte(s.res.Output)), strings.Join(simFigures, ","), s.res.Bench.Worlds)
	rep.notef("per world: %d netsim packets and %d gfw verdicts over %d worlds", obs.Counter("netsim.packets"), verdicts, s.res.Bench.Worlds)
	setRuntime(rep, s.rt, worlds)
	rep.zero(deployLayerMetrics)
	return runMicrobenches(rep)
}
