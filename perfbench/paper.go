package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/theory"
)

// The paper workload is the library path of cmd/hexpaper at the paper's
// L50_W20 grid: Table 1/2 and Fig. 15-style single-pulse settings and
// Fig. 18-style stabilization settings, in a closed loop through
// experiment.RunManyCtx and StabRunManyCtx. One round is 44 single-pulse
// settings (four scenarios × fault-free, 1..5 Byzantine, 1..5 fail-silent)
// of paperRuns runs each, then three stabilization settings of
// paperStabRuns ten-pulse runs; the two halves take similar time.
const (
	paperL, paperW = 50, 20
	paperRuns      = 8
	paperStabRuns  = 2
	paperPulses    = 10
	// paperPace is rounds per second of timed work on the reference host.
	paperPace = 1.5
)

// paperRound returns round r's settings. Seeds derive from the benchmark
// seed and the round, so every round runs distinct simulations.
func paperRound(seed uint64, r int, to theory.Timeouts) ([]experiment.Spec, []experiment.StabSpec) {
	rs := sim.DeriveSeed(seed, "paper", fmt.Sprint(r)) | 1
	var singles []experiment.Spec
	for _, sc := range source.Scenarios {
		singles = append(singles, experiment.Spec{L: paperL, W: paperW, Scenario: sc, Runs: paperRuns, Seed: rs})
		for _, ft := range []fault.Behavior{fault.Byzantine, fault.FailSilent} {
			for f := 1; f <= 5; f++ {
				singles = append(singles, experiment.Spec{L: paperL, W: paperW, Scenario: sc, Faults: f, FaultType: ft, Runs: paperRuns, Seed: rs})
			}
		}
	}
	for i := range singles {
		singles[i] = singles[i].WithDefaults()
	}
	var stabs []experiment.StabSpec
	for _, fs := range []struct {
		f  int
		ft fault.Behavior
	}{{0, fault.Correct}, {2, fault.Byzantine}, {2, fault.FailSilent}} {
		stabs = append(stabs, experiment.StabSpec{
			L: paperL, W: paperW, Scenario: source.UniformDPlus, Faults: fs.f, FaultType: fs.ft,
			Runs: paperStabRuns, Pulses: paperPulses, Seed: rs, Timeouts: to,
		}.WithDefaults())
	}
	return singles, stabs
}

// paperSetup calibrates the Condition 2 timeouts as Fig. 18 does and
// warms the engine with one small setting of each kind.
func paperSetup(seed uint64) (theory.Timeouts, error) {
	calib := experiment.Options{L: paperL, W: paperW, Runs: 10, Seed: sim.DeriveSeed(seed, "calibrate") | 1}
	to, err := experiment.CalibrateTimeouts(calib, source.UniformDPlus, 5)
	if err != nil {
		return to, err
	}
	singles, stabs := paperRound(seed, -1, to)
	if _, err := experiment.RunManyCtx(context.Background(), singles[0]); err != nil {
		return to, err
	}
	_, err = experiment.StabRunManyCtx(context.Background(), stabs[0])
	return to, err
}

// rusageCPU is the CPU time this process has used so far.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusagePeakMiB is this process's peak resident set.
func rusagePeakMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// checkStabRun checks one stabilization run: a fault-free run must be
// stable from pulse 2 on; every run must assign all its pulses.
func checkStabRun(out *experiment.StabOut, s experiment.StabSpec) error {
	if len(out.PA.Waves) != s.Pulses || out.Events == 0 {
		return fmt.Errorf("stabilization run assigned %d of %d pulses", len(out.PA.Waves), s.Pulses)
	}
	if s.Faults == 0 {
		return checkStabilized(out, s)
	}
	return nil
}

func runPaper(cfg config, o *outcome) error {
	var to theory.Timeouts
	setup := setupTimer{pass: func(int, bool) error {
		var err error
		to, err = paperSetup(cfg.seed)
		return err
	}}
	if err := setup.before(); err != nil {
		return err
	}

	ctx := context.Background()
	type audit struct {
		spec experiment.Spec
		out  *experiment.RunOut
		op   int // index of the run's check result in errs
	}
	var (
		errs            []error
		audits          []audit
		wall, cpuPerRun []float64 // per round
	)
	for r := 0; r < rounds(cfg.seconds, paperPace); r++ {
		singles, stabs := paperRound(cfg.seed, r, to)
		var cpu, roundTime time.Duration
		runs := 0
		for i, s := range singles {
			t0, c0 := time.Now(), rusageCPU()
			outs, err := experiment.RunManyCtx(ctx, s)
			roundTime += time.Since(t0)
			cpu += rusageCPU() - c0
			if err != nil {
				return fmt.Errorf("RunManyCtx: %w", err)
			}
			runs += len(outs)
			for _, out := range outs {
				errs = append(errs, checkSinglePulse(out.Hex, out.Plan, out.Res, s.Bounds))
			}
			if i == r%len(singles) {
				audits = append(audits, audit{s, outs[0], len(errs) - len(outs)})
			}
		}
		for _, s := range stabs {
			t0, c0 := time.Now(), rusageCPU()
			outs, err := experiment.StabRunManyCtx(ctx, s)
			roundTime += time.Since(t0)
			cpu += rusageCPU() - c0
			if err != nil {
				return fmt.Errorf("StabRunManyCtx: %w", err)
			}
			runs += len(outs)
			for _, out := range outs {
				errs = append(errs, checkStabRun(out, s))
			}
		}
		wall = append(wall, ms(roundTime)/float64(runs))
		cpuPerRun = append(cpuPerRun, ms(cpu)/float64(runs))
	}
	// A sample of one run per round is re-executed under a trace
	// recorder and audited against Algorithm 1.
	for _, a := range audits {
		if err := auditRun(a.spec, a.out, 0); err != nil && errs[a.op] == nil {
			errs[a.op] = fmt.Errorf("audit: %w", err)
		}
	}
	for _, err := range errs {
		o.op(err)
	}
	rss := rusagePeakMiB()
	setupS, err := setup.after()
	if err != nil {
		return err
	}
	o.set("setup_s", "s", setupS)
	// Medians over rounds, so a few seconds of a slower host move them
	// less than they would move a whole-run mean.
	logWall("paper", wall)
	o.set("cpu_ms_per_op", "ms", median(cpuPerRun))
	o.set("peak_rss_mib", "MiB", rss)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// stabRun is the core.Config of stabilization run idx, as
// experiment.StabRunManyCtx builds it.
func stabRun(s experiment.StabSpec, h *grid.Hex, idx int) (core.Config, *source.Schedule, error) {
	seed := sim.DeriveSeed(s.Seed, "stab", s.Scenario.Name(),
		fmt.Sprintf("f%d-%s-lt%v", s.Faults, s.FaultType, !s.DisableLinkTimers),
		fmt.Sprintf("run%d", idx))
	sched := source.NewSchedule(s.Scenario, s.W, s.Pulses, s.Bounds,
		s.Timeouts.Separation, sim.NewRNG(sim.DeriveSeed(seed, "sched")))
	plan, _, err := placeFaults(h, seed, s.Faults, s.FaultType)
	if err != nil {
		return core.Config{}, nil, err
	}
	return core.Config{
		Graph: h.Graph,
		Params: core.Params{
			Bounds:    s.Bounds,
			TLinkMin:  s.Timeouts.TLinkMin,
			TLinkMax:  s.Timeouts.TLinkMax,
			TSleepMin: s.Timeouts.TSleepMin,
			TSleepMax: s.Timeouts.TSleepMax,
		},
		Delay:      delay.Uniform{Bounds: s.Bounds},
		Faults:     plan,
		Schedule:   sched,
		RandomInit: true,
		Seed:       seed,
	}, sched, nil
}

// paperTraceRounds is the traced replay's fixed amount of work, so its
// counts repeat exactly for a seed.
const paperTraceRounds = 3

// replayPaper runs rounds of the paper workload by calling grid, core,
// analysis and stats directly, one span per call, with each run an
// operation. It returns the number of runs and their check results.
func replayPaper(seed uint64, to theory.Timeouts, sp *spans, al *allocMeter) ([]error, error) {
	var errs []error
	for r := 0; r < paperTraceRounds; r++ {
		singles, stabs := paperRound(seed, r, to)
		for _, s := range singles {
			h, err := grid.Shared.Build(s.L, s.W, false)
			if err != nil {
				return nil, err
			}
			for idx := 0; idx < s.Runs; idx++ {
				op := sp.op("paper.run")
				cfg, err := libraryRun(s, h, idx)
				if err != nil {
					return nil, err
				}
				id := sp.begin("core.run", op)
				al.start()
				res, err := core.Run(cfg)
				al.stop()
				sp.endEvents(id, res)
				if err != nil {
					return nil, err
				}
				id = sp.begin("analysis.wave", op)
				w := analysis.WaveFromResult(h.Graph, res, cfg.Faults, 0)
				sp.end(id)
				id = sp.begin("stats.summary", op)
				scale := float64(sim.Nanosecond)
				stats.SummarizeScaled(w.AppendIntraSkewTimes(nil), scale)
				stats.SummarizeScaled(w.AppendInterSkewTimes(nil), scale)
				sp.end(id)
				sp.end(op)
				errs = append(errs, checkSinglePulse(h, cfg.Faults, res, s.Bounds))
			}
		}
		for _, s := range stabs {
			h, err := grid.Shared.Build(s.L, s.W, false)
			if err != nil {
				return nil, err
			}
			for idx := 0; idx < s.Runs; idx++ {
				op := sp.op("paper.stab-run")
				cfg, sched, err := stabRun(s, h, idx)
				if err != nil {
					return nil, err
				}
				id := sp.begin("core.run", op)
				al.start()
				res, err := core.Run(cfg)
				al.stop()
				sp.endEvents(id, res)
				if err != nil {
					return nil, err
				}
				id = sp.begin("analysis.wave", op)
				pa := analysis.AssignPulses(h.Graph, res, cfg.Faults, sched, s.Bounds)
				sp.end(id)
				sp.end(op)
				errs = append(errs, checkStabRun(&experiment.StabOut{Hex: h, Plan: cfg.Faults, PA: pa, Events: res.Events}, s))
			}
		}
	}
	return errs, nil
}

func tracePaper(cfg config, o *outcome) error {
	to, err := paperSetup(cfg.seed)
	if err != nil {
		return err
	}
	sp := &spans{}
	buildGrids(sp, [][2]int{{paperL, paperW}})

	// Parallel efficiency of the library's own worker pool on round 0.
	singles, stabs := paperRound(cfg.seed, 0, to)
	var busy, wall time.Duration
	for _, s := range singles {
		t0 := time.Now()
		outs, err := experiment.RunManyCtx(context.Background(), s)
		wall += time.Since(t0)
		if err != nil {
			return err
		}
		for _, out := range outs {
			busy += out.Elapsed
		}
	}
	for _, s := range stabs {
		t0 := time.Now()
		outs, err := experiment.StabRunManyCtx(context.Background(), s)
		wall += time.Since(t0)
		if err != nil {
			return err
		}
		for _, out := range outs {
			busy += out.Elapsed
		}
	}
	o.set("experiment.parallel_efficiency", "ratio", busy.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))

	untraced, overhead, errs, err := replayPair(func(sp *spans, al *allocMeter) ([]error, error) {
		return replayPaper(cfg.seed, to, sp, al)
	}, sp)
	if err != nil {
		return err
	}
	for _, e := range errs {
		o.op(e)
	}
	reportLayers(o, sp, len(errs), untraced, overhead)
	return nil
}
