package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/coalesce"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
)

// The campaign workload submits POST /v1/sweeps at L20_W12, one sweep at a
// time, each followed to completion over its event stream. A round is a
// batched Output:"agg" sweep and then a per-unit (Batch:1) stats sweep,
// both over four scenarios × 0–2 Byzantine faults × a fresh seed range.
const (
	campL, campW   = 20, 12
	campAggSeeds   = 250 // agg sweep: 12 × 250 = 3000 units
	campAggBatch   = 250
	campStatsSeeds = 25  // stats sweep: 12 × 25 = 300 units
	campFaults     = 3   // fault counts 0, 1, 2
	campPace       = 0.7 // rounds per second on the reference host
)

// sweepKind is one of the two sweeps of a round.
type sweepKind struct {
	output string
	seeds  int
	batch  int
}

var campKinds = []sweepKind{{"agg", campAggSeeds, campAggBatch}, {"stats", campStatsSeeds, 1}}

// sweep is one generated sweep: its spec and the request of each unit in
// decomposition order (scenarios, then fault counts, then seeds).
type sweep struct {
	spec  jobs.SweepSpec
	units []runReq
}

func campaignSweep(seed uint64, round int, k sweepKind, tag string) sweep {
	start := sim.DeriveSeed(seed, "campaign", tag, fmt.Sprint(round), k.output)>>24 | 1
	sp := jobs.SweepSpec{
		L: campL, W: campW,
		Scenarios: []string{"zero", "udminus", "udplus", "ramp"},
		Faults:    []int{0, 1, 2},
		SeedStart: start, SeedCount: k.seeds,
		Output: k.output, Batch: k.batch,
	}
	var units []runReq
	for _, sc := range source.Scenarios {
		for f := 0; f < campFaults; f++ {
			for s := 0; s < k.seeds; s++ {
				units = append(units, runReq{L: campL, W: campW, Scenario: sc, Faults: f,
					Type: defaultType(f), Seed: start + uint64(s), Output: k.output})
			}
		}
	}
	return sweep{spec: sp, units: units}
}

// followSweep submits a sweep to hexd and reads its event stream to the
// end, returning each unit's decoded record body by unit index.
func followSweep(p *hexdProc, sw sweep) ([][]byte, []error, error) {
	spec, err := json.Marshal(sw.spec)
	if err != nil {
		return nil, nil, err
	}
	b, err := p.post("/v1/sweeps", spec)
	if err != nil {
		return nil, nil, err
	}
	var sub struct {
		Units     int    `json:"units"`
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return nil, nil, err
	}
	if sub.Units != len(sw.units) {
		return nil, nil, fmt.Errorf("sweep decomposed into %d units, want %d", sub.Units, len(sw.units))
	}
	resp, err := p.client.Get(p.base + sub.EventsURL)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: %s", sub.EventsURL, resp.Status)
	}
	bodies := make([][]byte, len(sw.units))
	errs := make([]error, len(sw.units))
	for i := range errs {
		errs[i] = fmt.Errorf("unit %d never completed", i)
	}
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "done", "cancelled":
			return bodies, errs, nil
		case "result":
			var ev jobs.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return nil, nil, err
			}
			if ev.Unit < 0 || ev.Unit >= len(sw.units) {
				return nil, nil, fmt.Errorf("event for unknown unit %d", ev.Unit)
			}
			bodies[ev.Unit], errs[ev.Unit] = unitBody(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return nil, nil, fmt.Errorf("event stream ended before the sweep finished")
}

// unitBody decodes a unit's record; the store codec verifies its CRC.
func unitBody(ev jobs.Event) ([]byte, error) {
	if ev.Status != "done" {
		return nil, fmt.Errorf("unit %d: %s %s", ev.Unit, ev.Status, ev.Error)
	}
	e, err := store.DecodeEntry(ev.Record)
	if err != nil {
		return nil, fmt.Errorf("unit %d record: %w", ev.Unit, err)
	}
	return e.Body, nil
}

// defaultType is the fault type a request without one gets.
func defaultType(f int) fault.Behavior {
	if f > 0 {
		return fault.Byzantine
	}
	return fault.Correct
}

// checkUnit checks one unit's body without recomputing it.
func checkUnit(r runReq, body []byte) error {
	if r.Output == "agg" {
		return checkAggBody(r, body)
	}
	return checkStatsBody(r, body)
}

func runCampaign(cfg config, o *outcome) error {
	var proc *hexdProc
	setup := setupTimer{pass: hexdPass(cfg, passStore(cfg), hexdLog(cfg), &proc, func(h *hexdProc, p int) error {
		for _, k := range []sweepKind{{"agg", 50, campAggBatch}, {"stats", 5, 1}} {
			if _, _, err := followSweep(h, campaignSweep(cfg.seed, p, k, "warm")); err != nil {
				return fmt.Errorf("warm-up sweep: %w", err)
			}
		}
		return nil
	}), kept: &proc}
	if err := setup.before(); err != nil {
		return err
	}
	defer proc.stop()

	var wall, cpuPerRun []float64 // per round
	for r := 0; r < rounds(cfg.seconds, campPace); r++ {
		var roundTime, cpu time.Duration
		units := 0
		for _, k := range campKinds {
			sw := campaignSweep(cfg.seed, r, k, "run")
			cpu0, err := procCPU(proc.pid())
			if err != nil {
				return err
			}
			t0 := time.Now()
			bodies, errs, err := followSweep(proc, sw)
			roundTime += time.Since(t0)
			cpu1, cerr := procCPU(proc.pid())
			if err != nil {
				return err
			}
			if cerr != nil {
				return cerr
			}
			cpu += cpu1 - cpu0
			units += len(sw.units)
			// Two units per sweep are checked against the single-run
			// path and a recomputation outside hexd.
			sample := map[int]bool{r % len(sw.units): true, (r*7919 + 1) % len(sw.units): true}
			c0, err := proc.counters()
			if err != nil {
				return err
			}
			for i, u := range sw.units {
				err := errs[i]
				if err == nil {
					err = checkUnit(u, bodies[i])
				}
				if err == nil && sample[i] {
					err = checkAgainstRun(proc, u, bodies[i])
				}
				o.op(err)
			}
			c1, err := proc.counters()
			if err != nil {
				return err
			}
			if d := counterDelta(c0, c1, "hexd_sim_runs_total"); d != 0 {
				o.breakf("single-run requests for finished sweep units simulated %v times", d)
			}
		}
		wall = append(wall, ms(roundTime)/float64(units))
		cpuPerRun = append(cpuPerRun, ms(cpu)/float64(units))
	}
	rss, err := peakRSSMiB(proc.pid())
	if err != nil {
		return err
	}
	if err := proc.stop(); err != nil {
		return err
	}
	setupS, err := setup.after()
	if err != nil {
		return err
	}
	o.set("setup_s", "s", setupS)
	logWall("campaign", wall)
	o.set("cpu_ms_per_op", "ms", median(cpuPerRun))
	o.set("peak_rss_mib", "MiB", rss)
	return nil
}

// checkAgainstRun checks that the single POST /v1/run of a finished unit
// answers with the unit's exact bytes, and that an independent
// recomputation agrees with them.
func checkAgainstRun(p *hexdProc, u runReq, body []byte) error {
	b, err := p.post("/v1/run", u.body())
	if err != nil {
		return err
	}
	if string(b) != string(body) {
		return fmt.Errorf("%w: /v1/run and sweep unit differ for seed %d", errMismatch, u.Seed)
	}
	rp, err := computeReplica(u, nil, -1, nil)
	if err != nil {
		return err
	}
	return checkReplica(u, body, rp)
}

// spanRunner is the jobs.Runner the traced campaign hands the manager: it
// forwards to the service and records a span around every call.
type spanRunner struct {
	svc    *service.Service
	sp     *spans
	parent atomic.Int64 // the span of the sweep in progress
}

func (r *spanRunner) RunUnit(ctx context.Context, timeout time.Duration, req service.RunRequest) (*coalesce.Value, error) {
	id := r.sp.begin("jobs.rununit", int(r.parent.Load()))
	defer r.sp.end(id)
	return r.svc.RunUnit(ctx, timeout, req)
}

func (r *spanRunner) RunUnits(ctx context.Context, timeout time.Duration, reqs []service.RunRequest) ([]*coalesce.Value, []error) {
	id := r.sp.begin("jobs.batch", int(r.parent.Load()))
	defer r.sp.end(id)
	return r.svc.RunUnits(ctx, timeout, reqs)
}

// campTraceRounds is the traced replay's fixed amount of work; its
// sweeps are a fifth of the timed run's.
const campTraceRounds = 2

func traceCampaign(cfg config, o *outcome) error {
	sp := &spans{}
	if err := buildGrids(sp, [][2]int{{campL, campW}}); err != nil {
		return err
	}
	dir, err := subdir(cfg, "store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, 256<<20)
	if err != nil {
		return err
	}
	svc := service.New(service.Options{Store: st, Logger: quietLogger})
	defer svc.Close()
	runner := &spanRunner{svc: svc, sp: sp}
	// One unit or batch in flight at a time: the time of a sweep when no
	// Runner call is in flight is then all the manager's own work per
	// unit (decomposition, dispatch, completion, event framing). With
	// hexd's wider window that work overlaps other units' Runner calls,
	// and their spans would hide it.
	mgr := jobs.NewManager(jobs.Options{Runner: runner, Service: svc.Options(), Store: st,
		MaxInFlight: 1, Logger: quietLogger})
	defer mgr.Close()

	var sample []runReq
	units := 0
	f0 := st.Fsyncs()
	var sweepSelf time.Duration
	for r := 0; r < campTraceRounds; r++ {
		for _, k := range campKinds {
			k.seeds /= 5
			sw := campaignSweep(cfg.seed, r, k, "trace")
			id := sp.begin("jobs.sweep", -1)
			runner.parent.Store(int64(id))
			j, _, err := mgr.Submit(sw.spec)
			if err != nil {
				return err
			}
			for !j.Done() {
				time.Sleep(50 * time.Microsecond)
			}
			sp.end(id)
			_, _, done, failed := j.Counts()
			for i := range sw.units {
				if i < done {
					o.op(nil)
				} else {
					o.op(fmt.Errorf("sweep unit failed (%d failed)", failed))
				}
			}
			units += len(sw.units)
			for i := 0; i < len(sw.units); i += len(sw.units) / 60 {
				sample = append(sample, sw.units[i])
			}
		}
	}
	fsyncs := st.Fsyncs() - f0
	self := sp.selfTimes()
	for i, s := range sp.list {
		if s.name == "jobs.sweep" {
			sweepSelf += self[i]
		}
	}
	o.set("jobs.overhead_ms_per_run", "ms", ms(sweepSelf)/float64(units))
	o.set("store.fsyncs_per_run", "count", float64(fsyncs)/float64(units))

	// The direct-call part: a sample of units replayed layer by layer,
	// and the agg results written as one group commit per replay.
	scratchDir, err := subdir(cfg, "scratch")
	if err != nil {
		return err
	}
	scratch, err := store.Open(scratchDir, 0)
	if err != nil {
		return err
	}
	replay := func(sp *spans, al *allocMeter) ([]error, error) {
		var errs []error
		var group []store.Entry
		for _, u := range sample {
			op := sp.op("campaign.unit")
			rp, err := computeReplica(u, sp, op, al)
			if err != nil {
				return nil, err
			}
			sp.end(op)
			errs = append(errs, checkSinglePulse(rp.h, rp.cfg.Faults, rp.res, rp.cfg.Params.Bounds))
			sr, err := serviceRequest(u, svc.Options())
			if err != nil {
				return nil, err
			}
			body := rp.statsBody(u)
			if u.Output == "agg" {
				body = rp.aggBody()
			}
			group = append(group, store.Entry{Key: sr.CanonicalKey(), Events: rp.res.Events, Body: body})
		}
		id := sp.begin("store.put_group", -1)
		err := scratch.PutGroup(group)
		sp.end(id)
		return errs, err
	}
	untraced, overhead, errs, err := replayPair(replay, sp)
	if err != nil {
		return err
	}
	for _, e := range errs {
		o.op(e)
	}
	reportLayers(o, sp, len(errs), untraced, overhead)
	m := sp.byName()
	o.set("jobs.batch_ms", "ms", meanMs(m, "jobs.batch"))
	o.set("store.put_group_ms", "ms", meanMs(m, "store.put_group"))
	return nil
}
