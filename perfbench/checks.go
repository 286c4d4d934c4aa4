package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/theory"
	"repro/internal/trace"
)

// This file holds the output checks. They take their bounds from
// internal/theory and read raw triggering times and the topology, so a
// wrong engine result cannot pass by agreeing with a wrong analysis.

// firstTrigger returns node n's first triggering time from either result
// shape.
func firstTrigger(res *core.Result, n int) (sim.Time, bool) {
	if res.FirstTriggers != nil {
		t := res.FirstTriggers[n]
		return t, t != core.NoTrigger
	}
	if len(res.Triggers[n]) == 0 {
		return 0, false
	}
	return res.Triggers[n][0], true
}

// checkSinglePulse checks one single-pulse run: every correct node
// triggers exactly once and no faulty node triggers; a fault-free wave
// lies layer by layer inside the Theorem 1 envelope; every correct node
// of a faulty run triggers inside its Lemma 5 window.
func checkSinglePulse(h *grid.Hex, plan *fault.Plan, res *core.Result, b delay.Bounds) error {
	n := h.NumNodes()
	correct, triggered := 0, 0
	for v := 0; v < n; v++ {
		_, ok := firstTrigger(res, v)
		if plan.IsFaulty(v) {
			if ok {
				return fmt.Errorf("faulty node %d triggered", v)
			}
			continue
		}
		correct++
		if !ok {
			continue
		}
		triggered++
		if res.Triggers != nil && len(res.Triggers[v]) != 1 {
			return fmt.Errorf("node %d triggered %d times in a single pulse", v, len(res.Triggers[v]))
		}
	}
	if triggered != correct {
		return fmt.Errorf("%d of %d correct nodes triggered", triggered, correct)
	}
	if plan.NumFaulty() == 0 {
		return checkTheorem1(h, res, b)
	}
	return checkLemma5(h, plan, res, b)
}

// checkTheorem1 checks a fault-free wave against Theorem 1: the
// intra-layer skew of layer ℓ is at most σℓ, and every inter-layer skew
// t(ℓ,i) − t(ℓ−1,·) lies in [d− − σℓ−1, d+ + σℓ−1], with Δ0 the spread of
// layer 0.
func checkTheorem1(h *grid.Hex, res *core.Result, b delay.Bounds) error {
	t := func(l, i int) sim.Time {
		v, _ := firstTrigger(res, h.NodeID(l, i))
		return v
	}
	lo0, hi0 := t(0, 0), t(0, 0)
	for i := 1; i < h.W; i++ {
		lo0, hi0 = sim.MinTime(lo0, t(0, i)), sim.MaxOf(hi0, t(0, i))
	}
	delta0 := hi0 - lo0
	for l := 1; l <= h.L; l++ {
		sigma := theory.Theorem1IntraBound(l, h.W, b, delta0)
		sigmaPrev := delta0
		if l > 1 {
			sigmaPrev = theory.Theorem1IntraBound(l-1, h.W, b, delta0)
		}
		wlo, whi := theory.Theorem1InterWindow(sigmaPrev, b)
		for i := 0; i < h.W; i++ {
			if s := sim.AbsTime(t(l, i) - t(l, (i+1)%h.W)); s > sigma {
				return fmt.Errorf("layer %d col %d: intra skew %v above Theorem 1 bound %v", l, i, s, sigma)
			}
			for _, j := range []int{i, (i + 1) % h.W} {
				if d := t(l, i) - t(l-1, j); d < wlo || d > whi {
					return fmt.Errorf("layer %d col %d: inter skew %v outside [%v, %v]", l, i, d, wlo, whi)
				}
			}
		}
	}
	return nil
}

// checkLemma5 checks that every correct node in layer ℓ triggers within
// [tmin + ℓd−, tmax + (ℓ+fℓ)d+], where [tmin, tmax] spans the correct
// layer-0 triggers and fℓ counts the layers below ℓ holding a fault.
func checkLemma5(h *grid.Hex, plan *fault.Plan, res *core.Result, b delay.Bounds) error {
	var tmin, tmax sim.Time
	first := true
	for _, v := range h.Layer(0) {
		if plan.IsFaulty(v) {
			continue
		}
		tv, _ := firstTrigger(res, v)
		if first || tv < tmin {
			tmin = tv
		}
		if first || tv > tmax {
			tmax = tv
		}
		first = false
	}
	fl := 0
	for l := 0; l <= h.L; l++ {
		lo, hi := theory.Lemma5TriggerWindow(tmin, tmax, l, fl, b)
		faultyHere := false
		for _, v := range h.Layer(l) {
			if plan.IsFaulty(v) {
				faultyHere = true
				continue
			}
			if tv, _ := firstTrigger(res, v); tv < lo || tv > hi {
				return fmt.Errorf("node %d (layer %d) triggered at %v outside Lemma 5 window [%v, %v]", v, l, tv, lo, hi)
			}
		}
		if faultyHere {
			fl++
		}
	}
	return nil
}

// checkStabilized checks §4.4's claim for a fault-free stabilization
// run: with link timeouts, skews stay below σ = 3d+ (threshold choice
// C = 1) from pulse 2 on.
func checkStabilized(out *experiment.StabOut, s experiment.StabSpec) error {
	sigma := experiment.SigmaChoice(1, s.Scenario, s.W, s.Faults, s.Bounds)
	k, ok := out.PA.StabilizationPulse(analysis.ThresholdsFromSigma(sigma, s.Bounds))
	if !ok {
		return fmt.Errorf("stabilization run did not stabilize within %d pulses", s.Pulses)
	}
	if k > 1 {
		return fmt.Errorf("stabilization run stabilized at pulse %d, after pulse 2", k+1)
	}
	return nil
}

// librarySeed mirrors the per-run seed experiment.RunManyCtx derives, so
// a run of a spec can be re-executed outside the library.
func librarySeed(s experiment.Spec, idx int) uint64 {
	return sim.DeriveSeed(s.Seed, s.Scenario.Name(),
		fmt.Sprintf("L%d-W%d", s.L, s.W),
		fmt.Sprintf("f%d-%s", s.Faults, s.FaultType),
		fmt.Sprintf("run%d", idx))
}

// placeFaults mirrors the library's fault placement for one run.
func placeFaults(h *grid.Hex, seed uint64, f int, ft fault.Behavior) (*fault.Plan, []int, error) {
	plan := fault.NewPlan(h.NumNodes())
	if f == 0 {
		return plan, nil, nil
	}
	rng := sim.NewRNG(sim.DeriveSeed(seed, "faults"))
	placed, err := fault.PlaceRandom(h.Graph, f, nil, rng, 0)
	if err != nil {
		return nil, nil, err
	}
	for _, v := range placed {
		plan.SetBehavior(v, ft)
	}
	if ft == fault.Byzantine {
		plan.RandomizeByzantine(h.Graph, rng)
	}
	return plan, placed, nil
}

// libraryRun is the core.Config of run idx of a single-pulse spec, as
// experiment.RunManyCtx builds it.
func libraryRun(s experiment.Spec, h *grid.Hex, idx int) (core.Config, error) {
	s = s.WithDefaults()
	seed := librarySeed(s, idx)
	offsets := source.Offsets(s.Scenario, s.W, s.Bounds, sim.NewRNG(sim.DeriveSeed(seed, "offsets")))
	plan, _, err := placeFaults(h, seed, s.Faults, s.FaultType)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Graph:    h.Graph,
		Params:   s.Params,
		Delay:    delay.Uniform{Bounds: s.Bounds},
		Faults:   plan,
		Schedule: source.SinglePulse(offsets),
		Seed:     seed,
	}, nil
}

// auditRun re-executes a library run with a trace.Recorder, checks that
// it reproduces the original result, and audits the event stream
// against Algorithm 1.
func auditRun(s experiment.Spec, out *experiment.RunOut, idx int) error {
	cfg, err := libraryRun(s, out.Hex, idx)
	if err != nil {
		return err
	}
	rec := &trace.Recorder{}
	cfg.Trace = rec
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	if res.Events != out.Res.Events {
		return fmt.Errorf("re-execution ran %d events, the library run %d", res.Events, out.Res.Events)
	}
	for v := range res.Triggers {
		a, _ := firstTrigger(res, v)
		b, _ := firstTrigger(out.Res, v)
		if a != b {
			return fmt.Errorf("re-execution differs at node %d", v)
		}
	}
	aud := &trace.Auditor{G: out.Hex.Graph, Plan: cfg.Faults, Params: cfg.Params}
	return aud.AuditAll(rec)
}

// runReq is one POST /v1/run request as the benchmark generates it.
type runReq struct {
	L, W     int
	Scenario source.Scenario
	Faults   int
	Type     fault.Behavior
	Seed     uint64
	Output   string
}

// body is the request's JSON encoding.
func (r runReq) body() []byte {
	m := map[string]any{"l": r.L, "w": r.W, "scenario": r.Scenario.Name(), "seed": r.Seed}
	if r.Faults > 0 {
		m["faults"] = r.Faults
		m["fault_type"] = r.Type.String()
	}
	if r.Output != "" {
		m["output"] = r.Output
	}
	b, _ := json.Marshal(m)
	return b
}

// serviceRun is the core.Config hexd builds for a /v1/run request, and
// the faulty nodes it placed.
func serviceRun(r runReq, h *grid.Hex) (core.Config, []int, error) {
	plan, placed, err := placeFaults(h, r.Seed, r.Faults, r.Type)
	if err != nil {
		return core.Config{}, nil, err
	}
	params := core.DefaultParams()
	offsets := source.Offsets(r.Scenario, r.W, params.Bounds, sim.NewRNG(sim.DeriveSeed(r.Seed, "offsets")))
	return core.Config{
		Graph:            h.Graph,
		Params:           params,
		Delay:            delay.Uniform{Bounds: params.Bounds},
		Faults:           plan,
		Schedule:         source.SinglePulse(offsets),
		Seed:             r.Seed,
		FirstTriggerOnly: r.Output == "agg",
	}, placed, nil
}

// replica recomputes a /v1/run response outside hexd, one layer call at a
// time: grid, core, analysis, stats. When sp is non-nil each layer call
// gets a span under parent; al, when non-nil, meters core.Run's
// allocations.
type replica struct {
	h      *grid.Hex
	cfg    core.Config
	placed []int
	res    *core.Result
	wave   *analysis.Wave
	intra  stats.Summary
	inter  stats.Summary
}

func computeReplica(r runReq, sp *spans, parent int, al *allocMeter) (*replica, error) {
	id := sp.begin("grid.shared", parent)
	h, err := grid.Shared.Build(r.L, r.W, false)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	cfg, placed, err := serviceRun(r, h)
	if err != nil {
		return nil, err
	}
	id = sp.begin("core.run", parent)
	al.start()
	res, err := core.Run(cfg)
	al.stop()
	sp.endEvents(id, res)
	if err != nil {
		return nil, err
	}
	id = sp.begin("analysis.wave", parent)
	var w *analysis.Wave
	if r.Output == "agg" {
		w = analysis.WaveFromFirstTriggers(h.Graph, res, cfg.Faults)
	} else {
		w = analysis.WaveFromResult(h.Graph, res, cfg.Faults, 0)
	}
	sp.end(id)
	id = sp.begin("stats.summary", parent)
	scale := float64(sim.Nanosecond)
	intra := stats.SummarizeScaled(w.AppendIntraSkewTimes(nil), scale)
	inter := stats.SummarizeScaled(w.AppendInterSkewTimes(nil), scale)
	sp.end(id)
	return &replica{h: h, cfg: cfg, placed: placed, res: res, wave: w, intra: intra, inter: inter}, nil
}

// statsBody encodes the replica as hexd's stats-output response body.
func (rp *replica) statsBody(r runReq) []byte {
	resp := service.RunResponse{
		L: r.L, W: r.W, Scenario: r.Scenario.Name(), Faults: r.Faults, Seed: r.Seed,
		FaultyNodes: rp.placed,
		Triggered:   rp.wave.TriggeredCount(),
		Events:      rp.res.Events,
		HorizonNs:   rp.res.Horizon.Nanoseconds(),
		IntraSkewNs: summaryJSON(rp.intra),
		InterSkewNs: summaryJSON(rp.inter),
	}
	if r.Faults > 0 {
		resp.FaultType = r.Type.String()
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes()
}

// aggBody encodes the replica as an HXA1 aggregate record with no wall
// time, the shape a campaign unit stores.
func (rp *replica) aggBody() []byte {
	return store.EncodeAggregate(&store.Aggregate{
		Triggered: uint32(rp.wave.TriggeredCount()),
		Events:    rp.res.Events,
		Horizon:   rp.res.Horizon,
		IntraSkew: rp.intra,
		InterSkew: rp.inter,
	})
}

func summaryJSON(s stats.Summary) service.SummaryJSON {
	return service.SummaryJSON{Min: s.Min, Q5: s.Q5, Avg: s.Avg, Q95: s.Q95, Max: s.Max, N: s.N}
}

// checkReplica checks a served response against the replica: stats
// bodies must be byte-identical; aggregate records must decode, pass
// their checksum, and agree in every field but the wall time they
// carry. The replica's own wave is checked against the paper's bounds.
func checkReplica(r runReq, body []byte, rp *replica) error {
	if err := checkSinglePulse(rp.h, rp.cfg.Faults, rp.res, rp.cfg.Params.Bounds); err != nil {
		return err
	}
	if r.Output != "agg" {
		if !bytes.Equal(body, rp.statsBody(r)) {
			return fmt.Errorf("%w: stats body for seed %d", errMismatch, r.Seed)
		}
		return nil
	}
	a, err := store.DecodeAggregate(body)
	if err != nil {
		return err
	}
	if int(a.Triggered) != rp.wave.TriggeredCount() || a.Events != rp.res.Events ||
		a.Horizon != rp.res.Horizon || a.IntraSkew != rp.intra || a.InterSkew != rp.inter {
		return fmt.Errorf("%w: aggregate for seed %d", errMismatch, r.Seed)
	}
	return nil
}

// checkStatsBody checks what can be checked of a stats body without
// recomputing it: it decodes, echoes the request, and reports one
// trigger per correct node.
func checkStatsBody(r runReq, body []byte) error {
	var resp service.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.L != r.L || resp.W != r.W || resp.Seed != r.Seed || resp.Faults != r.Faults || resp.Scenario != r.Scenario.Name() {
		return fmt.Errorf("%w: response does not echo its request (seed %d)", errMismatch, r.Seed)
	}
	if want := (r.L+1)*r.W - r.Faults; resp.Triggered != want || resp.Events == 0 {
		return fmt.Errorf("seed %d: %d nodes triggered, want %d", r.Seed, resp.Triggered, want)
	}
	return nil
}

// checkAggBody checks an HXA1 aggregate record the same way.
func checkAggBody(r runReq, body []byte) error {
	a, err := store.DecodeAggregate(body)
	if err != nil {
		return err
	}
	if want := (r.L+1)*r.W - r.Faults; int(a.Triggered) != want || a.Events == 0 {
		return fmt.Errorf("seed %d: %d nodes triggered, want %d", r.Seed, a.Triggered, want)
	}
	return nil
}
