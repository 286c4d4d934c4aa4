package main

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
)

// The large inputs are POST /v1/run requests with fresh seeds, rotating
// in equal shares through three grid shapes from 40 000 nodes up to
// hexd's admitted maximum of 250 000. They are replayed by the traced run
// only: as an end-to-end workload their latency and peak memory spread too
// widely from run to run on the reference host to hold a change to a
// bound (README.md).
var largeShapes = [][2]int{{199, 200}, {299, 367}, {499, 500}} // 40 000, 110 100, 250 000 nodes

// largeReq generates request i: shape i mod 3, a fresh seed, and a
// scenario and fault count (0–2) that change every rotation and cycle
// through all twelve combinations in twelve rotations, so every run sends
// the same mix.
func largeReq(seed uint64, tag string, i int) runReq {
	s := largeShapes[i%len(largeShapes)]
	r := i / len(largeShapes)
	f := r / 4 % 3
	return runReq{L: s[0], W: s[1], Scenario: source.Scenarios[r%4], Faults: f, Type: defaultType(f),
		Seed: sim.DeriveSeed(seed, "large", tag, fmt.Sprint(i))>>11 | 1}
}

// largeTraceRounds is the traced replay's fixed amount of work.
const largeTraceRounds = 2

func traceLarge(cfg config, o *outcome) error {
	sp := &spans{}
	if err := buildGrids(sp, largeShapes); err != nil {
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
	// Build the shared grids first, so RunUnit below runs on warm grids,
	// as hexd does in the timed run.
	for _, s := range largeShapes {
		if _, err := grid.Shared.Build(s[0], s[1], false); err != nil {
			return err
		}
	}
	var reqs []runReq
	for i := 0; i < largeTraceRounds*len(largeShapes); i++ {
		r := largeReq(cfg.seed, "trace", i)
		reqs = append(reqs, r)
		body, err := runUnit(svc, r)
		if err == nil {
			var rp *replica
			if rp, err = computeReplica(r, nil, -1, nil); err == nil {
				err = checkReplica(r, body, rp)
			}
		}
		o.op(err)
	}
	replay := func(sp *spans, al *allocMeter) ([]error, error) {
		var errs []error
		for _, r := range reqs {
			op := sp.op("large.run")
			rp, err := computeReplica(r, sp, op, al)
			if err != nil {
				return nil, err
			}
			id := sp.begin("encode", op)
			rp.statsBody(r)
			sp.end(id)
			sp.end(op)
			errs = append(errs, nil)
		}
		return errs, nil
	}
	untraced, overhead, errs, err := replayPair(replay, sp)
	if err != nil {
		return err
	}
	for _, e := range errs {
		o.op(e)
	}
	reportLayers(o, sp, len(errs), untraced, overhead)
	return nil
}
