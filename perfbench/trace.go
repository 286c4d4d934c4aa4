package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/grid"
)

// traces are the traced replays in the order the traced run runs them.
// The per-layer metrics of every replay come from one run, named
// "<replay>.<metric>", so each is measured on the inputs whose layers it
// describes. large has no end-to-end workload (README.md) but keeps its
// replay: it is where grid builds, allocation and GC at 250 000 nodes
// show.
var traces = []struct {
	name string
	fn   func(cfg config, o *outcome) error
}{
	{"paper", tracePaper},
	{"serve", traceServe},
	{"campaign", traceCampaign},
	{"large", traceLarge},
}

// runTraced replays every workload through its layers and merges their
// outcomes into o under prefixed names.
func runTraced(cfg config, o *outcome) error {
	for _, t := range traces {
		sub := newOutcome()
		c := cfg
		c.workload = t.name
		if err := t.fn(c, sub); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		o.attempted += sub.attempted
		o.failed += sub.failed
		o.broken = append(o.broken, sub.broken...)
		for m, v := range sub.metrics {
			o.metrics[t.name+"."+m] = v
		}
	}
	return nil
}

// buildGrids times fresh (uncached) constructions of each shape, three
// per shape: grid.build_ms is what a cold grid cache costs.
func buildGrids(sp *spans, shapes [][2]int) error {
	for _, s := range shapes {
		for i := 0; i < 3; i++ {
			id := sp.begin("grid.build", -1)
			_, err := grid.NewHex(s[0], s[1])
			sp.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// allocMeter sums heap bytes allocated between start and stop calls, read
// from runtime/metrics (no stop-the-world). Attribution is exact only
// while one goroutine allocates, which holds for the replays that use
// it. A nil meter does nothing.
type allocMeter struct {
	sample []metrics.Sample
	at     uint64
	bytes  uint64
	n      int
}

func newAllocMeter() *allocMeter {
	return &allocMeter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (a *allocMeter) read() uint64 {
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64()
}

func (a *allocMeter) start() {
	if a != nil {
		a.at = a.read()
	}
}

func (a *allocMeter) stop() {
	if a != nil {
		a.bytes += a.read() - a.at
		a.n++
	}
}

// replayStats is one pass over a replay.
type replayStats struct {
	dur      time.Duration
	gcCycles uint32
	alloc    *allocMeter
}

// timeReplay runs one pass of a replay, with spans when sp is non-nil and
// without when it is nil, so the two passes differ only by tracing.
func timeReplay(fn func(sp *spans, al *allocMeter) ([]error, error), sp *spans) (replayStats, []error, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	al := newAllocMeter()
	t0 := time.Now()
	errs, err := fn(sp, al)
	st := replayStats{dur: time.Since(t0), alloc: al}
	runtime.ReadMemStats(&m1)
	st.gcCycles = m1.NumGC - m0.NumGC
	return st, errs, err
}

// replayPair runs a replay three times: once to warm caches and the
// heap, once untraced, and once with spans into sp. The per-layer numbers
// come from the traced pass.
//
// overheadPct is what recording the traced pass's spans cost, as a share
// of the untraced pass: the spans it recorded times the measured cost of
// recording one. Timing the two passes against each other does not show
// it: a span costs well under a microsecond against milliseconds of work
// around it, and the passes' durations differ by more than that from one
// pass to the next, in either direction.
func replayPair(fn func(sp *spans, al *allocMeter) ([]error, error), sp *spans) (untraced replayStats, overheadPct float64, errs []error, err error) {
	if _, _, err = timeReplay(fn, nil); err != nil {
		return
	}
	if untraced, _, err = timeReplay(fn, nil); err != nil {
		return
	}
	before := len(sp.list)
	if _, errs, err = timeReplay(fn, sp); err != nil {
		return
	}
	recorded := float64(len(sp.list) - before)
	overheadPct = 100 * recorded * spanCost().Seconds() / untraced.dur.Seconds()
	return
}

// spanCost is what recording one span costs: the time of a run of
// begin/end pairs on a scratch recorder, per pair.
func spanCost() time.Duration {
	const n = 1 << 16
	sp := &spans{}
	op := sp.op("cost")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp.end(sp.begin("cost", op))
	}
	return time.Since(t0) / n
}

// reportLayers derives the engine-side per-layer metrics from a traced
// pass and the untraced pass of the same replay. ops is the number of
// operations in one pass.
func reportLayers(o *outcome, sp *spans, ops int, untraced replayStats, overheadPct float64) {
	m := sp.byName()
	if st := m["core.run"]; st != nil && st.n > 0 {
		o.set("core.run_ms", "ms", ms(st.total)/float64(st.n))
		o.set("core.events_per_s", "1/s", float64(st.events)/st.total.Seconds())
		o.set("core.events_per_run", "count", float64(st.events)/float64(st.n))
	}
	if a := untraced.alloc; a != nil && a.n > 0 {
		o.set("core.alloc_mib_per_run", "MiB", float64(a.bytes)/float64(a.n)/(1<<20))
	}
	o.set("grid.build_ms", "ms", meanMs(m, "grid.build"))
	o.set("analysis.wave_ms", "ms", meanMs(m, "analysis.wave"))
	o.set("stats.summary_ms", "ms", meanMs(m, "stats.summary"))
	if ops > 0 {
		o.set("runtime.gc_cycles_per_op", "count", float64(untraced.gcCycles)/float64(ops))
	}
	o.set("unaccounted_ms", "ms", sp.unaccountedMs())
	o.set("trace.overhead_pct", "%", overheadPct)
}
