package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/store"
)

// The serve workload drives POST /v1/run on hexd in an open loop at one
// fixed rate, well below what two cores serve, so no backlog forms. The
// stream interleaves three classes in equal shares — request i is class
// i mod 3:
//
//	hit:  one of serveHot keys computed during set-up, held in the LRU;
//	disk: a key written through hexd during set-up and requested once
//	      after hexd restarted over the same store, so it is a store read;
//	miss: a fresh seed, which simulates and writes behind to the store.
const (
	serveRate = 200 // requests per second, all classes together
	serveHot  = 8
	serveL    = 50
	serveW    = 20
)

var serveClasses = []string{"hit", "disk", "miss"}

// serveReq generates request i of a class: L50_W20 stats output, a fresh
// seed, and a scenario, fault count (0–2) and fault type that cycle with
// i, so every run sends the same mix.
func serveReq(seed uint64, class string, i int) runReq {
	f := i / 4 % 3
	ft := defaultType(f)
	if f > 0 && i/12%2 == 1 {
		ft = fault.FailSilent
	}
	return runReq{
		L: serveL, W: serveW,
		Scenario: source.Scenarios[i%4],
		Faults:   f,
		Type:     ft,
		Seed:     sim.DeriveSeed(seed, "serve", class, fmt.Sprint(i))>>11 | 1,
	}
}

// serveCounts returns how many requests of each class a run sends:
// seconds × rate requests, split equally.
func serveCounts(seconds float64) (perClass int) {
	return int(math.Ceil(seconds * serveRate / 3))
}

// serveSchedule maps open-loop request i to its class and the index of
// its key within that class.
func serveSchedule(i int) (class, key int) { return i % 3, i / 3 }

func runServe(cfg config, o *outcome) error {
	perClass := serveCounts(cfg.seconds)
	storeDir, err := subdir(cfg, "store")
	if err != nil {
		return err
	}
	postDir, err := subdir(cfg, "store-post")
	if err != nil {
		return err
	}
	logPath := hexdLog(cfg)
	// Each set-up pass launches hexd, writes `share` disk keys through
	// it, and stops it. The passes before the window write the keys the
	// window reads; those after it write as many more into a store of
	// their own.
	share := (perClass + setupBefore - 1) / setupBefore
	disk := make([]runReq, share*(setupBefore+setupAfter))
	diskBody := make([][]byte, len(disk))
	for j := range disk {
		disk[j] = serveReq(cfg.seed, "disk", j)
	}
	passDir := func(p int) (string, error) {
		if p < setupBefore {
			return storeDir, nil
		}
		return postDir, nil
	}
	setup := setupTimer{pass: hexdPass(cfg, passDir, logPath, nil, func(h *hexdProc, p int) error {
		err := closedLoop(share, runtime.NumCPU(), func(i int) error {
			j := p*share + i
			b, err := h.post("/v1/run", disk[j].body())
			if err == nil {
				err = checkStatsBody(disk[j], b)
			}
			diskBody[j] = b
			return err
		})
		if err != nil {
			return fmt.Errorf("writing disk keys: %w", err)
		}
		return nil
	})}
	if err := setup.before(); err != nil {
		return err
	}

	proc, err := startHexd(cfg.hexd, storeDir, logPath)
	if err != nil {
		return err
	}
	defer proc.stop()
	hot := make([]runReq, serveHot)
	hotBody := make([][]byte, serveHot)
	for k := range hot {
		hot[k] = serveReq(cfg.seed, "hot", k)
		if hotBody[k], err = proc.post("/v1/run", hot[k].body()); err != nil {
			return err
		}
		if err := checkStatsBody(hot[k], hotBody[k]); err != nil {
			return err
		}
	}
	// Warm the worker arenas and the connection pool outside the window.
	if err := closedLoop(32, runtime.NumCPU(), func(i int) error {
		_, err := proc.post("/v1/run", serveReq(cfg.seed, "warm", i).body())
		return err
	}); err != nil {
		return err
	}

	c0, err := proc.counters()
	if err != nil {
		return err
	}
	n := 3 * perClass
	bodies := make([][]byte, n)
	cpu0, err := procCPU(proc.pid())
	if err != nil {
		return err
	}
	samples := openLoop(realClock{}, n, time.Second/serveRate, runtime.NumCPU(), func(i int) error {
		var r runReq
		switch c, k := serveSchedule(i); c {
		case 0:
			r = hot[k%serveHot]
		case 1:
			r = disk[k]
		default:
			r = serveReq(cfg.seed, "miss", k)
		}
		b, err := proc.post("/v1/run", r.body())
		bodies[i] = b
		return err
	})
	cpu1, err := procCPU(proc.pid())
	if err != nil {
		return err
	}
	c1, err := proc.counters()
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB(proc.pid())
	if err != nil {
		return err
	}

	lat := make([][]float64, 3)
	var late []float64
	for i, s := range samples {
		c, k := serveSchedule(i)
		err := s.err
		if err == nil {
			switch c {
			case 0:
				if !bytes.Equal(bodies[i], hotBody[k%serveHot]) {
					err = fmt.Errorf("%w: hit %d", errMismatch, k)
				}
			case 1:
				if !bytes.Equal(bodies[i], diskBody[k]) {
					err = fmt.Errorf("%w: disk %d", errMismatch, k)
				}
			default:
				r := serveReq(cfg.seed, "miss", k)
				err = checkStatsBody(r, bodies[i])
				// Every 16th miss is recomputed outside hexd and must
				// match byte for byte.
				if err == nil && k%16 == 0 {
					var rp *replica
					if rp, err = computeReplica(r, nil, -1, nil); err == nil {
						err = checkReplica(r, bodies[i], rp)
					}
				}
			}
		}
		o.op(err)
		lat[c] = append(lat[c], ms(s.latency()))
		late = append(late, ms(s.lateness()))
	}
	checkServeCounters(o, c0, c1, perClass)
	if p99, ok := percentile(late, 99); ok {
		fmt.Fprintf(os.Stderr, "perfbench: serve generator lateness p50 %.3f p99 %.3f ms\n", median(late), p99)
	}

	if err := proc.stop(); err != nil {
		return err
	}
	setupS, err := setup.after()
	if err != nil {
		return err
	}
	o.set("setup_s", "s", setupS)
	o.set("cpu_ms_per_op", "ms", ms(cpu1-cpu0)/float64(n))
	o.set("peak_rss_mib", "MiB", rss)
	// Latency is logged, not reported: even the class medians follow how
	// much CPU time the hypervisor steals during the run (README.md).
	var p50 strings.Builder
	for c, name := range serveClasses {
		fmt.Fprintf(&p50, " %s %.3f", name, median(lat[c]))
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve p50 latency ms:%s\n", p50.String())
	return nil
}

// checkServeCounters confirms from hexd's own counters that each class
// took its path: every hit answered from the LRU, every disk request
// from the store, and every miss simulated exactly once.
func checkServeCounters(o *outcome, c0, c1 map[string]float64, perClass int) {
	want := map[string]int{
		"hexd_cache_hits_total": perClass,
		"hexd_store_hits_total": perClass,
		"hexd_sim_runs_total":   perClass,
	}
	for name, w := range want {
		if d := counterDelta(c0, c1, name); d != float64(w) {
			o.breakf("%s grew by %v during the window, want %d", name, d, w)
		}
	}
}

// quietLogger discards the in-process service's request log.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// serviceRequest normalizes a generated request for in-process calls.
func serviceRequest(r runReq, opts service.Options) (service.RunRequest, error) {
	sr := service.RunRequest{L: r.L, W: r.W, Scenario: r.Scenario.Name(), Seed: r.Seed, Output: r.Output}
	if r.Faults > 0 {
		sr.Faults, sr.FaultType = r.Faults, r.Type.String()
	}
	return sr, sr.Normalize(opts)
}

// runUnit runs one request in-process and returns its body.
func runUnit(svc *service.Service, r runReq) ([]byte, error) {
	sr, err := serviceRequest(r, svc.Options())
	if err != nil {
		return nil, err
	}
	v, err := svc.RunUnit(context.Background(), time.Minute, sr)
	if err != nil {
		return nil, err
	}
	return v.Body, nil
}

// serveTracePerClass is the traced replay's fixed amount of work.
const serveTracePerClass = 150

func traceServe(cfg config, o *outcome) error {
	sp := &spans{}
	if err := buildGrids(sp, [][2]int{{serveL, serveW}}); err != nil {
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
	// Two disk key sets: one read in-process, one over HTTP; each key is
	// a store read exactly once.
	n := serveTracePerClass
	diskA := make([]runReq, n)
	diskB := make([]runReq, n)
	svc := service.New(service.Options{Store: st, Logger: quietLogger})
	for j := 0; j < n; j++ {
		diskA[j], diskB[j] = serveReq(cfg.seed, "disk", j), serveReq(cfg.seed, "disk", n+j)
		for _, r := range []runReq{diskA[j], diskB[j]} {
			if _, err := runUnit(svc, r); err != nil {
				return err
			}
		}
	}
	svc.Close()
	if st, err = store.Open(dir, 256<<20); err != nil {
		return err
	}
	svc = service.New(service.Options{Store: st, Logger: quietLogger})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	post := func(r runReq) ([]byte, error) {
		resp, err := client.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(r.body()))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("POST /v1/run: %s", resp.Status)
		}
		return b, err
	}
	hot := make([]runReq, serveHot)
	for k := range hot {
		hot[k] = serveReq(cfg.seed, "hot", k)
		if _, err := runUnit(svc, hot[k]); err != nil {
			return err
		}
	}
	scratchDir, err := subdir(cfg, "scratch")
	if err != nil {
		return err
	}
	scratch, err := store.Open(scratchDir, 0)
	if err != nil {
		return err
	}
	scrape := func() (map[string]float64, error) {
		resp, err := client.Get(srv.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return parseCounters(resp.Body)
	}
	c0, err := scrape()
	if err != nil {
		return err
	}
	timed := func(name string, fn func() error) error {
		id := sp.begin(name, -1)
		err := fn()
		sp.end(id)
		return err
	}
	var misses []runReq
	for i := 0; i < 3*n; i++ {
		c, k := serveSchedule(i)
		var err error
		switch c {
		case 0:
			r := hot[k%serveHot]
			err = timed("rununit.hit", func() error { _, err := runUnit(svc, r); return err })
			if err == nil {
				err = timed("http.hit", func() error { _, err := post(r); return err })
			}
		case 1:
			err = timed("store.get", func() error {
				sr, err := serviceRequest(diskA[k], svc.Options())
				if err == nil {
					var ok bool
					if _, ok, err = st.Get(sr.CanonicalKey()); err == nil && !ok {
						err = fmt.Errorf("disk key %d is not in the store", k)
					}
				}
				return err
			})
			if err == nil {
				err = timed("rununit.disk", func() error { _, err := runUnit(svc, diskA[k]); return err })
			}
			if err == nil {
				err = timed("http.disk", func() error { _, err := post(diskB[k]); return err })
			}
		default:
			r := serveReq(cfg.seed, "miss", k)
			var body []byte
			err = timed("rununit.miss", func() error { var err error; body, err = runUnit(svc, r); return err })
			if err == nil {
				var rp *replica
				if rp, err = computeReplica(r, nil, -1, nil); err == nil {
					err = checkReplica(r, body, rp)
				}
			}
			if err == nil {
				err = timed("http.miss", func() error { _, err := post(serveReq(cfg.seed, "miss", n+k)); return err })
			}
			misses = append(misses, r)
		}
		o.op(err)
	}
	c1, err := scrape()
	if err != nil {
		return err
	}
	if d := counterDelta(c0, c1, "hexd_cache_hits_total") + counterDelta(c0, c1, "hexd_cache_misses_total"); d > 0 {
		o.set("coalesce.lru_hit_ratio", "ratio", counterDelta(c0, c1, "hexd_cache_hits_total")/d)
	}
	if d := counterDelta(c0, c1, "hexd_cache_misses_total"); d > 0 {
		o.set("store.hit_ratio", "ratio", counterDelta(c0, c1, "hexd_store_hits_total")/d)
	}

	// The direct-call part: each miss replayed layer by layer — grid,
	// core, analysis, stats, encoding, store write — as one operation.
	replay := func(sp *spans, al *allocMeter) ([]error, error) {
		var errs []error
		for _, r := range misses {
			op := sp.op("serve.miss")
			rp, err := computeReplica(r, sp, op, al)
			if err != nil {
				return nil, err
			}
			id := sp.begin("encode", op)
			body := rp.statsBody(r)
			sp.end(id)
			sr, err := serviceRequest(r, svc.Options())
			if err != nil {
				return nil, err
			}
			id = sp.begin("store.put", op)
			err = scratch.Put(store.Entry{Key: sr.CanonicalKey(), ContentType: "application/json", Events: rp.res.Events, Body: body})
			sp.end(id)
			sp.end(op)
			errs = append(errs, err)
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
	m := sp.byName()
	o.set("coalesce.hit_us", "us", 1000*meanMs(m, "rununit.hit"))
	o.set("http.overhead_ms", "ms", meanMs(m, "http.hit")-meanMs(m, "rununit.hit"))
	o.set("store.get_ms", "ms", meanMs(m, "store.get"))
	o.set("store.put_ms", "ms", meanMs(m, "store.put"))
	o.set("service.overhead_ms", "ms", meanMs(m, "rununit.miss")-
		(meanMs(m, "grid.shared")+meanMs(m, "core.run")+meanMs(m, "analysis.wave")+meanMs(m, "stats.summary")))

	// Generator lateness: the open-loop sender against the in-process
	// server at the workload's rate, on hits so the server is idle.
	probe := openLoop(realClock{}, 1000, time.Second/serveRate, runtime.NumCPU(), func(i int) error {
		_, err := post(hot[i%serveHot])
		return err
	})
	var late []float64
	for _, s := range probe {
		late = append(late, ms(s.lateness()))
		o.op(s.err)
	}
	if p99, ok := percentile(late, 99); ok {
		o.set("loadgen.late_p99_ms", "ms", p99)
	}
	return nil
}
