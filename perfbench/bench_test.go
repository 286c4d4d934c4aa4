package main

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // ten samples (991..1000) lie beyond
		{999, 99, 0, false},   // rank 990, only nine beyond
		{100, 90, 90, true},
		{99, 90, 0, false},
		{39, 50, 20, true}, // a median needs no samples beyond it
		{1, 50, 1, true},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
		if !ok && !math.IsNaN(got) {
			t.Errorf("unreportable percentile(n=%d, p%v) = %v, want NaN", c.n, c.p, got)
		}
	}
}

// fakeClock advances only when a request runs or a sender sleeps past
// the present.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromSchedule(t *testing.T) {
	// Requests are due every 10 ms but take 25 ms on the one sender, so
	// each is sent later than the last: latency counts from the due
	// time, and the growing lateness is reported.
	clk := &fakeClock{now: time.Unix(0, 0)}
	ms10 := 10 * time.Millisecond
	out := openLoop(clk, 3, ms10, 1, func(int) error {
		clk.advance(25 * time.Millisecond)
		return nil
	})
	wantLat := []time.Duration{25, 40, 55}
	wantLate := []time.Duration{0, 15, 30}
	for i, s := range out {
		if s.latency() != wantLat[i]*time.Millisecond || s.lateness() != wantLate[i]*time.Millisecond {
			t.Errorf("request %d: latency %v lateness %v, want %vms %vms", i, s.latency(), s.lateness(), wantLat[i], wantLate[i])
		}
		if due := time.Unix(0, 0).Add(time.Duration(i+1) * ms10); !s.due.Equal(due) {
			t.Errorf("request %d due at %v, want %v", i, s.due, due)
		}
	}

	// A fast server keeps every request on schedule.
	clk = &fakeClock{now: time.Unix(0, 0)}
	out = openLoop(clk, 5, ms10, 1, func(int) error {
		clk.advance(time.Millisecond)
		return nil
	})
	for i, s := range out {
		if s.latency() != time.Millisecond || s.lateness() != 0 {
			t.Errorf("fast request %d: latency %v lateness %v", i, s.latency(), s.lateness())
		}
	}
}

const metricsPage = `# HELP hexd_cache_hits_total Result-cache lookups answered from memory.
# TYPE hexd_cache_hits_total counter
hexd_cache_hits_total 41
hexd_store_hits_total 7 1700000000000
hexd_request_seconds_bucket{endpoint="run",le="0.005"} 12
hexd_events_per_sec 1.5e+06
`

func TestParseCountersAndDeltas(t *testing.T) {
	before, err := parseCounters(strings.NewReader(metricsPage))
	if err != nil {
		t.Fatal(err)
	}
	if before["hexd_cache_hits_total"] != 41 || before["hexd_store_hits_total"] != 7 || before["hexd_events_per_sec"] != 1.5e6 {
		t.Errorf("parsed %v", before)
	}
	for name := range before {
		if strings.Contains(name, "{") {
			t.Errorf("labelled series %q parsed as a total", name)
		}
	}
	after, err := parseCounters(strings.NewReader(strings.Replace(metricsPage, "hits_total 41", "hits_total 1041", 1) +
		"hexd_sim_runs_total 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d := counterDelta(before, after, "hexd_cache_hits_total"); d != 1000 {
		t.Errorf("cache hit delta %v, want 1000", d)
	}
	if d := counterDelta(before, after, "hexd_sim_runs_total"); d != 5 {
		t.Errorf("a counter first seen after the window: delta %v, want 5", d)
	}
}

func TestServeClassAccounting(t *testing.T) {
	const perClass = 1000
	counts := make([]int, 3)
	seen := make([]map[int]int, 3)
	for c := range seen {
		seen[c] = map[int]int{}
	}
	for i := 0; i < 3*perClass; i++ {
		c, k := serveSchedule(i)
		counts[c]++
		seen[c][k]++
	}
	for c, name := range serveClasses {
		if counts[c] != perClass {
			t.Errorf("%s: %d requests, want %d", name, counts[c], perClass)
		}
	}
	// Each disk key is requested exactly once, so every disk request is
	// a store read.
	for k := 0; k < perClass; k++ {
		if seen[1][k] != 1 {
			t.Fatalf("disk key %d requested %d times", k, seen[1][k])
		}
	}
	// The benchmark's 15 s run gives every class the 1000 samples a p99
	// would need.
	if got := serveCounts(15); got != 1000 {
		t.Errorf("serveCounts(15) = %d per class at %d/s, want 1000", got, serveRate)
	}

	c0 := map[string]float64{"hexd_cache_hits_total": 5, "hexd_store_hits_total": 2, "hexd_sim_runs_total": 40}
	c1 := map[string]float64{"hexd_cache_hits_total": 5 + perClass, "hexd_store_hits_total": 2 + perClass, "hexd_sim_runs_total": 40 + perClass}
	o := newOutcome()
	checkServeCounters(o, c0, c1, perClass)
	if len(o.broken) != 0 {
		t.Errorf("matching counters flagged: %v", o.broken)
	}
	// One hit that went to the store instead shows in two counters.
	c1["hexd_cache_hits_total"]--
	c1["hexd_store_hits_total"]++
	o = newOutcome()
	checkServeCounters(o, c0, c1, perClass)
	if len(o.broken) != 2 {
		t.Errorf("a misrouted hit flagged %d counters, want 2: %v", len(o.broken), o.broken)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	line := "4242 (hex d) (x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 9 0 100 0 0"
	got, err := parseProcStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("utime+stime = %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU("4242 (hexd S 1"); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestParseStealLine(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	steal, total, err := parseStealLine("cpu  600 0 100 200 10 0 10 80 50 0")
	if err != nil {
		t.Fatal(err)
	}
	if steal != 80 || total != 1000 {
		t.Errorf("steal, total = %d, %d, want 80, 1000 (guest time is already in user)", steal, total)
	}
	if _, _, err := parseStealLine("cpu0 1 2 3 4 5 6 7 8"); err == nil {
		t.Error("per-CPU line accepted as the aggregate")
	}
}

// add records an already-timed span (test helper).
func (s *spans) add(name string, parent int, start, end time.Time) {
	if s == nil {
		return
	}
	id := s.begin(name, parent)
	s.mu.Lock()
	s.list[id].start, s.list[id].end = start, end
	s.mu.Unlock()
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := &spans{}
	root := sp.op("op")
	sp.list[root].start, sp.list[root].end = at(0), at(100)
	sp.add("a", root, at(10), at(40))
	sp.add("b", root, at(30), at(60)) // overlaps a: the union is 10..60
	sp.add("c", root, at(90), at(120))
	self := sp.selfTimes()
	if want := 100*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond; self[root] != want {
		t.Errorf("root self time %v, want %v", self[root], want)
	}
	if got := sp.unaccountedMs(); got != 40 {
		t.Errorf("unaccounted %v ms, want 40", got)
	}
}
